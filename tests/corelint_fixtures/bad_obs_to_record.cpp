// Fixture: obs::Clock values are still wall-clock — untagged flows into
// result sinks must fire det-taint-flow even though the Clock call site
// itself is sanctioned (no det-wallclock finding anywhere in this file).
// Timing may flow into reports, never into SurveyRecord/MapStore data.

namespace obs {
struct Clock {
  struct Time {
    unsigned long long ns = 0;
  };
  static Time now() { return Time{}; }
  static double seconds_since(Time) { return 0.0; }
  static double now_seconds() { return 0.0; }
};
}  // namespace obs

struct SurveyRecord {
  double score = 0.0;
};

struct MapStore {
  void encode_core_map(double) {}
};

namespace {

double jittered_score() {
  // Clock read without a tag: the value is tainted wall-clock.
  const double t = obs::Clock::now_seconds();
  return t * 1e-9;
}

}  // namespace

void fill_record(SurveyRecord& rec) {
  rec.score = jittered_score();  // corelint-expect: det-taint-flow
}

void persist(MapStore& store) {
  const obs::Clock::Time start = obs::Clock::now();
  const double elapsed = obs::Clock::seconds_since(start);
  store.encode_core_map(elapsed);  // corelint-expect: det-taint-flow
}
