#pragma once
// The three benchmark workloads. Each run is a whole number of rounds of
// seeded, fixed work driven by one thread (jobs = 1). The untraced rounds
// give the end-to-end metrics. In trace mode every untraced round is
// followed by a replay that calls each module's public functions directly,
// under spans, on the same inputs, and must reproduce the round's digest.

#include <cstdint>
#include <map>
#include <string>

#include "common.hpp"
#include "core/core_map.hpp"
#include "sim/instance_factory.hpp"

namespace perfbench {

struct Plan {
  int ops_per_round = 0;  ///< instances (fleet) or requests (serve) per round
  int window = 0;         ///< serve closed-loop window (outstanding requests)
  int rounds = 0;         ///< untraced rounds; trace mode replays each one
  int setups = 0;         ///< set-up repetitions; setup_s is their median
};

/// The plan a `seconds`-long run of `workload` uses. Round counts depend
/// only on the arguments, never on measured speed, so every count (and
/// the tail percentile chosen from it) repeats exactly.
Plan plan_for(const std::string& workload, int seconds, bool trace);

struct RunContext {
  std::uint64_t seed = 1;
  bool trace = false;
  std::string work_dir;  ///< scratch files (recordio segments)
};

RunResult run_fleet_survey(const RunContext& context, const Plan& plan);
RunResult run_serve_hot(const RunContext& context, const Plan& plan);
RunResult run_serve_cold(const RunContext& context, const Plan& plan);

/// The generated inputs of one round as bytes (what the program is fed),
/// for checking that generation is a pure function of the seed.
std::string input_bytes(const std::string& workload, std::uint64_t seed, int ops);
std::string fleet_input_bytes(std::uint64_t seed, int ops);
std::string serve_input_bytes(bool hot, std::uint64_t seed, int ops);

/// A returned map judged against the instance's ground truth. `exact` is
/// the accuracy claim (placement right up to the horizontal mirror);
/// `wellformed` fails on a map that cannot be right at all: wrong
/// identity, wrong step-1 mapping, or a tile off the grid.
struct MapVerdict {
  bool exact = false;
  bool wellformed = false;
};
MapVerdict judge_map(const corelocate::core::CoreMap& map,
                     const corelocate::sim::InstanceConfig& truth);

/// Appends every per-layer metric, in BENCHMARK.json order, taking the
/// value from `values` and 0 for a layer the workload never calls.
/// Throws std::invalid_argument on a key that is not a per-layer metric.
void add_layer_metrics(RunResult& result, const std::map<std::string, double>& values);

/// Appends the end-to-end metrics shared by every workload.
struct EndToEnd {
  double setup_s = 0.0;
  double rate_per_s = 0.0;
  double latency_p50_ms = 0.0;
  double latency_tail_ms = 0.0;
  double peak_rss_mib = 0.0;
  double exact_frac = 0.0;
};
void add_end_to_end(RunResult& result, const EndToEnd& values);

}  // namespace perfbench
