// Self-test of the benchmark's own logic: the tail-percentile rule, the
// metric-name grammar, generator purity, and a tiny traced-vs-untraced
// digest check per workload. Run: perfbench_selftest WORK_DIR
// (or `python3 perfbench/run.py --selftest`). Exits 1 on any failure.

#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cout << "FAIL: " << what << "\n";
  }
}

constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kHeldOutSeed = 7777;

void test_tail_rule() {
  using perfbench::tail_permille;
  // Highest ladder percentile with >= 10 samples beyond it.
  check(tail_permille(0) == 500, "no samples -> median");
  check(tail_permille(39) == 500, "39 samples -> p50 (p75 leaves 9.75)");
  check(tail_permille(40) == 750, "40 samples -> p75");
  check(tail_permille(100) == 900, "100 samples -> p90");
  check(tail_permille(199) == 900, "199 samples -> p90 (p95 leaves 9.95)");
  check(tail_permille(200) == 950, "200 samples -> p95");
  check(tail_permille(1000) == 990, "1000 samples -> p99");
  check(tail_permille(9999) == 990, "9999 samples -> p99");
  check(tail_permille(10000) == 999, "10000 samples -> p99.9");
  check(perfbench::percentile_label(999) == "p99.9", "label p99.9");
  check(perfbench::percentile_label(950) == "p95", "label p95");

  // Nearest rank over 1..100: p99 is 99, p50 is 50.
  std::vector<double> ramp;
  for (int i = 100; i >= 1; --i) ramp.push_back(i);
  check(perfbench::percentile(ramp, 990) == 99.0, "nearest-rank p99 of 1..100");
  check(perfbench::percentile(ramp, 500) == 50.0, "nearest-rank p50 of 1..100");
  check(perfbench::percentile({7.0}, 999) == 7.0, "percentile of one sample");

  // Waves, not requests: 1000 request latencies from 50 waves support
  // only p75, although 1000 independent samples would support p99.
  std::vector<double> requests;
  for (int wave = 0; wave < 50; ++wave) {
    for (int i = 0; i < 20; ++i) requests.push_back(wave + i / 100.0);
  }
  const perfbench::Tail by_waves = perfbench::tail_of(requests, 50, "waves");
  check(by_waves.permille == 750, "50 waves -> p75");
  check(by_waves.value == perfbench::percentile(requests, 750), "tail value at p75");
  check(by_waves.label.find("50 waves") != std::string::npos,
        "tail label names the waves");
  check(perfbench::tail_of(requests, requests.size(), "requests").permille == 990,
        "1000 independent requests -> p99");
}

void test_metric_names() {
  using perfbench::valid_metric_name;
  for (const char* good :
       {"rate_per_s", "core.step1_ms", "a-b.c_d", "0x", "trace_overhead_frac"}) {
    check(valid_metric_name(good), std::string("valid name ") + good);
  }
  for (const char* bad :
       {"", ".lead", "_lead", "sp ace", "a/b", "q\"uote", "tab\tx", "\xC3\xA9"}) {
    check(!valid_metric_name(bad), std::string("invalid name '") + bad + "'");
  }
  check(!valid_metric_name(std::string(65, 'a')), "65-char name rejected");
  check(valid_metric_name(std::string(64, 'a')), "64-char name accepted");

  perfbench::RunResult result;
  perfbench::add_end_to_end(result, {});
  perfbench::add_layer_metrics(result, {});
  bool printed = true;
  try {
    perfbench::result_json(result);
  } catch (const std::exception&) {
    printed = false;
  }
  check(printed, "every end-to-end and per-layer name is printable");
  for (const perfbench::Metric& metric : result.metrics) {
    check(valid_metric_name(metric.name), "declared metric " + metric.name);
  }
  result.add("bad name", 1.0, "s");
  bool rejected = false;
  try {
    perfbench::result_json(result);
  } catch (const std::exception&) {
    rejected = true;
  }
  check(rejected, "result_json rejects a bad metric name");
  bool unknown_rejected = false;
  try {
    perfbench::RunResult other;
    perfbench::add_layer_metrics(other, {{"not.a.layer_ms", 1.0}});
  } catch (const std::exception&) {
    unknown_rejected = true;
  }
  check(unknown_rejected, "add_layer_metrics rejects an undeclared layer");
}

void test_generator_purity() {
  for (const auto& [workload, ops] : std::vector<std::pair<std::string, int>>{
           {"fleet_survey", 8}, {"serve_hot", 48}, {"serve_cold", 12}}) {
    const std::string a = perfbench::input_bytes(workload, kDefaultSeed, ops);
    const std::string b = perfbench::input_bytes(workload, kDefaultSeed, ops);
    const std::string held_out = perfbench::input_bytes(workload, kHeldOutSeed, ops);
    check(!a.empty(), workload + ": inputs generated");
    check(a == b, workload + ": same seed gives byte-identical inputs");
    check(a != held_out, workload + ": held-out seed gives different inputs");
  }
}

void test_traced_digest(const std::string& work_dir) {
  struct Tiny {
    const char* workload;
    perfbench::Plan plan;
  };
  const Tiny tiny[] = {
      {"fleet_survey", {4, 0, 2, 1}},
      {"serve_hot", {64, 16, 2, 1}},
      {"serve_cold", {16, 4, 2, 1}},
  };
  for (const Tiny& entry : tiny) {
    perfbench::RunContext context;
    context.seed = kDefaultSeed;
    context.work_dir = work_dir;
    const std::string name = entry.workload;
    for (const bool trace : {false, true}) {
      context.trace = trace;
      const perfbench::RunResult result =
          name == "fleet_survey" ? perfbench::run_fleet_survey(context, entry.plan)
          : name == "serve_hot"  ? perfbench::run_serve_hot(context, entry.plan)
                                 : perfbench::run_serve_cold(context, entry.plan);
      for (const std::string& error : result.errors) std::cout << "  " << error << "\n";
      // run_* marks the run incorrect when a traced round's digest or
      // counts differ from the untraced rounds.
      check(result.correct(),
            name + (trace ? " traced" : " untraced") + " run is correct");
      check(result.attempted > 0 && result.failed == 0,
            name + ": all operations succeed");
      check(result.metrics.size() == (trace ? 26u : 6u), name + ": metric count");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string work_dir = argc > 1 ? argv[1] : ".";
  try {
    test_tail_rule();
    test_metric_names();
    test_generator_purity();
    test_traced_digest(work_dir);
  } catch (const std::exception& e) {
    std::cout << "FAIL: exception " << e.what() << "\n";
    ++failures;
  }
  if (failures) {
    std::cout << "selftest FAILED: " << failures << " failures\n";
    return 1;
  }
  std::cout << "selftest passed\n";
  return 0;
}
