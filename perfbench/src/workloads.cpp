#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "serve/service.hpp"

namespace perfbench {

namespace {

struct Shape {
  const char* workload;
  int ops_per_round;
  double round_s;  ///< nominal round length (s) on a 4-core x86 box
  int setups;
};

// Each round takes about a second: long enough to hold several serve
// waves or a few instances of every SKU, short enough that a 25 s run
// takes its median over ~25 rounds while the tail stays at p95 (fewer than
// 1000 waves or instances; see NOTES.md). A serve_cold round is three waves.
// NOTES.md has the measured spreads.
constexpr Shape kShapes[] = {
    {"fleet_survey", 32, 1.2, 15},
    {"serve_hot", 8192, 0.95, 9},
    {"serve_cold", 768, 1.0, 15},
};

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Same order as per_layer in BENCHMARK.json.
constexpr LayerMetric kLayerMetrics[] = {
    {"sim.make_instance_ms", "ms"},
    {"sim.build_ms", "ms"},
    {"core.step1_ms", "ms"},
    {"core.step2_ms", "ms"},
    {"core.step3_ms", "ms"},
    {"recordio.append_us", "us"},
    {"fleet.unattributed_ms", "ms"},
    {"core.eviction_lines_per_op", "count"},
    {"core.observations_per_op", "count"},
    {"recordio.bytes_per_op", "bytes"},
    {"mesh.busy_cycles_per_op", "cycles"},
    {"ilp.nodes_per_op", "count"},
    {"ilp.lp_iterations_per_op", "count"},
    {"serve.fingerprint_us", "us"},
    {"serve.cache_probe_us", "us"},
    {"covert.plan_us", "us"},
    {"serve.activations_per_op", "count"},
    {"serve.hit_frac", "1"},
    {"core.refine_ms", "ms"},
    {"core.refine_iterations_per_solve", "count"},
    {"core.refine_cuts_per_solve", "count"},
    {"ilp.nodes_per_solve", "count"},
    {"serve.cache_insert_us", "us"},
    {"serve.solves_per_request", "count"},
    {"serve.unattributed_us", "us"},
    {"trace_overhead_frac", "1"},
};

}  // namespace

Plan plan_for(const std::string& workload, int seconds, bool trace) {
  if (seconds < 1) throw std::invalid_argument("--seconds must be >= 1");
  for (const Shape& shape : kShapes) {
    if (workload != shape.workload) continue;
    Plan plan;
    plan.ops_per_round = shape.ops_per_round;
    // Both serve workloads keep the Service's default batch_max
    // outstanding: the batch corelocated and serve_loadgen drain per pump.
    // NOTES.md has the rejected windows.
    if (workload != "fleet_survey") {
      plan.window = corelocate::serve::ServiceOptions{}.batch_max;
    }
    plan.setups = shape.setups;
    const int rounds =
        std::max(4, static_cast<int>(std::lround(seconds / shape.round_s)));
    // Trace mode spends the same time on pairs: an untraced round, then
    // its traced replay.
    plan.rounds = trace ? rounds / 2 : rounds;
    return plan;
  }
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

void add_layer_metrics(RunResult& result, const std::map<std::string, double>& values) {
  for (const auto& entry : values) {
    const bool known =
        std::any_of(std::begin(kLayerMetrics), std::end(kLayerMetrics),
                    [&](const LayerMetric& m) { return entry.first == m.name; });
    if (!known) throw std::invalid_argument("unknown per-layer metric " + entry.first);
  }
  for (const LayerMetric& metric : kLayerMetrics) {
    const auto it = values.find(metric.name);
    result.add(metric.name, it == values.end() ? 0.0 : it->second, metric.unit);
  }
}

std::string input_bytes(const std::string& workload, std::uint64_t seed, int ops) {
  if (workload == "fleet_survey") return fleet_input_bytes(seed, ops);
  if (workload == "serve_hot") return serve_input_bytes(true, seed, ops);
  if (workload == "serve_cold") return serve_input_bytes(false, seed, ops);
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

MapVerdict judge_map(const corelocate::core::CoreMap& map,
                     const corelocate::sim::InstanceConfig& truth) {
  MapVerdict verdict;
  verdict.wellformed = map.ppin == truth.ppin && map.cha_count() == truth.cha_count() &&
                       map.os_core_to_cha == truth.os_core_to_cha &&
                       map.llc_only_chas == truth.llc_only_chas();
  // Two CHAs on one tile is not malformed: it is the compressed map of the
  // paper's Sec. II-D failure mode, and counts against exact_frac only.
  for (const auto& tile : map.cha_position) {
    verdict.wellformed = verdict.wellformed && tile.row >= 0 && tile.row < map.rows &&
                         tile.col >= 0 && tile.col < map.cols;
  }
  verdict.exact =
      verdict.wellformed && corelocate::core::score_against_truth(map, truth).exact();
  return verdict;
}

void add_end_to_end(RunResult& result, const EndToEnd& values) {
  result.add("setup_s", values.setup_s, "s");
  result.add("rate_per_s", values.rate_per_s, "1/s");
  result.add("latency_p50_ms", values.latency_p50_ms, "ms");
  result.add("latency_tail_ms", values.latency_tail_ms, "ms");
  result.add("peak_rss_mib", values.peak_rss_mib, "MiB");
  result.add("exact_frac", values.exact_frac, "1");
}

}  // namespace perfbench
