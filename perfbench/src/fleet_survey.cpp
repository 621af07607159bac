// fleet_survey: a serial survey over the four paper SKUs, streamed into a
// recordio segment. Almost all of its time is the simulator (instance
// construction, step 1, step 2); it is the only workload where a sim,
// cache, mesh or msr change shows.

#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/pipeline.hpp"
#include "fleet/record_stream.hpp"
#include "fleet/survey.hpp"
#include "msr/pmon.hpp"
#include "recordio/writer.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace corelocate;

constexpr std::array<sim::XeonModel, 4> kSkus = {
    sim::XeonModel::k8124M, sim::XeonModel::k8175M, sim::XeonModel::k8259CL,
    sim::XeonModel::k6354};

/// How far the traced layer sum may stray from the untraced time per
/// instance beyond trace_overhead_frac: the gap is a ratio of totals over
/// the paired rounds, the overhead a median of per-pair ratios, and host
/// noise between the two halves of a pair separates them.
constexpr double kLayerSumSlack = 0.1;

/// Tool-RNG tweak of the survey seeding contract (fleet/survey.hpp).
constexpr std::uint64_t kToolSeedTweak = 0x700150EEDULL;

/// Instance i of SKU `sku` in round `round` runs with seed
/// base_seed(seed, round, sku) + i. Rounds share their composition but not
/// their instances: exact_frac over one round's few instances spreads too
/// much across seeds (see NOTES.md).
std::uint64_t base_seed(std::uint64_t seed, int round, std::size_t sku) {
  const std::uint64_t stream = static_cast<std::uint64_t>(round) << 8 | sku;
  return util::mix64(util::mix64(seed) ^ util::mix64(stream)) >> 1;
}

int per_sku(int ops) {
  if (ops < 4 || ops % 4) throw std::invalid_argument("fleet round must be 4k instances");
  return ops / 4;
}

/// The analyze step: scores the map against ground truth. Both the
/// untraced survey and the traced replay write the same record fields.
void score(const sim::InstanceConfig& truth, fleet::InstanceRecord& record) {
  const MapVerdict verdict =
      record.success ? judge_map(record.map, truth) : MapVerdict{};
  record.metrics["exact"] = verdict.exact ? 1.0 : 0.0;
  record.metrics["wellformed"] = record.success && !verdict.wellformed ? 0.0 : 1.0;
}

void analyze(const fleet::InstanceTask&, const fleet::LocatedInstance& located,
             fleet::InstanceRecord& record) {
  score(located.config, record);
}

struct Round {
  double seconds = 0.0;
  std::uint64_t digest = 0;
  std::uint64_t instances = 0;
  std::uint64_t failed = 0;
  std::uint64_t exact = 0;
  std::uint64_t malformed = 0;
  double nodes = 0.0;
  double lp_iterations = 0.0;
  std::uint64_t bytes = 0;
};

Round finish(Round round, const std::string& path, recordio::RecordWriter& writer) {
  writer.close();
  round.bytes = writer.stats().bytes_written;
  round.digest = fnv_file(path);
  return round;
}

/// One round through fleet::run_survey, as a fleet user runs it. Appends
/// the gap between consecutive sink records to `gaps_s`.
Round survey_round(std::uint64_t seed, int round_index, int ops, const std::string& path,
                   std::vector<double>& gaps_s) {
  recordio::RecordWriter writer(path, fleet::survey_record_schema());
  Round round;
  next_cpu();
  Clock::time_point last = Clock::now();
  const Clock::time_point start = last;
  for (std::size_t sku = 0; sku < kSkus.size(); ++sku) {
    fleet::SurveyOptions options;
    options.instances = per_sku(ops);
    options.jobs = 1;
    options.base_seed = base_seed(seed, round_index, sku);
    options.keep_records = false;
    options.analyze = analyze;
    options.record_sink = [&](const fleet::InstanceRecord& record) {
      writer.append_row(fleet::encode_survey_record(record));
      const Clock::time_point now = Clock::now();
      gaps_s.push_back(seconds_between(last, now));
      last = now;
      next_cpu();  // for the next instance
    };
    const fleet::SurveyResult survey = fleet::run_survey(kSkus[sku], options);
    const auto total = [&](const char* key) {
      const auto it = survey.metric_totals.find(key);
      return it == survey.metric_totals.end() ? 0.0 : it->second;
    };
    round.instances += static_cast<std::uint64_t>(options.instances);
    round.failed += static_cast<std::uint64_t>(survey.failed);
    round.exact += static_cast<std::uint64_t>(total("exact"));
    round.malformed += static_cast<std::uint64_t>(options.instances) -
                       static_cast<std::uint64_t>(total("wellformed"));
    round.nodes += total("solver_nodes");
    round.lp_iterations += total("solver_lp_iterations");
  }
  round.seconds = seconds_between(start, Clock::now());
  return finish(round, path, writer);
}

struct LayerCounts {
  double eviction_lines = 0.0;
  double observations = 0.0;
  double busy_cycles = 0.0;
};

/// One round replayed from the modules' public calls, each under a span:
/// the steps of fleet::locate_instance and core::locate_cores, then the
/// record the survey would stream.
Round traced_round(std::uint64_t seed, int round_index, int ops, const std::string& path,
                   Trace& trace, LayerCounts& counts) {
  recordio::RecordWriter writer(path, fleet::survey_record_schema());
  const sim::InstanceFactory factory;
  Round round;
  const Clock::time_point start = Clock::now();
  for (std::size_t sku = 0; sku < kSkus.size(); ++sku) {
    const sim::XeonModel model = kSkus[sku];
    for (int index = 0; index < per_sku(ops); ++index) {
      next_cpu();
      const Trace::Span instance_span(trace, "fleet.instance");
      fleet::InstanceRecord record;
      record.index = index;
      record.seed = base_seed(seed, round_index, sku) + static_cast<std::uint64_t>(index);
      util::Rng machine_rng(record.seed);
      sim::InstanceConfig config;
      {
        const Trace::Span span(trace, "sim.make_instance");
        config = factory.make_instance(model, machine_rng);
      }
      std::optional<sim::VirtualXeon> cpu;
      {
        const Trace::Span span(trace, "sim.build");
        cpu.emplace(config);
      }
      util::Rng tool_rng(record.seed ^ kToolSeedTweak);
      const core::LocateOptions options = core::options_for(sim::spec_for(model));
      core::ChaMappingResult mapping;
      {
        const Trace::Span span(trace, "core.step1");
        core::ChaMapper mapper(*cpu, tool_rng, options.mapper);
        mapping = mapper.map();
      }
      core::ObservationSet observations;
      {
        const Trace::Span span(trace, "core.step2");
        core::TrafficProber prober(*cpu, options.probe);
        observations = prober.probe_all(mapping);
      }
      core::MapSolveResult solved;
      {
        const Trace::Span span(trace, "core.step3");
        core::DecomposedSolverOptions decomposed = options.decomposed;
        decomposed.grid_rows = options.grid_rows;
        decomposed.grid_cols = options.grid_cols;
        solved = core::DecomposedMapSolver(decomposed).solve(observations,
                                                             cpu->cha_count());
      }
      for (const auto& set : mapping.eviction_sets) {
        counts.eviction_lines += static_cast<double>(set.size());
      }
      counts.observations += static_cast<double>(observations.size());
      counts.busy_cycles += static_cast<double>(cpu->traffic().grand_total());

      record.metrics["solver_nodes"] = static_cast<double>(solved.nodes);
      record.metrics["solver_lp_iterations"] = static_cast<double>(solved.lp_iterations);
      record.metrics["solver_nodes_pruned"] = static_cast<double>(solved.nodes_pruned);
      record.metrics["solver_lp_solves_avoided"] =
          static_cast<double>(solved.lp_solves_avoided);
      record.success = solved.success;
      if (solved.success) {
        record.message = solved.message;
        record.map.rows = options.grid_rows;
        record.map.cols = options.grid_cols;
        record.map.cha_position = std::move(solved.cha_position);
        record.map.os_core_to_cha = mapping.os_core_to_cha;
        record.map.llc_only_chas = mapping.llc_only_chas;
        record.map.ppin = msr::PmonDriver(cpu->msr()).read_ppin();
      } else {
        record.message = "solver failed: " + solved.message;
      }
      score(config, record);
      {
        const Trace::Span span(trace, "recordio.append");
        writer.append_row(fleet::encode_survey_record(record));
      }
      ++round.instances;
      round.failed += record.success ? 0 : 1;
      round.exact += static_cast<std::uint64_t>(record.metrics["exact"]);
      round.malformed += record.metrics["wellformed"] > 0.0 ? 0 : 1;
      round.nodes += static_cast<double>(solved.nodes);
      round.lp_iterations += static_cast<double>(solved.lp_iterations);
    }
  }
  round.seconds = seconds_between(start, Clock::now());
  return finish(round, path, writer);
}

/// A traced replay of a round must reproduce its digest and counts.
void check_same(RunResult& result, const Round& untraced, const Round& traced,
                int index) {
  if (traced.digest != untraced.digest || traced.exact != untraced.exact ||
      traced.failed != untraced.failed || traced.nodes != untraced.nodes ||
      traced.lp_iterations != untraced.lp_iterations || traced.bytes != untraced.bytes) {
    result.error("traced round " + std::to_string(index) +
                 " differs from the untraced one: digest " + hex64(traced.digest) +
                 " vs " + hex64(untraced.digest));
  }
}

}  // namespace

std::string fleet_input_bytes(std::uint64_t seed, int ops) {
  std::string bytes;
  for (std::size_t sku = 0; sku < kSkus.size(); ++sku) {
    bytes += std::string(sim::to_string(kSkus[sku])) + " instances=" +
             std::to_string(per_sku(ops)) + " base_seed=" +
             std::to_string(base_seed(seed, 0, sku)) + "\n";
  }
  return bytes;
}

RunResult run_fleet_survey(const RunContext& context, const Plan& plan) {
  RunResult result;
  std::filesystem::create_directories(context.work_dir);
  const std::string path = context.work_dir + "/fleet_survey.rio";

  // Set-up: the factory and one warm-up instance per SKU (first-touch
  // allocation), repeated so setup_s is a median.
  std::vector<double> setup_s;
  for (int repeat = 0; repeat < plan.setups; ++repeat) {
    const Clock::time_point start = Clock::now();
    const sim::InstanceFactory factory;
    for (std::size_t sku = 0; sku < kSkus.size(); ++sku) {
      next_cpu();
      fleet::locate_instance(kSkus[sku], base_seed(context.seed, 0, sku), factory);
    }
    setup_s.push_back(seconds_between(start, Clock::now()));
  }

  // In trace mode each untraced round is followed by its traced replay,
  // so both see the same machine state and trace_overhead_frac compares
  // like with like.
  std::vector<double> gaps_s;
  std::vector<double> rates;
  std::vector<double> overheads;
  Round total;
  double paired_untraced_s = 0.0;  // untraced rounds that have a traced replay
  Round traced_total;
  Trace trace;
  LayerCounts counts;
  Fnv64 run_digest;
  for (int r = 0; r < plan.rounds; ++r) {
    const Round round = survey_round(context.seed, r, plan.ops_per_round, path, gaps_s);
    const double rate = static_cast<double>(round.instances) / round.seconds;
    rates.push_back(rate);
    run_digest.add(hex64(round.digest));
    total.instances += round.instances;
    total.failed += round.failed;
    total.exact += round.exact;
    total.malformed += round.malformed;
    if (!context.trace) continue;
    paired_untraced_s += round.seconds;
    const Round replay =
        traced_round(context.seed, r, plan.ops_per_round, path, trace, counts);
    const double traced_rate = static_cast<double>(replay.instances) / replay.seconds;
    overheads.push_back(traced_rate / rate - 1.0);
    check_same(result, round, replay, r);
    traced_total.instances += replay.instances;
    traced_total.failed += replay.failed;
    traced_total.nodes += replay.nodes;
    traced_total.lp_iterations += replay.lp_iterations;
    traced_total.bytes += replay.bytes;
  }
  std::filesystem::remove(path);
  result.attempted = total.instances + traced_total.instances;
  result.failed = total.failed + traced_total.failed;
  if (total.malformed) result.error(std::to_string(total.malformed) + " malformed maps");
  result.notes.push_back("digest fnv1a=" + hex64(run_digest.value()) + " over " +
                         std::to_string(rates.size()) + " recordio segments");

  if (!context.trace) {
    EndToEnd e2e;
    e2e.setup_s = util::median(setup_s);
    e2e.rate_per_s = util::median(rates);
    e2e.latency_p50_ms = percentile(gaps_s, 500) * 1e3;
    const Tail tail = tail_of(gaps_s, gaps_s.size(), "instances");
    e2e.latency_tail_ms = tail.value * 1e3;
    e2e.peak_rss_mib = peak_rss_mib();
    e2e.exact_frac =
        static_cast<double>(total.exact) / static_cast<double>(total.instances);
    result.notes.push_back("latency_tail_ms is " + tail.label);
    result.notes.push_back(rates_note(rates));
    add_end_to_end(result, e2e);
    return result;
  }

  const double ops = static_cast<double>(traced_total.instances);
  const double overhead = util::median(overheads);
  std::map<std::string, double> layers = {
      {"sim.make_instance_ms", trace.mean_s("sim.make_instance") * 1e3},
      {"sim.build_ms", trace.mean_s("sim.build") * 1e3},
      {"core.step1_ms", trace.mean_s("core.step1") * 1e3},
      {"core.step2_ms", trace.mean_s("core.step2") * 1e3},
      {"core.step3_ms", trace.mean_s("core.step3") * 1e3},
      {"recordio.append_us", trace.mean_s("recordio.append") * 1e6},
      {"core.eviction_lines_per_op", counts.eviction_lines / ops},
      {"core.observations_per_op", counts.observations / ops},
      {"recordio.bytes_per_op", static_cast<double>(traced_total.bytes) / ops},
      {"mesh.busy_cycles_per_op", counts.busy_cycles / ops},
      {"ilp.nodes_per_op", traced_total.nodes / ops},
      {"ilp.lp_iterations_per_op", traced_total.lp_iterations / ops},
      {"trace_overhead_frac", overhead},
      // Traced time per instance outside the spans above: the self time
      // of the fleet.instance span (seeding, the record, scoring).
      {"fleet.unattributed_ms", trace.row("fleet.instance").self_s * 1e3 / ops},
  };
  // Every layer runs once per instance, so the layer times add up to the
  // traced time per instance. That sum must match the untraced time per
  // instance within the measured trace overhead.
  double layer_sum_ms = layers["recordio.append_us"] * 1e-3;
  for (const char* name : {"sim.make_instance_ms", "sim.build_ms", "core.step1_ms",
                           "core.step2_ms", "core.step3_ms", "fleet.unattributed_ms"}) {
    layer_sum_ms += layers[name];
  }
  const double untraced_ms =
      paired_untraced_s * 1e3 / static_cast<double>(total.instances);
  const double gap = layer_sum_ms / untraced_ms - 1.0;
  const double allowed = std::abs(overhead) + kLayerSumSlack;
  char summary[200];
  std::snprintf(summary, sizeof summary,
                "layer times add up to %.4g ms per instance vs %.4g ms untraced: "
                "gap %+.2f%%, allowed +-%.2f%%",
                layer_sum_ms, untraced_ms, 100 * gap, 100 * allowed);
  result.notes.push_back(summary);
  if (std::abs(gap) > allowed) {
    result.error(std::string("per-layer breakdown does not add up: ") + summary);
  }
  add_layer_metrics(result, layers);
  for (std::string& line :
       trace.table("traced fleet_survey rounds (self time per span)")) {
    result.notes.push_back(std::move(line));
  }
  return result;
}

}  // namespace perfbench
