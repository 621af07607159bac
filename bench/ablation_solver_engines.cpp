// Ablation (DESIGN.md #2): the two map-solver engines and the ILP
// objective variants, compared on the same instances.
//
//  * decomposed  — difference-constraint rows + direction search (all 306
//                  observations); the fleet-scale default.
//  * ILP/compact — the faithful MILP with the sum(R+C) objective and
//                  coverage-balanced 40-observation selection.
//  * ILP/paper   — the paper's weighted occupancy-indicator objective
//                  (one-hot + RI/CI variables), same 40 observations.
//
// The point: all engines recover the map; the decomposed engine is
// orders of magnitude faster, which is why the fleet benches use it, and
// why the original authors reached for a commercial ILP solver.

#include "bench_common.hpp"
#include "core/map_solver.hpp"
#include "ilp/solution_cache.hpp"

namespace {

using namespace corelocate;

struct EngineResult {
  double seconds = 0.0;
  std::int64_t nodes = 0;
  int correct = 0;
  int total = 0;
  bool success = false;
};

EngineResult score(const core::MapSolveResult& solved, double seconds,
                   const sim::InstanceConfig& config) {
  EngineResult r;
  r.seconds = seconds;
  r.nodes = solved.nodes;
  r.success = solved.success;
  if (!solved.success) return r;
  core::CoreMap map;
  map.rows = config.grid.rows();
  map.cols = config.grid.cols();
  map.cha_position = solved.cha_position;
  map.os_core_to_cha = config.os_core_to_cha;
  map.llc_only_chas = config.llc_only_chas();
  const core::MapAccuracy acc = core::score_against_truth(map, config);
  r.correct = acc.core_tiles_correct;
  r.total = acc.core_tiles_total;
  return r;
}

template <typename Fn>
EngineResult timed(const char* engine, Fn&& solve, const sim::InstanceConfig& config) {
  obs::Span span(engine, "bench");
  const core::MapSolveResult solved = solve();
  return score(solved, span.stop(), config);
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagSpec spec("ablation_solver_engines",
                      "Ablation: compare the map-solver engines (monolithic ILP, "
                      "decomposed, refinement) on time and correctness.");
  spec.add("skip-paper-objective", "", "skip the slow paper-objective engine")
      .add("csv", "", "emit machine-readable CSV rows")
      .add("presolve", "0|1",
           "run ilp::presolve before branch & bound on the ILP engines "
           "(default 0)")
      .add("solution-cache", "0|1",
           "attach a run-local solver solution cache to every engine "
           "(default 0)");
  bench::add_report_flags(spec);
  const util::CliFlags flags(argc, argv);
  if (flags.handle_help(spec, std::cout)) return 0;
  const bool skip_paper = flags.get_bool("skip-paper-objective", false);
  const bool use_presolve = flags.get_bool("presolve", false);
  ilp::SolutionCache solution_cache;
  ilp::SolutionCache* cache_ptr =
      flags.get_bool("solution-cache", false) ? &solution_cache : nullptr;
  bench::BenchReporter reporter("ablation_solver_engines", flags);
  bench::ExpectedActual comparison;

  bench::print_header("Ablation: map-solver engines and ILP objectives",
                      "Sec. II-C (design study)");

  const sim::InstanceFactory factory(sim::InstanceFactory::kDefaultFleetSeed);
  util::Rng rng(bench::kFleetSeed + 5);
  const sim::InstanceConfig config = factory.make_instance(sim::XeonModel::k8124M, rng);
  const core::ObservationSet obs = core::synthesize_observations(config);
  std::cout << "instance: " << sim::to_string(config.model) << ", "
            << config.os_core_count() << " cores, " << obs.size() << " observations\n\n";

  util::TablePrinter table(
      {"engine", "observations", "time", "search nodes", "core tiles correct"});

  {
    const core::MapSolver solver(core::SolverEngine::kDecomposed, config.grid.rows(),
                                 config.grid.cols());
    const EngineResult r = timed(
        "decomposed", [&] { return solver.solve(obs, config.cha_count(), cache_ptr); },
        config);
    table.add_row({"decomposed", std::to_string(obs.size()),
                   util::fmt(r.seconds * 1000, 1) + " ms", std::to_string(r.nodes),
                   std::to_string(r.correct) + "/" + std::to_string(r.total)});
    reporter.add_stage("decomposed", r.seconds);
    comparison.add("decomposed core tiles correct", static_cast<double>(r.total),
                   static_cast<double>(r.correct), "tiles");
  }
  {
    core::IlpMapSolverOptions options;
    options.objective = core::IlpObjective::kCompactSum;
    options.max_observations = 40;
    options.milp.presolve = use_presolve;
    const core::MapSolver solver(core::SolverEngine::kIlp, config.grid.rows(),
                                 config.grid.cols(), options);
    const EngineResult r = timed(
        "ilp_compact", [&] { return solver.solve(obs, config.cha_count(), cache_ptr); },
        config);
    table.add_row({"ILP / compact sum", "40", util::fmt(r.seconds, 2) + " s",
                   std::to_string(r.nodes),
                   std::to_string(r.correct) + "/" + std::to_string(r.total)});
    reporter.add_stage("ilp_compact", r.seconds);
    comparison.add("ILP compact core tiles correct", static_cast<double>(r.total),
                   static_cast<double>(r.correct), "tiles");
  }
  if (!skip_paper) {
    core::IlpMapSolverOptions options;
    options.objective = core::IlpObjective::kPaperIndicators;
    options.max_observations = 40;
    options.milp.presolve = use_presolve;
    const core::MapSolver solver(core::SolverEngine::kIlp, config.grid.rows(),
                                 config.grid.cols(), options);
    const EngineResult r = timed(
        "ilp_paper", [&] { return solver.solve(obs, config.cha_count(), cache_ptr); },
        config);
    table.add_row({"ILP / paper indicators", "40", util::fmt(r.seconds, 2) + " s",
                   std::to_string(r.nodes),
                   std::to_string(r.correct) + "/" + std::to_string(r.total)});
    reporter.add_stage("ilp_paper", r.seconds);
    comparison.add("ILP paper core tiles correct", static_cast<double>(r.total),
                   static_cast<double>(r.correct), "tiles");
  }
  if (flags.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  reporter.finish(comparison);
  return 0;
}
