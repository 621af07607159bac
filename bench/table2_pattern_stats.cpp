// Table II: observed core location pattern statistics — the diversity of
// physical core maps across 100 instances per CPU model.
//
// Paper expectation (100 instances each):
//   8124M : top-4 = 53/18/5/5 insts, 14 unique patterns
//   8175M : top-4 = 52/7/7/6 insts,  26 unique patterns
//   8259CL: top-4 = 19/5/4/4 insts,  53 unique patterns
// The shape to reproduce: one dominant pattern + a long tail, with the
// 8259CL fleet far more diverse than the 8124M fleet.
//
// Runs on the fleet engine: --jobs N parallelizes (bit-identical to
// --jobs 1), --checkpoint/--resume survive interruption (per-model
// subdirectories under the checkpoint dir).

#include <cmath>

#include "bench_common.hpp"
#include "core/pattern_stats.hpp"
#include "core/refinement.hpp"

namespace {

using namespace corelocate;

struct ModelRow {
  std::string name;
  std::vector<int> top4;
  int unique = 0;
  int exact_maps = 0;
  int exact_refined = 0;
  int instances = 0;
};

void analyze_accuracy(const fleet::InstanceTask&, const fleet::LocatedInstance& li,
                      fleet::InstanceRecord& record) {
  if (!li.result.success) return;
  record.metrics["exact"] =
      core::score_against_truth(li.result.map, li.config).all_cores_correct() ? 1.0
                                                                              : 0.0;
  // Extension: re-solve the same observations with negative-information
  // refinement (paper Sec. II-D failure mode repaired).
  record.metrics["exact_refined"] = 0.0;
  core::RefinementOptions refine;
  refine.grid_rows = li.config.grid.rows();
  refine.grid_cols = li.config.grid.cols();
  const core::RefinementResult refined = core::solve_with_refinement(
      li.result.observations, li.config.cha_count(), refine);
  if (refined.solved.success) {
    core::CoreMap rmap = li.result.map;
    rmap.cha_position = refined.solved.cha_position;
    if (core::score_against_truth(rmap, li.config).all_cores_correct()) {
      record.metrics["exact_refined"] = 1.0;
    }
  }
}

ModelRow run_model(sim::XeonModel model, int instances, const util::CliFlags& flags,
                   bench::BenchReporter& reporter) {
  fleet::SurveyOptions options =
      bench::survey_options_from_flags(flags, instances, bench::kFleetSeed * 3,
                                       sim::to_string(model));
  options.analyze = analyze_accuracy;
  const fleet::SurveyResult survey = fleet::run_survey(model, options);

  ModelRow row;
  row.name = sim::to_string(model);
  row.instances = instances;
  for (const auto& entry : survey.patterns.top(4)) row.top4.push_back(entry.count);
  row.unique = survey.patterns.unique_patterns();
  const auto total = [&](const char* key) {
    const auto it = survey.metric_totals.find(key);
    return it == survey.metric_totals.end() ? 0
                                            : static_cast<int>(std::llround(it->second));
  };
  row.exact_maps = total("exact");
  row.exact_refined = total("exact_refined");
  reporter.merge_registry(survey.registry);
  reporter.add_stage(row.name, survey.wall_seconds);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagSpec spec("table2_pattern_stats",
                      "Reproduce Table II: distinct physical core layouts and their "
                      "frequencies across a fleet per model.");
  spec.add("instances", "N", "instances to survey per model")
      .add("csv", "", "emit machine-readable CSV rows");
  bench::add_fleet_flags(spec);
  bench::add_report_flags(spec);
  const util::CliFlags flags(argc, argv);
  if (flags.handle_help(spec, std::cout)) return 0;
  const int instances = static_cast<int>(flags.get_int("instances", 100));
  bench::BenchReporter reporter("table2_pattern_stats", flags);
  bench::ExpectedActual comparison;

  bench::print_header("Table II: observed core location pattern statistics",
                      "Table II");
  std::cout << "paper: top-4 53/18/5/5 (14 uniq) | 52/7/7/6 (26 uniq) | "
               "19/5/4/4 (53 uniq)\n\n";

  util::TablePrinter table({"CPU model", "#1", "#2", "#3", "#4", "unique patterns",
                            "maps exact (paper method)", "maps exact (+neg-info cuts)"});
  const auto paper_unique = [](sim::XeonModel model) {
    switch (model) {
      case sim::XeonModel::k8124M: return 14.0;
      case sim::XeonModel::k8175M: return 26.0;
      default: return 53.0;
    }
  };
  for (sim::XeonModel model :
       {sim::XeonModel::k8124M, sim::XeonModel::k8175M, sim::XeonModel::k8259CL}) {
    const ModelRow row = run_model(model, instances, flags, reporter);
    comparison.add(row.name + " unique patterns", paper_unique(model),
                   static_cast<double>(row.unique));
    comparison.add(row.name + " maps exact", static_cast<double>(row.instances),
                   static_cast<double>(row.exact_refined), "instances");
    std::vector<std::string> cells{row.name};
    for (int i = 0; i < 4; ++i) {
      cells.push_back(i < static_cast<int>(row.top4.size())
                          ? std::to_string(row.top4[static_cast<std::size_t>(i)])
                          : "-");
    }
    cells.push_back(std::to_string(row.unique));
    cells.push_back(std::to_string(row.exact_maps) + "/" + std::to_string(row.instances));
    cells.push_back(std::to_string(row.exact_refined) + "/" + std::to_string(row.instances));
    table.add_row(std::move(cells));
  }
  if (flags.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  reporter.finish(comparison);
  return 0;
}
