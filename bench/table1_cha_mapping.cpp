// Table I: OS core ID -> CHA ID mapping results across the simulated
// cloud fleet (100 instances per CPU model).
//
// Paper expectation:
//  * 8124M and 8175M: every instance shares one mapping, the mod-4 class
//    pattern (0 4 8 12 16 | 2 6 10 14 | ...).
//  * 8259CL: a handful of mapping variants (the paper saw 7), each
//    missing the two LLC-only CHA ids, dominated by one variant (62/100).
//
// Runs on the fleet engine: --jobs N parallelizes (bit-identical to
// --jobs 1), --checkpoint/--resume survive interruption.

#include <cmath>

#include "bench_common.hpp"
#include "core/pattern_stats.hpp"

namespace {

using namespace corelocate;

std::string mapping_to_string(const std::vector<int>& mapping) {
  std::string s;
  for (std::size_t i = 0; i < mapping.size(); ++i) {
    if (i) s += ' ';
    s += std::to_string(mapping[i]);
  }
  return s;
}

void run_model(sim::XeonModel model, int instances, const util::CliFlags& flags,
               bool csv, bench::BenchReporter& reporter,
               bench::ExpectedActual& comparison) {
  fleet::SurveyOptions options =
      bench::survey_options_from_flags(flags, instances, bench::kFleetSeed,
                                       sim::to_string(model));
  options.analyze = [](const fleet::InstanceTask&, const fleet::LocatedInstance& li,
                       fleet::InstanceRecord& record) {
    if (!li.result.success) return;
    record.metrics["step1_exact"] =
        li.result.cha_mapping.os_core_to_cha == li.config.os_core_to_cha ? 1.0 : 0.0;
  };
  const fleet::SurveyResult survey = fleet::run_survey(model, options);

  for (const fleet::InstanceRecord& record : survey.records) {
    if (!record.success) {
      std::cout << "instance " << record.index << ": pipeline failed: "
                << record.message << "\n";
    }
  }
  const auto it = survey.metric_totals.find("step1_exact");
  const int step1_exact =
      it == survey.metric_totals.end() ? 0 : static_cast<int>(std::llround(it->second));

  std::cout << "\n--- " << sim::to_string(model) << " (" << instances
            << " instances) ---\n";
  std::cout << "step-1 recovered mapping matches ground truth on " << step1_exact << "/"
            << instances << " instances\n";
  std::cout << "unique OS<->CHA mappings observed: "
            << survey.id_mappings.unique_mappings() << "\n";
  util::TablePrinter table({"# of instances", "OS core ID -> CHA ID"});
  for (const auto& entry : survey.id_mappings.entries) {
    table.add_row({std::to_string(entry.count), mapping_to_string(entry.os_core_to_cha)});
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  reporter.merge_registry(survey.registry);
  reporter.add_stage(sim::to_string(model), survey.wall_seconds);
  const double expected_variants = model == sim::XeonModel::k8259CL ? 7.0 : 1.0;
  comparison.add(std::string(sim::to_string(model)) + " mapping variants",
                 expected_variants,
                 static_cast<double>(survey.id_mappings.unique_mappings()));
  comparison.add(std::string(sim::to_string(model)) + " step-1 exact",
                 static_cast<double>(instances), static_cast<double>(step1_exact),
                 "instances");
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagSpec spec("table1_cha_mapping",
                      "Reproduce Table I: the OS core id <-> CHA id mapping across a "
                      "fleet of instances per model.");
  spec.add("instances", "N", "instances to survey per model")
      .add("csv", "", "emit machine-readable CSV rows");
  bench::add_fleet_flags(spec);
  bench::add_report_flags(spec);
  const util::CliFlags flags(argc, argv);
  if (flags.handle_help(spec, std::cout)) return 0;
  const int instances = static_cast<int>(flags.get_int("instances", 100));
  bench::BenchReporter reporter("table1_cha_mapping", flags);
  bench::ExpectedActual comparison;

  bench::print_header("Table I: OS core ID <-> CHA ID mapping results", "Table I");
  std::cout << "paper: 8124M/8175M -> 1 mapping each (mod-4 classes); "
               "8259CL -> 7 variants, top 62/33 instances\n";

  const bool csv = flags.get_bool("csv");
  run_model(sim::XeonModel::k8124M, instances, flags, csv, reporter, comparison);
  run_model(sim::XeonModel::k8175M, instances, flags, csv, reporter, comparison);
  run_model(sim::XeonModel::k8259CL, instances, flags, csv, reporter, comparison);
  reporter.finish(comparison);
  return 0;
}
