// The fleet engine's core guarantee: scheduling never leaks into results.
// A parallel survey must be *identical* to the serial reference — same
// per-instance records, same pattern statistics, same metric totals.

#include "fleet/survey.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "fleet/aggregator.hpp"

namespace corelocate::fleet {
namespace {

constexpr int kInstances = 32;
constexpr std::uint64_t kBaseSeed = 0xDE7E2777ULL;

SurveyOptions options_with_jobs(int jobs) {
  SurveyOptions options;
  options.instances = kInstances;
  options.jobs = jobs;
  options.base_seed = kBaseSeed;
  options.analyze = [](const InstanceTask&, const LocatedInstance& located,
                       InstanceRecord& record) {
    if (!located.result.success) return;
    record.metrics["exact"] =
        core::score_against_truth(located.result.map, located.config).all_cores_correct()
            ? 1.0
            : 0.0;
  };
  return options;
}

void expect_identical(const SurveyResult& a, const SurveyResult& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failed, b.failed);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const InstanceRecord& ra = a.records[i];
    const InstanceRecord& rb = b.records[i];
    EXPECT_EQ(ra.index, rb.index);
    EXPECT_EQ(ra.seed, rb.seed);
    EXPECT_EQ(ra.success, rb.success);
    EXPECT_EQ(ra.map.pattern_key(), rb.map.pattern_key());
    EXPECT_EQ(ra.map.ppin, rb.map.ppin);
    EXPECT_EQ(ra.map.os_core_to_cha, rb.map.os_core_to_cha);
    EXPECT_EQ(ra.metrics, rb.metrics);
  }
  ASSERT_EQ(a.patterns.entries.size(), b.patterns.entries.size());
  EXPECT_EQ(a.patterns.total_instances, b.patterns.total_instances);
  for (std::size_t i = 0; i < a.patterns.entries.size(); ++i) {
    EXPECT_EQ(a.patterns.entries[i].key, b.patterns.entries[i].key);
    EXPECT_EQ(a.patterns.entries[i].count, b.patterns.entries[i].count);
    EXPECT_EQ(a.patterns.entries[i].representative.canonical().render(),
              b.patterns.entries[i].representative.canonical().render());
  }
  ASSERT_EQ(a.id_mappings.entries.size(), b.id_mappings.entries.size());
  for (std::size_t i = 0; i < a.id_mappings.entries.size(); ++i) {
    EXPECT_EQ(a.id_mappings.entries[i].os_core_to_cha,
              b.id_mappings.entries[i].os_core_to_cha);
    EXPECT_EQ(a.id_mappings.entries[i].count, b.id_mappings.entries[i].count);
  }
  EXPECT_EQ(a.metric_totals, b.metric_totals);
}

TEST(FleetDeterminism, ParallelSurveyMatchesSerialReference) {
  const SurveyResult serial = run_survey(sim::XeonModel::k8259CL, options_with_jobs(1));
  const SurveyResult parallel =
      run_survey(sim::XeonModel::k8259CL, options_with_jobs(8));
  ASSERT_EQ(serial.records.size(), static_cast<std::size_t>(kInstances));
  EXPECT_GT(serial.completed, 0);
  expect_identical(serial, parallel);
}

TEST(FleetDeterminism, RepeatedParallelRunsAgree) {
  const SurveyResult first = run_survey(sim::XeonModel::k8259CL, options_with_jobs(8));
  const SurveyResult second = run_survey(sim::XeonModel::k8259CL, options_with_jobs(8));
  expect_identical(first, second);
}

TEST(FleetDeterminism, ResumedParallelSurveyMatchesSerialReference) {
  // Interrupt a parallel survey at 12/32, resume it in parallel, and
  // demand the result still equals the uninterrupted serial reference —
  // scheduling must not leak through the checkpoint cycle either.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("fleet_resume_det_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  fs::remove_all(dir);

  SurveyOptions partial = options_with_jobs(8);
  partial.instances = 12;
  partial.checkpoint_dir = (dir / "ck").string();
  run_survey(sim::XeonModel::k8259CL, partial);

  SurveyOptions rest = options_with_jobs(8);
  rest.checkpoint_dir = (dir / "ck").string();
  rest.resume = true;
  const SurveyResult resumed = run_survey(sim::XeonModel::k8259CL, rest);
  EXPECT_EQ(resumed.resumed, 12);

  const SurveyResult serial = run_survey(sim::XeonModel::k8259CL, options_with_jobs(1));
  expect_identical(serial, resumed);
  fs::remove_all(dir);
}

TEST(FleetDeterminism, SolutionCacheKeepsJobsNEqualToJobs1) {
  // The solution cache rides per-worker copies merged at aggregation:
  // records AND merged cache contents must not depend on the worker
  // count, and the cache must not change the survey's answer at all.
  const SurveyResult plain = run_survey(sim::XeonModel::k8259CL, options_with_jobs(1));

  ilp::SolutionCache serial_cache;
  SurveyOptions serial_options = options_with_jobs(1);
  serial_options.solution_cache = &serial_cache;
  const SurveyResult serial = run_survey(sim::XeonModel::k8259CL, serial_options);

  ilp::SolutionCache parallel_cache;
  SurveyOptions parallel_options = options_with_jobs(8);
  parallel_options.solution_cache = &parallel_cache;
  const SurveyResult parallel = run_survey(sim::XeonModel::k8259CL, parallel_options);

  expect_identical(plain, serial);
  expect_identical(serial, parallel);
  EXPECT_GT(serial_cache.size(), 0u);
  EXPECT_EQ(serial_cache.size(), parallel_cache.size());
}

TEST(FleetDeterminism, SeedDerivesFromIndexOnly) {
  SurveyOptions options;
  options.instances = 5;
  options.jobs = 3;
  options.base_seed = 1000;
  const SurveyResult survey = run_survey(sim::XeonModel::k8124M, options);
  ASSERT_EQ(survey.records.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(survey.records[static_cast<std::size_t>(i)].seed,
              1000u + static_cast<std::uint64_t>(i));
  }
}

TEST(FleetAggregator, MergedStatsEqualSerialCollect) {
  // Feed identical records through 1 bucket and through 4 buckets in a
  // scrambled order: merged statistics must not depend on bucketing.
  SurveyOptions options = options_with_jobs(1);
  options.instances = 12;
  const SurveyResult survey = run_survey(sim::XeonModel::k8175M, options);

  Aggregator one(1);
  Aggregator four(4);
  for (const InstanceRecord& record : survey.records) {
    one.add(0, record);
    four.add(static_cast<std::size_t>((record.index * 7 + 3) % 4), record);
  }
  AggregateResult a = one.merge();
  AggregateResult b = four.merge();
  ASSERT_EQ(a.patterns.entries.size(), b.patterns.entries.size());
  for (std::size_t i = 0; i < a.patterns.entries.size(); ++i) {
    EXPECT_EQ(a.patterns.entries[i].key, b.patterns.entries[i].key);
    EXPECT_EQ(a.patterns.entries[i].count, b.patterns.entries[i].count);
  }
  EXPECT_EQ(a.metric_totals, b.metric_totals);
  EXPECT_EQ(a.completed, b.completed);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].index, b.records[i].index);
  }
}

TEST(FleetSurvey, PerInstanceExceptionBecomesFailedRecord) {
  SurveyOptions options;
  options.instances = 4;
  options.jobs = 2;
  options.analyze = [](const InstanceTask& task, const LocatedInstance&,
                       InstanceRecord&) {
    if (task.index == 2) throw std::runtime_error("analysis exploded");
  };
  const SurveyResult survey = run_survey(sim::XeonModel::k8124M, options);
  ASSERT_EQ(survey.records.size(), 4u);
  EXPECT_FALSE(survey.records[2].success);
  EXPECT_NE(survey.records[2].message.find("analysis exploded"), std::string::npos);
  EXPECT_EQ(survey.failed, 1);
  EXPECT_EQ(survey.completed, 3);
}

}  // namespace
}  // namespace corelocate::fleet
