// End-to-end integration: the full locate_cores() pipeline against the
// virtual machine, across models, seeds, noise and solver engines.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <tuple>

#include "core/pattern_stats.hpp"
#include "core/pipeline.hpp"

namespace corelocate::core {
namespace {

/// gtest prints a param it cannot format as its raw bytes, and ctest names
/// each case after that dump. The bytes after `model` are a member rather
/// than padding so that copies keep them zero and the case names stay the
/// same from run to run.
struct PipelineCase {
  PipelineCase(sim::XeonModel model_in, std::uint64_t seed_in)
      : model(model_in), seed(seed_in) {}

  sim::XeonModel model;
  std::array<std::uint8_t, 7> zero{};
  std::uint64_t seed;
};
static_assert(sizeof(PipelineCase) == 16, "PipelineCase must have no padding");

class PipelineSweep : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(PipelineSweep, RecoversGroundTruth) {
  const PipelineCase param = GetParam();
  sim::InstanceFactory factory;
  util::Rng rng(param.seed);
  const sim::InstanceConfig config = factory.make_instance(param.model, rng);
  sim::VirtualXeon cpu(config);
  util::Rng tool_rng(param.seed ^ 0xABCDEF);
  const LocateOptions options = options_for(sim::spec_for(param.model));
  const LocateResult result = locate_cores(cpu, tool_rng, options);
  ASSERT_TRUE(result.success) << result.message;

  // Step 1 exact.
  EXPECT_EQ(result.cha_mapping.os_core_to_cha, config.os_core_to_cha);
  // PPIN identifies the instance.
  EXPECT_EQ(result.map.ppin, config.ppin);
  // Core positions exact (mod translation + mirror).
  const MapAccuracy acc = score_against_truth(result.map, config);
  EXPECT_TRUE(acc.all_cores_correct())
      << acc.core_tiles_correct << "/" << acc.core_tiles_total;
  if (param.model != sim::XeonModel::k6354) {
    // Sparse Ice Lake dies can leave LLC-only tiles underdetermined.
    EXPECT_EQ(acc.llc_only_correct, acc.llc_only_total);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndSeeds, PipelineSweep,
    ::testing::Values(PipelineCase(sim::XeonModel::k8124M, 10),
                      PipelineCase(sim::XeonModel::k8124M, 11),
                      PipelineCase(sim::XeonModel::k8175M, 10),
                      PipelineCase(sim::XeonModel::k8259CL, 10),
                      PipelineCase(sim::XeonModel::k8259CL, 11),
                      PipelineCase(sim::XeonModel::k6354, 10)),
    [](const auto& suite_info) {
      const char* name = "unknown";
      switch (suite_info.param.model) {
        case sim::XeonModel::k8124M: name = "m8124M"; break;
        case sim::XeonModel::k8175M: name = "m8175M"; break;
        case sim::XeonModel::k8259CL: name = "m8259CL"; break;
        case sim::XeonModel::k6354: name = "m6354"; break;
      }
      return std::string(name) + "_s" + std::to_string(suite_info.param.seed);
    });

TEST(Pipeline, SurvivesBackgroundNoise) {
  sim::NoiseProfile noise;
  noise.mesh_event_rate = 0.005;
  noise.lookup_event_rate = 0.01;
  sim::InstanceFactory factory;
  util::Rng rng(55);
  const sim::InstanceConfig config = factory.make_instance(sim::XeonModel::k8124M, rng);
  sim::VirtualXeon cpu(config, noise);
  util::Rng tool_rng(56);
  const LocateResult result =
      locate_cores(cpu, tool_rng, options_for(sim::spec_for(sim::XeonModel::k8124M)));
  ASSERT_TRUE(result.success) << result.message;
  EXPECT_TRUE(score_against_truth(result.map, config).all_cores_correct());
}

TEST(Pipeline, IlpEngineEndToEnd) {
  sim::InstanceFactory factory;
  util::Rng rng(57);
  const sim::InstanceConfig config = factory.make_instance(sim::XeonModel::k8124M, rng);
  sim::VirtualXeon cpu(config);
  util::Rng tool_rng(58);
  LocateOptions options = options_for(sim::spec_for(sim::XeonModel::k8124M));
  options.engine = SolverEngine::kIlp;
  options.ilp.objective = IlpObjective::kCompactSum;
  options.ilp.max_observations = 40;
  const LocateResult result = locate_cores(cpu, tool_rng, options);
  ASSERT_TRUE(result.success) << result.message;
  EXPECT_TRUE(score_against_truth(result.map, config).all_cores_correct());
}

TEST(Pipeline, ObservationsAreValid) {
  sim::InstanceFactory factory;
  util::Rng rng(59);
  const sim::InstanceConfig config = factory.make_instance(sim::XeonModel::k8175M, rng);
  sim::VirtualXeon cpu(config);
  util::Rng tool_rng(60);
  const LocateResult result =
      locate_cores(cpu, tool_rng, options_for(sim::spec_for(sim::XeonModel::k8175M)));
  ASSERT_TRUE(result.success);
  EXPECT_EQ(validate_observations(result.observations, cpu.cha_count()), "");
  const int cores = cpu.os_core_count();
  EXPECT_EQ(result.observations.size(), static_cast<std::size_t>(cores) * (cores - 1));
}

TEST(Pipeline, MeasuredObservationsMatchSynthesizedOracle) {
  // The PMON-measured observation set must equal what the routing oracle
  // predicts (same activations, modulo cycle counts).
  sim::InstanceFactory factory;
  util::Rng rng(61);
  const sim::InstanceConfig config = factory.make_instance(sim::XeonModel::k8124M, rng);
  sim::VirtualXeon cpu(config);
  util::Rng tool_rng(62);
  const LocateResult result =
      locate_cores(cpu, tool_rng, options_for(sim::spec_for(sim::XeonModel::k8124M)));
  ASSERT_TRUE(result.success);

  const ObservationSet oracle = synthesize_observations(config);
  ASSERT_EQ(result.observations.size(), oracle.size());
  auto key = [](const PathObservation& obs) {
    std::vector<std::pair<int, int>> acts;
    for (const ChannelActivation& act : obs.activations) {
      acts.emplace_back(act.cha, static_cast<int>(act.label));
    }
    std::sort(acts.begin(), acts.end());
    return std::make_tuple(obs.source_cha, obs.sink_cha, acts);
  };
  std::vector<decltype(key(oracle[0]))> measured_keys;
  std::vector<decltype(key(oracle[0]))> oracle_keys;
  for (const PathObservation& obs : result.observations) measured_keys.push_back(key(obs));
  for (const PathObservation& obs : oracle) oracle_keys.push_back(key(obs));
  std::sort(measured_keys.begin(), measured_keys.end());
  std::sort(oracle_keys.begin(), oracle_keys.end());
  EXPECT_EQ(measured_keys, oracle_keys);
}

TEST(Pipeline, TimingsAreRecorded) {
  sim::InstanceFactory factory;
  util::Rng rng(63);
  const sim::InstanceConfig config = factory.make_instance(sim::XeonModel::k8124M, rng);
  sim::VirtualXeon cpu(config);
  util::Rng tool_rng(64);
  const LocateResult result =
      locate_cores(cpu, tool_rng, options_for(sim::spec_for(sim::XeonModel::k8124M)));
  ASSERT_TRUE(result.success);
  EXPECT_GT(result.step1_seconds, 0.0);
  EXPECT_GT(result.step2_seconds, 0.0);
  EXPECT_GE(result.step3_seconds, 0.0);
}

TEST(PatternStats, CountsAndSorts) {
  sim::InstanceFactory factory;
  util::Rng rng(65);
  std::vector<CoreMap> maps;
  for (int i = 0; i < 30; ++i) {
    maps.push_back(truth_map(factory.make_instance(sim::XeonModel::k8124M, rng)));
  }
  const PatternStats stats = collect_pattern_stats(maps);
  EXPECT_EQ(stats.total_instances, 30);
  EXPECT_GE(stats.unique_patterns(), 2);
  int sum = 0;
  int prev = stats.entries.front().count;
  for (const auto& entry : stats.entries) {
    EXPECT_LE(entry.count, prev);
    prev = entry.count;
    sum += entry.count;
  }
  EXPECT_EQ(sum, 30);
  EXPECT_LE(static_cast<int>(stats.top(4).size()), 4);
}

TEST(PatternStats, IncrementalAddAndMergeEqualCollect) {
  sim::InstanceFactory factory;
  util::Rng rng(66);
  std::vector<CoreMap> maps;
  for (int i = 0; i < 24; ++i) {
    maps.push_back(truth_map(factory.make_instance(sim::XeonModel::k8259CL, rng)));
  }
  const PatternStats whole = collect_pattern_stats(maps);

  PatternStats left, right;
  for (std::size_t i = 0; i < maps.size(); ++i) {
    ((i % 3 == 0) ? left : right).add(maps[i]);
  }
  left.merge(right);
  EXPECT_EQ(left.total_instances, whole.total_instances);
  ASSERT_EQ(left.entries.size(), whole.entries.size());
  for (std::size_t i = 0; i < left.entries.size(); ++i) {
    EXPECT_EQ(left.entries[i].key, whole.entries[i].key);
    EXPECT_EQ(left.entries[i].count, whole.entries[i].count);
    // Ties are broken by key, so entry order is a pure function of the
    // multiset of maps — the property the parallel fleet engine relies on.
  }
}

TEST(IdMappingStats, MergeEqualsCollect) {
  const std::vector<std::vector<int>> mappings{{0, 1}, {1, 0}, {0, 1}, {2, 1}, {1, 0}};
  const IdMappingStats whole = collect_id_mapping_stats(mappings);
  IdMappingStats a, b;
  a.add(mappings[0]);
  a.add(mappings[1]);
  b.add(mappings[2]);
  b.add(mappings[3]);
  b.add(mappings[4]);
  a.merge(b);
  EXPECT_EQ(a.total_instances, whole.total_instances);
  ASSERT_EQ(a.entries.size(), whole.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].os_core_to_cha, whole.entries[i].os_core_to_cha);
    EXPECT_EQ(a.entries[i].count, whole.entries[i].count);
  }
}

TEST(IdMappingStats, GroupsIdenticalMappings) {
  const std::vector<std::vector<int>> mappings{{0, 1}, {1, 0}, {0, 1}, {0, 1}};
  const IdMappingStats stats = collect_id_mapping_stats(mappings);
  EXPECT_EQ(stats.total_instances, 4);
  EXPECT_EQ(stats.unique_mappings(), 2);
  EXPECT_EQ(stats.entries.front().count, 3);
  EXPECT_EQ(stats.entries.front().os_core_to_cha, (std::vector<int>{0, 1}));
}

}  // namespace
}  // namespace corelocate::core
