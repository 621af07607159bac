// Negative-information refinement (the extension beyond the paper):
// maps that the positive-only formulation compresses must be repaired to
// full consistency — and, on instances whose observations determine the
// layout, to the exact ground truth.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/core_map.hpp"
#include "core/pipeline.hpp"
#include "core/refinement.hpp"
#include "serve/loadgen.hpp"

namespace corelocate::core {
namespace {

CoreMap map_from(const MapSolveResult& solved, const sim::InstanceConfig& config) {
  CoreMap map;
  map.rows = config.grid.rows();
  map.cols = config.grid.cols();
  map.cha_position = solved.cha_position;
  map.os_core_to_cha = config.os_core_to_cha;
  map.llc_only_chas = config.llc_only_chas();
  return map;
}

/// The compressible 3x3 instance from the solver tests: the plain solver
/// pulls the bottom core up a row; refinement must push it back.
sim::InstanceConfig compressible_instance() {
  sim::InstanceConfig config;
  config.model = sim::XeonModel::k8124M;
  config.grid = mesh::TileGrid(3, 3);
  for (const mesh::Coord& c : config.grid.all_coords()) {
    config.grid.set_kind(c, mesh::TileKind::kDisabledCore);
  }
  const mesh::Coord tiles[6] = {{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 2}, {2, 1}};
  for (const mesh::Coord& c : tiles) config.grid.set_kind(c, mesh::TileKind::kCore);
  config.cha_tiles = config.grid.cha_coords_column_major();
  for (int cha = 0; cha < config.cha_count(); ++cha) {
    config.os_core_to_cha.push_back(cha);
  }
  return config;
}

TEST(Refinement, RepairsCompressedMicroInstance) {
  const sim::InstanceConfig config = compressible_instance();
  const ObservationSet obs = synthesize_observations(config);
  RefinementOptions options;
  options.grid_rows = 3;
  options.grid_cols = 3;
  const RefinementResult refined = solve_with_refinement(obs, config.cha_count(), options);
  ASSERT_TRUE(refined.solved.success) << refined.solved.message;
  EXPECT_GT(refined.initial_violations, 0);
  EXPECT_EQ(refined.final_violations, 0);
  EXPECT_GT(refined.cuts_added, 0);
  EXPECT_TRUE(score_against_truth(map_from(refined.solved, config), config).exact());
}

TEST(Refinement, NoopOnFullyDeterminedInstance) {
  // A dense SKX instance whose plain solve is already fully consistent.
  sim::InstanceFactory factory;
  util::Rng rng(70);
  const sim::InstanceConfig config = factory.make_instance(sim::XeonModel::k8175M, rng);
  const ObservationSet obs = synthesize_observations(config);
  RefinementOptions options;
  options.grid_rows = config.grid.rows();
  options.grid_cols = config.grid.cols();
  const RefinementResult refined = solve_with_refinement(obs, config.cha_count(), options);
  ASSERT_TRUE(refined.solved.success);
  EXPECT_EQ(refined.final_violations, 0);
  EXPECT_TRUE(
      score_against_truth(map_from(refined.solved, config), config).all_cores_correct());
}

class RefinementIceLakeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RefinementIceLakeSweep, ExactRecoveryOnSparseIceLake) {
  // The headline of the extension: every Ice Lake instance recovers
  // exactly once negative information is used, including seeds where the
  // positive-only solver compresses the map.
  sim::InstanceFactory factory;
  util::Rng rng(GetParam());
  const sim::InstanceConfig config = factory.make_instance(sim::XeonModel::k6354, rng);
  const ObservationSet obs = synthesize_observations(config);
  RefinementOptions options;
  options.grid_rows = config.grid.rows();
  options.grid_cols = config.grid.cols();
  const RefinementResult refined = solve_with_refinement(obs, config.cha_count(), options);
  ASSERT_TRUE(refined.solved.success) << refined.solved.message;
  EXPECT_EQ(refined.final_violations, 0);
  const MapAccuracy acc = score_against_truth(map_from(refined.solved, config), config);
  EXPECT_TRUE(acc.all_cores_correct())
      << acc.core_tiles_correct << "/" << acc.core_tiles_total;
  // LLC-only tiles that few probe routes cross can remain genuinely
  // ambiguous (several placements explain all observations); most pin.
  EXPECT_GE(acc.llc_only_correct, acc.llc_only_total - 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RefinementIceLakeSweep,
                         ::testing::Values(1u, 4u, 6u, 7u, 12u, 18u, 20u));

TEST(Refinement, PipelineEngineEndToEnd) {
  sim::InstanceFactory factory;
  util::Rng rng(71);
  const sim::InstanceConfig config = factory.make_instance(sim::XeonModel::k6354, rng);
  sim::VirtualXeon cpu(config);
  util::Rng tool_rng(72);
  LocateOptions options = options_for(sim::spec_for(sim::XeonModel::k6354));
  options.engine = SolverEngine::kRefined;
  const LocateResult result = locate_cores(cpu, tool_rng, options);
  ASSERT_TRUE(result.success) << result.message;
  EXPECT_NE(result.message.find("negative-information"), std::string::npos);
  const MapAccuracy acc = score_against_truth(result.map, config);
  EXPECT_TRUE(acc.all_cores_correct());
  EXPECT_EQ(acc.llc_only_correct, acc.llc_only_total);
}

TEST(Refinement, ReportsHonestlyWhenItCannotFinish) {
  // A tiny iteration budget must stop early and report remaining
  // violations rather than claim success it did not earn.
  const sim::InstanceConfig config = compressible_instance();
  const ObservationSet obs = synthesize_observations(config);
  RefinementOptions options;
  options.grid_rows = 3;
  options.grid_cols = 3;
  options.max_iterations = 0;
  const RefinementResult refined = solve_with_refinement(obs, config.cha_count(), options);
  ASSERT_TRUE(refined.solved.success);
  EXPECT_EQ(refined.iterations, 0);
  EXPECT_GT(refined.final_violations, 0);
}


TEST(Refinement, FleetSampleFullyExactAcrossModels) {
  // Table II's "+neg-info cuts" column in miniature: a sample of every
  // model's fleet must recover exactly (cores; LLC-only tiles may retain
  // genuine ambiguity on sparse dies).
  sim::InstanceFactory factory;
  for (sim::XeonModel model :
       {sim::XeonModel::k8124M, sim::XeonModel::k8175M, sim::XeonModel::k8259CL}) {
    for (std::uint64_t seed = 30; seed < 36; ++seed) {
      util::Rng rng(seed);
      const sim::InstanceConfig config = factory.make_instance(model, rng);
      const ObservationSet obs = synthesize_observations(config);
      RefinementOptions options;
      options.grid_rows = config.grid.rows();
      options.grid_cols = config.grid.cols();
      const RefinementResult refined =
          solve_with_refinement(obs, config.cha_count(), options);
      ASSERT_TRUE(refined.solved.success) << sim::to_string(model) << " seed " << seed;
      const MapAccuracy acc =
          score_against_truth(map_from(refined.solved, config), config);
      EXPECT_TRUE(acc.all_cores_correct())
          << sim::to_string(model) << " seed " << seed << ": "
          << acc.core_tiles_correct << "/" << acc.core_tiles_total;
      EXPECT_EQ(refined.final_violations, 0)
          << sim::to_string(model) << " seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------
// Trial path vs a full solve. A refinement trial settles one added row
// edge incrementally (columns and nodes kept) or re-runs only the
// direction search for one added column edge (rows kept), and scores the
// map by counting violations. Each must reproduce exactly what a cold
// DecomposedSystem::solve with that edge, and the list-based scan, would
// have said.

constexpr std::uint64_t kTrialClients = 100;

ExtraEdge random_edge(util::Rng& rng, int cha_count) {
  return ExtraEdge{static_cast<int>(rng.below(static_cast<std::uint64_t>(cha_count))),
                   static_cast<int>(rng.below(static_cast<std::uint64_t>(cha_count))),
                   static_cast<int>(rng.below(2))};
}

class RefinementTrialProperty : public ::testing::TestWithParam<sim::XeonModel> {};

TEST_P(RefinementTrialProperty, SingleCutTrialEqualsFullSolve) {
  const sim::ModelSpec& spec = sim::spec_for(GetParam());
  const sim::InstanceFactory factory(sim::InstanceFactory::kDefaultFleetSeed);
  util::Rng rng(0x7121A1 + static_cast<std::uint64_t>(GetParam()));
  DecomposedSolverOptions options;
  options.grid_rows = spec.die.rows;
  options.grid_cols = spec.die.cols;
  int feasible_rows = 0;
  int feasible_cols = 0;
  for (std::uint64_t seed = 0; seed < kTrialClients; ++seed) {
    const serve::MappingRequest client =
        serve::synthesize_client(GetParam(), seed, factory);
    const ObservationSet& obs = *client.observations;
    const DecomposedSystem system(obs, client.cha_count, options);
    const MapSolveResult base = system.solve({}, {});
    ASSERT_TRUE(base.success) << "seed " << seed << ": " << base.message;
    for (int check = 0; check < 4; ++check) {
      const ExtraEdge cut = random_edge(rng, client.cha_count);
      const bool row_cut = check % 2 == 0;
      const MapSolveResult full =
          row_cut ? system.solve({cut}, {}) : system.solve({}, {cut});

      MapSolveResult trial = base;
      if (row_cut) {
        std::vector<int> rows;
        for (const mesh::Coord& pos : base.cha_position) rows.push_back(pos.row);
        trial.success = system.settle_rows_after({cut}, rows);
        for (std::size_t cha = 0; cha < rows.size(); ++cha) {
          trial.cha_position[cha].row = rows[cha];
        }
        feasible_rows += trial.success;
      } else {
        const DecomposedSystem::ColumnSearch search = system.search_columns({cut});
        trial.success = search.columns.has_value();
        trial.nodes = search.nodes;
        for (std::size_t cha = 0; trial.success && cha < search.columns->size(); ++cha) {
          trial.cha_position[cha].col = (*search.columns)[cha];
        }
        feasible_cols += trial.success;
      }
      SCOPED_TRACE(testing::Message()
                   << "seed " << seed << (row_cut ? " row" : " col") << " cut "
                   << cut.from_cha << "->" << cut.to_cha << " w" << cut.weight);
      ASSERT_EQ(trial.success, full.success) << full.message;
      if (!full.success) continue;
      EXPECT_EQ(trial.cha_position, full.cha_position);
      EXPECT_EQ(trial.nodes, full.nodes);
    }
  }
  // The random cuts must exercise both outcomes of both trial kinds.
  EXPECT_GT(feasible_rows, 0);
  EXPECT_LT(feasible_rows, static_cast<int>(2 * kTrialClients));
  EXPECT_GT(feasible_cols, 0);
  EXPECT_LT(feasible_cols, static_cast<int>(2 * kTrialClients));
}

TEST_P(RefinementTrialProperty, CountOnlyScanEqualsListScan) {
  const sim::ModelSpec& spec = sim::spec_for(GetParam());
  const sim::InstanceFactory factory(sim::InstanceFactory::kDefaultFleetSeed);
  util::Rng rng(0xC0C7 + static_cast<std::uint64_t>(GetParam()));
  RefinementOptions options;
  options.grid_rows = spec.die.rows;
  options.grid_cols = spec.die.cols;
  std::size_t nonzero = 0;
  for (std::uint64_t seed = 0; seed < kTrialClients; ++seed) {
    const serve::MappingRequest client =
        serve::synthesize_client(GetParam(), seed, factory);
    const ObservationSet& obs = *client.observations;
    const ViolationScan scan(obs, client.cha_count, options);
    std::vector<mesh::Coord> placement =
        solve_with_refinement(obs, client.cha_count, options).solved.cha_position;
    ASSERT_EQ(placement.size(), static_cast<std::size_t>(client.cha_count));
    for (int round = 0; round < 4; ++round) {
      // The list-and-filter scan refinement used before the count-only one.
      std::vector<ImpliedIngress> listed =
          implied_ingress(placement, obs, options.grid_rows, options.grid_cols);
      std::erase_if(listed, [&obs](const ImpliedIngress& implied) {
        const PathObservation& o = obs[implied.observation];
        return implied.cha == o.source_cha || implied.cha == o.sink_cha ||
               std::any_of(o.activations.begin(), o.activations.end(),
                           [&implied](const ChannelActivation& act) {
                             return act.cha == implied.cha;
                           });
      });
      EXPECT_EQ(scan.count(placement), listed.size()) << "seed " << seed;
      const std::vector<ImpliedIngress> scanned = scan.list(placement);
      ASSERT_EQ(scanned.size(), listed.size()) << "seed " << seed;
      for (std::size_t i = 0; i < listed.size(); ++i) {
        EXPECT_EQ(scanned[i].observation, listed[i].observation);
        EXPECT_EQ(scanned[i].cha, listed[i].cha);
        EXPECT_EQ(scanned[i].label, listed[i].label);
      }
      nonzero += listed.empty() ? 0 : 1;
      // Perturb: move one to three CHAs to random tiles.
      const auto moves = 1 + rng.below(3);
      for (std::uint64_t m = 0; m < moves; ++m) {
        mesh::Coord& pos = placement[rng.below(placement.size())];
        pos.row = static_cast<int>(rng.range(0, options.grid_rows - 1));
        pos.col = static_cast<int>(rng.range(0, options.grid_cols - 1));
      }
    }
  }
  EXPECT_GT(nonzero, kTrialClients);  // perturbed maps are mostly refuted
}

INSTANTIATE_TEST_SUITE_P(Skus, RefinementTrialProperty,
                         ::testing::Values(sim::XeonModel::k8124M,
                                           sim::XeonModel::k8175M,
                                           sim::XeonModel::k8259CL,
                                           sim::XeonModel::k6354),
                         [](const ::testing::TestParamInfo<sim::XeonModel>& sku) {
                           return std::string("m") + serve::model_token(sku.param);
                         });

}  // namespace
}  // namespace corelocate::core
