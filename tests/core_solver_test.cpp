#include <gtest/gtest.h>

#include "core/core_map.hpp"
#include "core/decomposed_map_solver.hpp"
#include "core/ilp_map_solver.hpp"
#include "core/map_solver.hpp"

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

// ---------------------------------------------------------------------------
// Hand-built micro-instance: a 3x3 die, 5 cores, one disabled tile in the
// middle (the paper's Fig. 2 situation, scaled down).
// ---------------------------------------------------------------------------

sim::InstanceConfig micro_instance() {
  sim::InstanceConfig config;
  config.model = sim::XeonModel::k8124M;  // irrelevant for solver tests
  config.grid = mesh::TileGrid(3, 3);
  // Layout:   core core core
  //           core DIS  core      (the paper's Fig. 2 situation: a
  //           core core DIS        disabled tile hides route segments)
  // Dense enough that the observations pin every position exactly.
  for (const mesh::Coord& c : config.grid.all_coords()) {
    config.grid.set_kind(c, mesh::TileKind::kDisabledCore);
  }
  const mesh::Coord tiles[7] = {{0, 0}, {0, 1}, {0, 2}, {1, 0},
                                {1, 2}, {2, 0}, {2, 1}};
  for (const mesh::Coord& c : tiles) config.grid.set_kind(c, mesh::TileKind::kCore);
  config.cha_tiles = config.grid.cha_coords_column_major();
  std::vector<int> core_chas;
  for (int cha = 0; cha < config.cha_count(); ++cha) core_chas.push_back(cha);
  config.os_core_to_cha = core_chas;  // ascending for simplicity
  return config;
}

/// A deliberately sparse instance where partial observability leaves the
/// tightest packing different from the ground truth: the only path
/// evidence about the bottom core passes through invisible tiles.
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
  std::vector<int> core_chas;
  for (int cha = 0; cha < config.cha_count(); ++cha) core_chas.push_back(cha);
  config.os_core_to_cha = core_chas;
  return config;
}

TEST(DecomposedSolver, RecoversMicroInstance) {
  const sim::InstanceConfig config = micro_instance();
  const ObservationSet obs = synthesize_observations(config);
  DecomposedSolverOptions options;
  options.grid_rows = 3;
  options.grid_cols = 3;
  const MapSolveResult solved = DecomposedMapSolver(options).solve(obs, config.cha_count());
  ASSERT_TRUE(solved.success) << solved.message;
  EXPECT_TRUE(score_against_truth(map_from(solved, config), config).exact());
}

TEST(IlpSolver, RecoversMicroInstancePaperObjective) {
  const sim::InstanceConfig config = micro_instance();
  const ObservationSet obs = synthesize_observations(config);
  IlpMapSolverOptions options;
  options.grid_rows = 3;
  options.grid_cols = 3;
  options.objective = IlpObjective::kPaperIndicators;
  const MapSolveResult solved = IlpMapSolver(options).solve(obs, config.cha_count());
  ASSERT_TRUE(solved.success) << solved.message;
  EXPECT_TRUE(score_against_truth(map_from(solved, config), config).exact());
}

TEST(IlpSolver, LiteralBigMIndicatorVariantAgrees) {
  const sim::InstanceConfig config = micro_instance();
  const ObservationSet obs = synthesize_observations(config);
  IlpMapSolverOptions options;
  options.grid_rows = 3;
  options.grid_cols = 3;
  options.objective = IlpObjective::kPaperIndicators;
  options.disaggregated_indicators = false;  // the paper's literal big-M form
  const MapSolveResult solved = IlpMapSolver(options).solve(obs, config.cha_count());
  ASSERT_TRUE(solved.success) << solved.message;
  EXPECT_TRUE(score_against_truth(map_from(solved, config), config).exact());
}

TEST(IlpSolver, CompactObjectiveAgrees) {
  const sim::InstanceConfig config = micro_instance();
  const ObservationSet obs = synthesize_observations(config);
  IlpMapSolverOptions options;
  options.grid_rows = 3;
  options.grid_cols = 3;
  options.objective = IlpObjective::kCompactSum;
  const MapSolveResult solved = IlpMapSolver(options).solve(obs, config.cha_count());
  ASSERT_TRUE(solved.success) << solved.message;
  EXPECT_TRUE(score_against_truth(map_from(solved, config), config).exact());
}

TEST(Solvers, RejectInvalidObservations) {
  PathObservation bad;
  bad.source_cha = 0;
  bad.sink_cha = 0;
  EXPECT_FALSE(DecomposedMapSolver().solve({bad}, 2).success);
  EXPECT_FALSE(IlpMapSolver().solve({bad}, 2).success);
}

TEST(Solvers, EmptyObservationsYieldDegenerateMap) {
  // No constraints: everything packs at the origin; success, not a crash.
  const MapSolveResult solved = DecomposedMapSolver().solve({}, 3);
  ASSERT_TRUE(solved.success);
  for (const mesh::Coord& pos : solved.cha_position) {
    EXPECT_EQ(pos, (mesh::Coord{0, 0}));
  }
}

TEST(DecomposedSolver, ExtraEdgeNamingAnUnknownChaThrows) {
  const DecomposedSystem system({}, 3, DecomposedSolverOptions{});
  for (const ExtraEdge& edge : {ExtraEdge{0, 3, 1}, ExtraEdge{-1, 0, 1}}) {
    EXPECT_THROW(system.solve({edge}, {}), std::invalid_argument);
    EXPECT_THROW(system.solve({}, {edge}), std::invalid_argument);
  }
}

TEST(DecomposedSolver, InconsistentRowsRejected) {
  // cha1 claims to be both above and below cha0.
  PathObservation up;
  up.source_cha = 0;
  up.sink_cha = 1;
  up.activations = {{1, mesh::ChannelLabel::kUp, 100}};
  PathObservation up2;
  up2.source_cha = 1;
  up2.sink_cha = 0;
  up2.activations = {{0, mesh::ChannelLabel::kUp, 100}};
  PathObservation down;  // contradicts up: 0 -> 1 travelling down
  down.source_cha = 0;
  down.sink_cha = 1;
  down.activations = {{1, mesh::ChannelLabel::kDown, 100}};
  const MapSolveResult solved = DecomposedMapSolver().solve({up, down}, 2);
  EXPECT_FALSE(solved.success);
}

TEST(DecomposedSolver, GridBoundViolationRejected) {
  // A chain of 4 strictly increasing rows cannot fit a 3-row grid.
  ObservationSet obs;
  for (int i = 0; i < 3; ++i) {
    PathObservation o;
    o.source_cha = i;
    o.sink_cha = i + 1;
    o.activations = {{i + 1, mesh::ChannelLabel::kDown, 100}};
    obs.push_back(o);
  }
  DecomposedSolverOptions options;
  options.grid_rows = 3;
  options.grid_cols = 3;
  EXPECT_FALSE(DecomposedMapSolver(options).solve(obs, 4).success);
}

TEST(DecomposedSolver, CompressionIsDetectableViaNegativeConsistency) {
  // Paper Sec. II-D failure mode: with the bottom core's row evidence
  // hidden behind disabled tiles, the tightest packing compresses the map.
  // The solution still explains every *observed* activation (positive
  // consistency) but implies activations that were never seen — the
  // negative information the formulation does not use.
  const sim::InstanceConfig config = compressible_instance();
  const ObservationSet obs = synthesize_observations(config);
  DecomposedSolverOptions options;
  options.grid_rows = 3;
  options.grid_cols = 3;
  const MapSolveResult solved = DecomposedMapSolver(options).solve(obs, config.cha_count());
  ASSERT_TRUE(solved.success) << solved.message;
  const MapAccuracy acc = score_against_truth(map_from(solved, config), config);
  EXPECT_FALSE(acc.all_cores_correct());  // compressed: cha3 pulled up a row
  const ConsistencyReport report =
      check_consistency(solved.cha_position, obs, 3, 3);
  EXPECT_EQ(report.positive_violations, 0);
  EXPECT_GT(report.negative_violations, 0);
}

TEST(DecomposedSolver, ExactRecoveryIsFullyConsistent) {
  const sim::InstanceConfig config = micro_instance();
  const ObservationSet obs = synthesize_observations(config);
  DecomposedSolverOptions options;
  options.grid_rows = 3;
  options.grid_cols = 3;
  const MapSolveResult solved = DecomposedMapSolver(options).solve(obs, config.cha_count());
  ASSERT_TRUE(solved.success);
  EXPECT_TRUE(check_consistency(solved.cha_position, obs, 3, 3).fully_consistent());
}

// ---------------------------------------------------------------------------
// Cross-engine sweep over synthesized instances of every model.
// ---------------------------------------------------------------------------

struct SolverCase {
  sim::XeonModel model;
  std::uint64_t seed;
};

class SolverSweep : public ::testing::TestWithParam<SolverCase> {};

TEST_P(SolverSweep, DecomposedRecoversGroundTruthFromIdealObservations) {
  const SolverCase param = GetParam();
  sim::InstanceFactory factory;
  util::Rng rng(param.seed);
  const sim::InstanceConfig config = factory.make_instance(param.model, rng);
  const ObservationSet obs = synthesize_observations(config);
  DecomposedSolverOptions options;
  options.grid_rows = config.grid.rows();
  options.grid_cols = config.grid.cols();
  const MapSolveResult solved =
      DecomposedMapSolver(options).solve(obs, config.cha_count());
  ASSERT_TRUE(solved.success) << solved.message;
  const MapAccuracy acc = score_against_truth(map_from(solved, config), config);
  EXPECT_TRUE(acc.all_cores_correct())
      << acc.core_tiles_correct << "/" << acc.core_tiles_total;
  // The solution must explain every observed activation.
  const ConsistencyReport report = check_consistency(
      solved.cha_position, obs, config.grid.rows(), config.grid.cols());
  EXPECT_EQ(report.positive_violations, 0);
  if (param.model != sim::XeonModel::k6354) {
    // Dense SKX/CLX dies pin the LLC-only tiles too (they show up as
    // observed intermediates on many routes). The sparse Ice Lake die can
    // leave some LLC-only tiles underdetermined.
    EXPECT_EQ(acc.llc_only_correct, acc.llc_only_total);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndSeeds, SolverSweep,
    ::testing::Values(SolverCase{sim::XeonModel::k8124M, 1},
                      SolverCase{sim::XeonModel::k8124M, 2},
                      SolverCase{sim::XeonModel::k8124M, 3},
                      SolverCase{sim::XeonModel::k8175M, 1},
                      SolverCase{sim::XeonModel::k8175M, 2},
                      SolverCase{sim::XeonModel::k8259CL, 1},
                      SolverCase{sim::XeonModel::k8259CL, 2},
                      SolverCase{sim::XeonModel::k8259CL, 3},
                      // Sparse Ice Lake dies recover exactly only when the
                      // fuse-out pattern leaves enough visible structure;
                      // these seeds do (the fig5 bench reports the fleet
                      // distribution).
                      SolverCase{sim::XeonModel::k6354, 3},
                      SolverCase{sim::XeonModel::k6354, 9}),
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

TEST(IlpSolver, CoverageCappedIlpMatchesTruthOn8124M) {
  // The faithful MILP at fleet scale, with coverage-balanced observation
  // selection (40 probes of 306).
  sim::InstanceFactory factory;
  util::Rng rng(77);
  const sim::InstanceConfig config = factory.make_instance(sim::XeonModel::k8124M, rng);
  const ObservationSet obs = synthesize_observations(config);
  IlpMapSolverOptions options;
  options.grid_rows = config.grid.rows();
  options.grid_cols = config.grid.cols();
  options.objective = IlpObjective::kCompactSum;
  options.max_observations = 40;
  const MapSolveResult solved = IlpMapSolver(options).solve(obs, config.cha_count());
  ASSERT_TRUE(solved.success) << solved.message;
  const MapAccuracy acc = score_against_truth(map_from(solved, config), config);
  EXPECT_TRUE(acc.all_cores_correct())
      << acc.core_tiles_correct << "/" << acc.core_tiles_total;
}

TEST(Solvers, EnginesAgreeOnMicroInstance) {
  const sim::InstanceConfig config = micro_instance();
  const ObservationSet obs = synthesize_observations(config);
  DecomposedSolverOptions dec;
  dec.grid_rows = 3;
  dec.grid_cols = 3;
  IlpMapSolverOptions ilp;
  ilp.grid_rows = 3;
  ilp.grid_cols = 3;
  const MapSolveResult a = DecomposedMapSolver(dec).solve(obs, config.cha_count());
  const MapSolveResult b = IlpMapSolver(ilp).solve(obs, config.cha_count());
  ASSERT_TRUE(a.success);
  ASSERT_TRUE(b.success);
  const MapAccuracy accA = score_against_truth(map_from(a, config), config);
  const MapAccuracy accB = score_against_truth(map_from(b, config), config);
  EXPECT_TRUE(accA.exact());
  EXPECT_TRUE(accB.exact());
}

TEST(MapSolver, EngineTokensRoundTrip) {
  // tests/CMakeLists.txt runs quickstart once per token: keep both lists
  // in step.
  EXPECT_EQ(engine_tokens(), "decomposed|ilp|refined");
  for (const SolverEngine engine : kSolverEngines) {
    SolverEngine parsed = engine == SolverEngine::kIlp ? SolverEngine::kRefined
                                                       : SolverEngine::kIlp;
    ASSERT_TRUE(parse_engine_token(engine_token(engine), parsed));
    EXPECT_EQ(parsed, engine);
  }
  SolverEngine untouched = SolverEngine::kIlp;
  EXPECT_FALSE(parse_engine_token("refinement", untouched));
  EXPECT_EQ(untouched, SolverEngine::kIlp);
}

}  // namespace
}  // namespace corelocate::core
