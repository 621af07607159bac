#include "ilp/model_check.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "core/decomposed_map_solver.hpp"
#include "core/ilp_map_solver.hpp"
#include "core/observation.hpp"
#include "ilp/model.hpp"
#include "mesh/grid.hpp"
#include "sim/instance_factory.hpp"
#include "sim/xeon_config.hpp"
#include "util/rng.hpp"

namespace corelocate::ilp {
namespace {

bool has_check(const ModelCheckReport& report, const std::string& check) {
  return std::any_of(report.defects.begin(), report.defects.end(),
                     [&](const ModelDefect& d) { return d.check == check; });
}

TEST(ModelCheck, CleanModelPasses) {
  Model m;
  const Variable x = m.add_integer(0, 5, "x");
  const Variable y = m.add_binary("y");
  m.add_constraint(LinExpr(x) + 3.0 * LinExpr(y), Sense::kLessEq, 7.0, "cap");
  m.minimize(LinExpr(x) + LinExpr(y));
  const ModelCheckReport report = check_model(m);
  EXPECT_TRUE(report.clean()) << report.summary();
}

TEST(ModelCheck, UnboundedUncoveredVariableIsStructural) {
  Model m;
  const Variable x = m.add_integer(0, 5, "x");
  m.add_integer(0, kInfinity, "orphan");  // no row ever mentions it
  m.add_constraint(LinExpr(x), Sense::kLessEq, 4.0, "cap");
  const ModelCheckReport report = check_model(m);
  EXPECT_TRUE(has_check(report, "unbounded-var")) << report.summary();
  EXPECT_TRUE(report.structural());
  EXPECT_FALSE(report.infeasible());
}

TEST(ModelCheck, BoundedUncoveredVariableIsFine) {
  Model m;
  const Variable x = m.add_integer(0, 5, "x");
  m.add_integer(0, 9, "spare");  // uncovered but finitely boxed
  m.add_constraint(LinExpr(x), Sense::kLessEq, 4.0, "cap");
  EXPECT_TRUE(check_model(m).clean());
}

TEST(ModelCheck, OversizedBigMRowIsStructural) {
  // A direction-gating row whose big-M dwarfs the tile coordinates —
  // the generator bug the paper's bounding boxes invite: M should be
  // the grid width, not 1e9.
  Model m;
  const Variable c_s = m.add_integer(0, 5, "C_s");
  const Variable c_e = m.add_integer(0, 5, "C_e");
  const Variable ne = m.add_binary("NE_p");
  m.add_constraint(LinExpr(c_s) - LinExpr(c_e) + 1e9 * LinExpr(ne),
                   Sense::kLessEq, 1e9 - 1.0, "gate");
  const ModelCheckReport report = check_model(m);
  EXPECT_TRUE(has_check(report, "big-m-ratio")) << report.summary();
  EXPECT_TRUE(report.structural());
}

TEST(ModelCheck, GridSizedBigMIsAccepted) {
  Model m;
  const Variable c_s = m.add_integer(0, 5, "C_s");
  const Variable c_e = m.add_integer(0, 5, "C_e");
  const Variable ne = m.add_binary("NE_p");
  // M = tile-grid width (6): the magnitude the formulation actually needs.
  m.add_constraint(LinExpr(c_s) - LinExpr(c_e) + 6.0 * LinExpr(ne),
                   Sense::kLessEq, 5.0, "gate");
  EXPECT_TRUE(check_model(m).clean());
}

TEST(ModelCheck, DuplicateOneHotIsStructural) {
  Model m;
  const Variable a = m.add_binary("OHR_0_0");
  const Variable b = m.add_binary("OHR_0_1");
  m.add_constraint(LinExpr(a) + LinExpr(b), Sense::kEqual, 1.0, "onehot");
  m.add_constraint(LinExpr(a) + LinExpr(b), Sense::kEqual, 1.0, "onehot-again");
  const ModelCheckReport report = check_model(m);
  EXPECT_TRUE(has_check(report, "duplicate-one-hot")) << report.summary();
  EXPECT_TRUE(report.structural());
  EXPECT_FALSE(report.infeasible());
}

TEST(ModelCheck, ContradictoryOneHotIsInfeasible) {
  Model m;
  const Variable a = m.add_binary("OHR_0_0");
  const Variable b = m.add_binary("OHR_0_1");
  m.add_constraint(LinExpr(a) + LinExpr(b), Sense::kEqual, 1.0, "onehot");
  m.add_constraint(LinExpr(a) + LinExpr(b), Sense::kEqual, 2.0, "onehot-conflict");
  const ModelCheckReport report = check_model(m);
  EXPECT_TRUE(has_check(report, "contradictory-one-hot")) << report.summary();
  EXPECT_TRUE(report.infeasible());
}

TEST(ModelCheck, InfeasibleBoundingBoxIsRejected) {
  // Hand-built mirror of the paper's horizontal bounding boxes with both
  // direction selectors forced active: C_s >= C_e + 3 (eastbound box)
  // and C_e >= C_s + 3 (westbound box) cannot both hold on any grid.
  Model m;
  const Variable c_s = m.add_integer(0, 4, "C_s");
  const Variable c_e = m.add_integer(0, 4, "C_e");
  m.add_constraint(LinExpr(c_s) - LinExpr(c_e), Sense::kGreaterEq, 3.0, "east-box");
  m.add_constraint(LinExpr(c_e) - LinExpr(c_s), Sense::kGreaterEq, 3.0, "west-box");
  const ModelCheckReport report = check_model(m);
  EXPECT_TRUE(has_check(report, "bound-infeasible")) << report.summary();
  EXPECT_TRUE(report.infeasible());
}

TEST(ModelCheck, FeasibleBoundingBoxIsClean) {
  // Same shape, one direction only: propagation tightens but never crosses.
  Model m;
  const Variable c_s = m.add_integer(0, 4, "C_s");
  const Variable c_e = m.add_integer(0, 4, "C_e");
  m.add_constraint(LinExpr(c_s) - LinExpr(c_e), Sense::kGreaterEq, 3.0, "east-box");
  EXPECT_TRUE(check_model(m).clean());
}

TEST(ModelCheck, IntegerRoundingProvesInfeasibility) {
  // LP-feasible (x = 1.5 works) but integrally empty: 2x <= 3 forces the
  // integer x down to 1 while x >= 2 pushes it up. Only a validator that
  // rounds propagated bounds to integrality catches this.
  Model m;
  const Variable x = m.add_integer(0, 5, "x");
  m.add_constraint(2.0 * LinExpr(x), Sense::kLessEq, 3.0, "cap");
  m.add_constraint(LinExpr(x), Sense::kGreaterEq, 2.0, "floor");
  const ModelCheckReport report = check_model(m);
  EXPECT_TRUE(has_check(report, "bound-infeasible")) << report.summary();
}

TEST(ModelCheck, EqualityPropagatesBothDirections) {
  Model m;
  const Variable x = m.add_integer(0, 10, "x");
  const Variable y = m.add_integer(0, 2, "y");
  m.add_constraint(LinExpr(x) - LinExpr(y), Sense::kEqual, 0.0, "tie");
  m.add_constraint(LinExpr(x), Sense::kGreaterEq, 5.0, "floor");
  const ModelCheckReport report = check_model(m);
  // x = y <= 2 contradicts x >= 5.
  EXPECT_TRUE(has_check(report, "bound-infeasible")) << report.summary();
}

TEST(ModelCheck, SummaryNamesEveryDefect) {
  Model m;
  m.add_integer(0, kInfinity, "orphan");
  const Variable x = m.add_integer(0, 4, "x");
  m.add_constraint(LinExpr(x), Sense::kGreaterEq, 9.0, "impossible");
  const ModelCheckReport report = check_model(m);
  ASSERT_FALSE(report.clean());
  const std::string summary = report.summary();
  EXPECT_NE(summary.find("unbounded-var"), std::string::npos) << summary;
  EXPECT_NE(summary.find("bound-infeasible"), std::string::npos) << summary;
}

// ---------------------------------------------------------------------------
// Solver wiring: the validate_model switch must run even in release
// builds when forced on, and must not reject the generated formulations.
// ---------------------------------------------------------------------------

sim::InstanceConfig micro_instance() {
  sim::InstanceConfig config;
  config.model = sim::XeonModel::k8124M;
  config.grid = mesh::TileGrid(3, 3);
  for (const mesh::Coord& c : config.grid.all_coords()) {
    config.grid.set_kind(c, mesh::TileKind::kDisabledCore);
  }
  const mesh::Coord tiles[7] = {{0, 0}, {0, 1}, {0, 2}, {1, 0},
                                {1, 2}, {2, 0}, {2, 1}};
  for (const mesh::Coord& c : tiles) config.grid.set_kind(c, mesh::TileKind::kCore);
  config.cha_tiles = config.grid.cha_coords_column_major();
  std::vector<int> core_chas;
  for (int cha = 0; cha < config.cha_count(); ++cha) core_chas.push_back(cha);
  config.os_core_to_cha = core_chas;
  return config;
}

TEST(ModelCheckWiring, IlpSolverValidatesAndStillSolves) {
  const sim::InstanceConfig config = micro_instance();
  const core::ObservationSet obs = core::synthesize_observations(config);
  core::IlpMapSolverOptions options;
  options.grid_rows = 3;
  options.grid_cols = 3;
  options.validate_model = true;  // force on regardless of NDEBUG
  const core::MapSolveResult solved =
      core::IlpMapSolver(options).solve(obs, config.cha_count());
  EXPECT_TRUE(solved.success) << solved.message;
}

TEST(ModelCheckWiring, DecomposedSolverCrossCheckAgrees) {
  const sim::InstanceConfig config = micro_instance();
  const core::ObservationSet obs = core::synthesize_observations(config);
  core::DecomposedSolverOptions options;
  options.grid_rows = 3;
  options.grid_cols = 3;
  options.validate_model = true;  // mirror-model cross-check on
  const core::MapSolveResult solved =
      core::DecomposedMapSolver(options).solve(obs, config.cha_count());
  EXPECT_TRUE(solved.success) << solved.message;
}

/// Both indicator formulations of the map MILP validate clean for
/// `config`, built from up to `max_observations` observations (0: all).
void expect_formulations_clean(const sim::InstanceConfig& config,
                               int max_observations) {
  const core::ObservationSet obs = core::synthesize_observations(config);
  for (const bool disaggregated : {true, false}) {
    core::IlpMapSolverOptions options;
    options.grid_rows = config.grid.rows();
    options.grid_cols = config.grid.cols();
    options.disaggregated_indicators = disaggregated;
    options.max_observations = max_observations;
    const Model milp =
        core::IlpMapSolver(options).build_model(obs, config.cha_count());
    const ModelCheckReport report = check_model(milp);
    EXPECT_TRUE(report.clean())
        << sim::spec_for(config.model).name
        << (disaggregated ? " disaggregated: " : " aggregated: ") << report.summary();
  }
}

TEST(ModelCheckWiring, GeneratedFormulationsAreClean) {
  expect_formulations_clean(micro_instance(), 0);
  // The four paper SKUs. A capped observation subset exercises every
  // constraint family; shape defects do not hide in the tail.
  const sim::InstanceFactory factory;
  for (const sim::XeonModel model : sim::all_models()) {
    util::Rng rng(0xC0DE11ULL + static_cast<std::uint64_t>(model));
    expect_formulations_clean(factory.make_instance(model, rng), 48);
  }
}

}  // namespace
}  // namespace corelocate::ilp
