// Golden solver-layer trace: pins what step 3 returns, field for field,
// on 25 synthesized clients per SKU.
//
// For each SKU the test FNV-1a-hashes the refined engine's result
// (positions, message, nodes, iterations, cuts and violation counts),
// the decomposed engine's result, and check_consistency's positive and
// negative counts for the decomposed maps (6354 maps are refuted, so
// the negative path is covered). The constants were recorded before the
// consistency walk was shared between refinement's violation scan and
// check_consistency, so any change to either must reproduce exactly the
// same solves and verdicts. The remaining tests pin core::MapSolver to
// the direct engine calls it dispatches to.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "core/map_solver.hpp"
#include "core/refinement.hpp"
#include "serve/loadgen.hpp"

namespace corelocate::core {
namespace {

constexpr std::uint64_t kSeeds = 25;

class Fnv {
 public:
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      state_ ^= (value >> (8 * i)) & 0xFF;
      state_ *= 0x100000001B3ULL;
    }
  }
  void add_int(std::int64_t value) { add(static_cast<std::uint64_t>(value)); }
  void add_text(const std::string& text) {
    add(text.size());
    for (const char c : text) add(static_cast<unsigned char>(c));
  }
  void add_solve(const MapSolveResult& solved) {
    add(solved.success ? 1 : 0);
    add_text(solved.message);
    add_int(solved.nodes);
    add(solved.cha_position.size());
    for (const mesh::Coord& pos : solved.cha_position) {
      add_int(pos.row);
      add_int(pos.col);
    }
  }
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xCBF29CE484222325ULL;
};

std::string hex(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(value));
  return buf;
}

serve::MappingRequest client(sim::XeonModel model, std::uint64_t seed) {
  static const sim::InstanceFactory factory(sim::InstanceFactory::kDefaultFleetSeed);
  return serve::synthesize_client(model, seed, factory);
}

struct SolverDigests {
  std::uint64_t refined = 0;
  std::uint64_t decomposed = 0;
  std::uint64_t consistency = 0;
  int refuted = 0;  ///< decomposed maps check_consistency refutes
};

SolverDigests run_solvers(sim::XeonModel model) {
  const sim::ModelSpec& spec = sim::spec_for(model);
  Fnv refined_fnv;
  Fnv decomposed_fnv;
  Fnv consistency_fnv;
  SolverDigests d;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const serve::MappingRequest request = client(model, seed);
    const ObservationSet& obs = *request.observations;

    RefinementOptions refine_options;
    refine_options.grid_rows = spec.die.rows;
    refine_options.grid_cols = spec.die.cols;
    const RefinementResult refined =
        solve_with_refinement(obs, request.cha_count, refine_options);
    refined_fnv.add_solve(refined.solved);
    refined_fnv.add_int(refined.iterations);
    refined_fnv.add_int(refined.cuts_added);
    refined_fnv.add_int(refined.initial_violations);
    refined_fnv.add_int(refined.final_violations);

    DecomposedSolverOptions decomposed_options;
    decomposed_options.grid_rows = spec.die.rows;
    decomposed_options.grid_cols = spec.die.cols;
    const MapSolveResult decomposed =
        DecomposedMapSolver(decomposed_options).solve(obs, request.cha_count);
    decomposed_fnv.add_solve(decomposed);

    const ConsistencyReport report =
        check_consistency(decomposed.cha_position, obs, spec.die.rows, spec.die.cols);
    consistency_fnv.add_int(report.positive_violations);
    consistency_fnv.add_int(report.negative_violations);
    d.refuted += report.fully_consistent() ? 0 : 1;
  }
  d.refined = refined_fnv.value();
  d.decomposed = decomposed_fnv.value();
  d.consistency = consistency_fnv.value();
  return d;
}

void expect_digests(const SolverDigests& got, const SolverDigests& want) {
  EXPECT_EQ(hex(got.refined), hex(want.refined)) << "refined results";
  EXPECT_EQ(hex(got.decomposed), hex(want.decomposed)) << "decomposed results";
  EXPECT_EQ(hex(got.consistency), hex(want.consistency)) << "consistency counts";
  EXPECT_EQ(got.refuted, want.refuted) << "refuted decomposed maps";
}

TEST(SolverGolden, Xeon8124M) {
  expect_digests(run_solvers(sim::XeonModel::k8124M),
                 {0x0241D28E3D9BD453ULL, 0x719C4565717A7253ULL,
                  0x2C1B93DAAFB34265ULL, 0});
}

TEST(SolverGolden, Xeon8175M) {
  expect_digests(run_solvers(sim::XeonModel::k8175M),
                 {0x40BAAFD2B629815DULL, 0xFF2532E7E4C2F9DDULL,
                  0x2C1B93DAAFB34265ULL, 0});
}

TEST(SolverGolden, Xeon8259CL) {
  expect_digests(run_solvers(sim::XeonModel::k8259CL),
                 {0xDCF9968E98B8E27DULL, 0xB2181B78D6F98AFDULL,
                  0x2C1B93DAAFB34265ULL, 0});
}

TEST(SolverGolden, Xeon6354) {
  expect_digests(run_solvers(sim::XeonModel::k6354),
                 {0x67E7F95191D18FB4ULL, 0x1DF50F66F6D2A838ULL,
                  0x74441B5A7D256893ULL, 25});
}

void expect_same_solve(const MapSolveResult& facade, const MapSolveResult& direct) {
  EXPECT_EQ(facade.success, direct.success);
  EXPECT_EQ(facade.message, direct.message);
  EXPECT_EQ(facade.cha_position, direct.cha_position);
  EXPECT_EQ(facade.nodes, direct.nodes);
  EXPECT_EQ(facade.lp_iterations, direct.lp_iterations);
  EXPECT_EQ(facade.nodes_pruned, direct.nodes_pruned);
  EXPECT_EQ(facade.lp_solves_avoided, direct.lp_solves_avoided);
  EXPECT_EQ(facade.cache_hit, direct.cache_hit);
}

TEST(SolverGolden, MapSolverMatchesDirectEngineCalls) {
  for (const sim::XeonModel model : sim::all_models()) {
    const sim::ModelSpec& spec = sim::spec_for(model);
    const int rows = spec.die.rows;
    const int cols = spec.die.cols;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      SCOPED_TRACE(std::string(serve::model_token(model)) + " seed " +
                   std::to_string(seed));
      const serve::MappingRequest request = client(model, seed);
      const ObservationSet& obs = *request.observations;

      DecomposedSolverOptions decomposed_options;
      decomposed_options.grid_rows = rows;
      decomposed_options.grid_cols = cols;
      expect_same_solve(
          MapSolver(SolverEngine::kDecomposed, rows, cols).solve(obs, request.cha_count),
          DecomposedMapSolver(decomposed_options).solve(obs, request.cha_count));

      RefinementOptions refine_options;
      refine_options.grid_rows = rows;
      refine_options.grid_cols = cols;
      const RefinementResult direct =
          solve_with_refinement(obs, request.cha_count, refine_options);
      MapSolveResult refined = direct.solved;
      if (refined.success) {
        refined.message += " (+" + std::to_string(direct.cuts_added) +
                           " negative-information cuts)";
      }
      expect_same_solve(
          MapSolver(SolverEngine::kRefined, rows, cols).solve(obs, request.cha_count),
          refined);
    }
  }
}

// The faithful ILP with quickstart's caps, on one seed per SKU. Each
// solve takes seconds, so every SKU is its own test.
void expect_ilp_facade_matches(sim::XeonModel model) {
  const sim::ModelSpec& spec = sim::spec_for(model);
  const serve::MappingRequest request = client(model, 1);
  IlpMapSolverOptions options;
  options.objective = IlpObjective::kCompactSum;
  options.max_observations = 40;
  const MapSolveResult facade =
      MapSolver(SolverEngine::kIlp, spec.die.rows, spec.die.cols, options)
          .solve(*request.observations, request.cha_count);
  options.grid_rows = spec.die.rows;
  options.grid_cols = spec.die.cols;
  expect_same_solve(
      facade, IlpMapSolver(options).solve(*request.observations, request.cha_count));
}

TEST(SolverGolden, IlpFacadeXeon8124M) {
  expect_ilp_facade_matches(sim::XeonModel::k8124M);
}

TEST(SolverGolden, IlpFacadeXeon8175M) {
  expect_ilp_facade_matches(sim::XeonModel::k8175M);
}

TEST(SolverGolden, IlpFacadeXeon8259CL) {
  expect_ilp_facade_matches(sim::XeonModel::k8259CL);
}

TEST(SolverGolden, IlpFacadeXeon6354) {
  expect_ilp_facade_matches(sim::XeonModel::k6354);
}

}  // namespace
}  // namespace corelocate::core
