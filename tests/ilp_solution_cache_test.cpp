// SolutionCache semantics (first-write-wins, capacity, Hamming-nearest,
// deterministic merge) and the solver-level contract, kept by
// core::MapSolver for every engine: a cache hit replays the cold solve
// byte for byte, and a warm start never changes the answer.

#include "ilp/solution_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/map_solver.hpp"
#include "sim/instance_factory.hpp"
#include "util/rng.hpp"

namespace corelocate::ilp {
namespace {

CachedSolution solution_with_nodes(std::int64_t nodes) {
  CachedSolution s;
  s.positions = {{1, 2}, {3, 4}};
  s.nodes_explored = nodes;
  return s;
}

TEST(SolutionCacheTest, FindsExactSignature) {
  SolutionCache cache;
  EXPECT_EQ(cache.find(42), nullptr);
  cache.insert(42, SimhashSketch{}, solution_with_nodes(7));
  const CachedSolution* hit = cache.find(42);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->nodes_explored, 7);
  EXPECT_EQ(cache.find(43), nullptr);
}

TEST(SolutionCacheTest, FirstWriteWins) {
  SolutionCache cache;
  cache.insert(42, SimhashSketch{}, solution_with_nodes(7));
  cache.insert(42, SimhashSketch{}, solution_with_nodes(8));
  ASSERT_NE(cache.find(42), nullptr);
  EXPECT_EQ(cache.find(42)->nodes_explored, 7);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SolutionCacheTest, FullCacheRefusesInsteadOfEvicting) {
  SolutionCache cache(1);
  cache.insert(1, SimhashSketch{}, solution_with_nodes(1));
  cache.insert(2, SimhashSketch{}, solution_with_nodes(2));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.find(1), nullptr);
  EXPECT_EQ(cache.find(2), nullptr);
}

TEST(SolutionCacheTest, NearestIsHammingClosest) {
  SolutionCache cache;
  EXPECT_EQ(cache.nearest(SimhashSketch{}), nullptr);
  const SimhashSketch far{~std::uint64_t{0}, ~std::uint64_t{0}, ~std::uint64_t{0},
                          ~std::uint64_t{0}};
  const SimhashSketch near{0xFF, 0, 0, 0};
  cache.insert(10, far, solution_with_nodes(10));
  cache.insert(20, near, solution_with_nodes(20));
  const SolutionCache::Entry* entry = cache.nearest(SimhashSketch{});
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->solution.nodes_explored, 20);
}

TEST(SolutionCacheTest, NearestTieBreaksTowardSmallerSignature) {
  SolutionCache cache;
  const SimhashSketch same{0xF0F0, 0, 0, 0};
  cache.insert(99, same, solution_with_nodes(99));
  cache.insert(11, same, solution_with_nodes(11));
  const SolutionCache::Entry* entry = cache.nearest(SimhashSketch{});
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->solution.nodes_explored, 11);
}

TEST(SolutionCacheTest, MergeIsInsertIfAbsent) {
  SolutionCache a;
  SolutionCache b;
  a.insert(1, SimhashSketch{}, solution_with_nodes(1));
  a.insert(2, SimhashSketch{}, solution_with_nodes(2));
  b.insert(2, SimhashSketch{}, solution_with_nodes(200));  // conflicting key
  b.insert(3, SimhashSketch{}, solution_with_nodes(3));
  a.merge(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.find(2)->nodes_explored, 2);  // a's entry survived
  EXPECT_EQ(a.find(3)->nodes_explored, 3);
}

// ---------------------------------------------------------- persistence

std::string cache_temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("ilp_cache_" +
           std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
           name))
      .string();
}

TEST(SolutionCachePersistTest, SaveLoadRoundTripsEveryField) {
  SolutionCache cache;
  CachedSolution failed;
  failed.success = false;
  failed.message = "infeasible: odd parity";
  cache.insert(7, SimhashSketch{{1, 2, 3, ~std::uint64_t{0}}}, failed);
  CachedSolution rich = solution_with_nodes(42);
  rich.lp_iterations = 17;
  rich.nodes_pruned = 5;
  rich.lp_solves_avoided = 9;
  cache.insert(0xFFFFFFFFFFFFFFF0ULL, SimhashSketch{{8, 9, 10, 11}}, rich);

  const std::string file = cache_temp_path("roundtrip.rio");
  cache.save(file);
  SolutionCache loaded;
  EXPECT_EQ(loaded.load(file), 2u);
  std::filesystem::remove(file);

  EXPECT_EQ(loaded.size(), 2u);
  const CachedSolution* f = loaded.find(7);
  ASSERT_NE(f, nullptr);
  EXPECT_FALSE(f->success);
  EXPECT_EQ(f->message, "infeasible: odd parity");
  const CachedSolution* r = loaded.find(0xFFFFFFFFFFFFFFF0ULL);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->success);
  EXPECT_EQ(r->positions, (std::vector<std::pair<int, int>>{{1, 2}, {3, 4}}));
  EXPECT_EQ(r->nodes_explored, 42);
  EXPECT_EQ(r->lp_iterations, 17);
  EXPECT_EQ(r->nodes_pruned, 5);
  EXPECT_EQ(r->lp_solves_avoided, 9);

  // The sketch round-trips too: nearest() sees the same geometry.
  const SolutionCache::Entry* nearest =
      loaded.nearest(SimhashSketch{{8, 9, 10, 11}});
  ASSERT_NE(nearest, nullptr);
  EXPECT_EQ(nearest->solution.nodes_explored, 42);
}

TEST(SolutionCachePersistTest, MissingFileLoadsNothing) {
  SolutionCache cache;
  EXPECT_EQ(cache.load(cache_temp_path("never-written.rio")), 0u);
  EXPECT_TRUE(cache.empty());
}

TEST(SolutionCachePersistTest, LoadIsInsertIfAbsent) {
  SolutionCache on_disk;
  on_disk.insert(1, SimhashSketch{}, solution_with_nodes(100));
  on_disk.insert(2, SimhashSketch{}, solution_with_nodes(200));
  const std::string file = cache_temp_path("absent.rio");
  on_disk.save(file);

  SolutionCache cache;
  cache.insert(1, SimhashSketch{}, solution_with_nodes(1));  // pre-existing
  EXPECT_EQ(cache.load(file), 1u);  // only signature 2 is new
  std::filesystem::remove(file);
  EXPECT_EQ(cache.find(1)->nodes_explored, 1);  // first write won
  EXPECT_EQ(cache.find(2)->nodes_explored, 200);
}

TEST(SolutionCachePersistTest, SavedBytesAreAPureFunctionOfContents) {
  // Insertion order must not leak into the file: the map iterates in
  // key order, so two caches with equal contents save equal bytes.
  SolutionCache ab;
  ab.insert(10, SimhashSketch{{1, 0, 0, 0}}, solution_with_nodes(1));
  ab.insert(20, SimhashSketch{{2, 0, 0, 0}}, solution_with_nodes(2));
  SolutionCache ba;
  ba.insert(20, SimhashSketch{{2, 0, 0, 0}}, solution_with_nodes(2));
  ba.insert(10, SimhashSketch{{1, 0, 0, 0}}, solution_with_nodes(1));

  const std::string file_ab = cache_temp_path("ab.rio");
  const std::string file_ba = cache_temp_path("ba.rio");
  ab.save(file_ab);
  ba.save(file_ba);
  std::ifstream in_ab(file_ab, std::ios::binary);
  std::ifstream in_ba(file_ba, std::ios::binary);
  std::ostringstream bytes_ab, bytes_ba;
  bytes_ab << in_ab.rdbuf();
  bytes_ba << in_ba.rdbuf();
  EXPECT_EQ(bytes_ab.str(), bytes_ba.str());
  std::filesystem::remove(file_ab);
  std::filesystem::remove(file_ba);
}

TEST(SolutionCachePersistTest, CorruptedFileThrowsInsteadOfMisparsing) {
  SolutionCache cache;
  cache.insert(1, SimhashSketch{}, solution_with_nodes(1));
  const std::string file = cache_temp_path("corrupt.rio");
  cache.save(file);
  {
    std::fstream io(file, std::ios::binary | std::ios::in | std::ios::out);
    io.seekp(-6, std::ios::end);  // inside the single block
    char byte = 0;
    io.read(&byte, 1);
    io.seekp(-6, std::ios::end);
    byte = static_cast<char>(byte ^ 0x20);
    io.write(&byte, 1);
  }
  SolutionCache fresh;
  EXPECT_THROW(fresh.load(file), std::runtime_error);
  std::filesystem::remove(file);
}

// ------------------------------------------------------- solver contract

core::ObservationSet observations_for(sim::XeonModel model, std::uint64_t seed,
                                      sim::InstanceConfig* config_out) {
  const sim::InstanceFactory factory(sim::InstanceFactory::kDefaultFleetSeed);
  util::Rng rng(seed);
  *config_out = factory.make_instance(model, rng);
  return core::synthesize_observations(*config_out);
}

/// Everything except the observability-only hit flag must replay.
void expect_same_solve(const core::MapSolveResult& cold,
                       const core::MapSolveResult& replayed) {
  EXPECT_EQ(cold.success, replayed.success);
  EXPECT_EQ(cold.message, replayed.message);
  EXPECT_EQ(cold.cha_position, replayed.cha_position);
  EXPECT_EQ(cold.nodes, replayed.nodes);
  EXPECT_EQ(cold.lp_iterations, replayed.lp_iterations);
  EXPECT_EQ(cold.nodes_pruned, replayed.nodes_pruned);
  EXPECT_EQ(cold.lp_solves_avoided, replayed.lp_solves_avoided);
}

TEST(SolutionCacheSolver, DecomposedHitReplaysColdSolve) {
  sim::InstanceConfig config;
  const core::ObservationSet obs =
      observations_for(sim::XeonModel::k8259CL, 21, &config);
  core::DecomposedSolverOptions options;
  options.grid_rows = config.grid.rows();
  options.grid_cols = config.grid.cols();

  const core::MapSolveResult cold =
      core::DecomposedMapSolver(options).solve(obs, config.cha_count());
  ASSERT_TRUE(cold.success) << cold.message;
  EXPECT_FALSE(cold.cache_hit);

  SolutionCache cache;
  const core::MapSolver solver(core::SolverEngine::kDecomposed, options.grid_rows,
                               options.grid_cols);
  core::MapSolveResult probed;
  EXPECT_FALSE(solver.probe_cache(obs, config.cha_count(), cache, probed));

  const core::MapSolveResult filled = solver.solve(obs, config.cha_count(), &cache);
  EXPECT_FALSE(filled.cache_hit);
  expect_same_solve(cold, filled);
  EXPECT_EQ(cache.size(), 1u);

  const core::MapSolveResult hit = solver.solve(obs, config.cha_count(), &cache);
  EXPECT_TRUE(hit.cache_hit);
  expect_same_solve(cold, hit);
  ASSERT_TRUE(solver.probe_cache(obs, config.cha_count(), cache, probed));
  EXPECT_TRUE(probed.cache_hit);
  expect_same_solve(cold, probed);
}

TEST(SolutionCacheSolver, DecomposedStorePrimitiveMatchesSolvePath) {
  sim::InstanceConfig config;
  const core::ObservationSet obs =
      observations_for(sim::XeonModel::k8124M, 5, &config);
  core::DecomposedSolverOptions options;
  options.grid_rows = config.grid.rows();
  options.grid_cols = config.grid.cols();
  const core::MapSolveResult cold =
      core::DecomposedMapSolver(options).solve(obs, config.cha_count());
  ASSERT_TRUE(cold.success);

  // store_cache must file the result under exactly the key probe_cache
  // (and solve) would look up.
  SolutionCache cache;
  const core::MapSolver solver(core::SolverEngine::kDecomposed, options.grid_rows,
                               options.grid_cols);
  solver.store_cache(obs, config.cha_count(), cache, cold);
  core::MapSolveResult probed;
  ASSERT_TRUE(solver.probe_cache(obs, config.cha_count(), cache, probed));
  expect_same_solve(cold, probed);
}

TEST(SolutionCacheSolver, IlpHitReplaysColdSolve) {
  sim::InstanceConfig config;
  const core::ObservationSet obs =
      observations_for(sim::XeonModel::k8124M, 9, &config);
  core::IlpMapSolverOptions options;
  options.grid_rows = config.grid.rows();
  options.grid_cols = config.grid.cols();
  options.objective = core::IlpObjective::kCompactSum;
  options.max_observations = 12;
  options.milp.presolve = true;

  const core::MapSolveResult cold =
      core::IlpMapSolver(options).solve(obs, config.cha_count());
  ASSERT_TRUE(cold.success) << cold.message;

  SolutionCache cache;
  const core::MapSolver solver(core::SolverEngine::kIlp, options.grid_rows,
                               options.grid_cols, options);
  const core::MapSolveResult filled = solver.solve(obs, config.cha_count(), &cache);
  EXPECT_FALSE(filled.cache_hit);
  expect_same_solve(cold, filled);
  EXPECT_EQ(cache.size(), 1u);

  const core::MapSolveResult hit = solver.solve(obs, config.cha_count(), &cache);
  EXPECT_TRUE(hit.cache_hit);
  expect_same_solve(cold, hit);

  core::MapSolveResult probed;
  ASSERT_TRUE(solver.probe_cache(obs, config.cha_count(), cache, probed));
  expect_same_solve(cold, probed);
}

TEST(SolutionCacheSolver, WarmStartNeverChangesTheMap) {
  // Warm-start from a NEIGHBOURING signature: obs_b is obs_a minus its
  // last observation, so its key is guaranteed distinct (the cache key
  // hashes the full set) and the Hamming-nearest entry is obs_a's
  // solution. The warmed solve must still equal the cold solve
  // coordinate for coordinate — the warm assignment is a bound, never
  // an incumbent.
  sim::InstanceConfig config;
  const core::ObservationSet obs_a =
      observations_for(sim::XeonModel::k8124M, 31, &config);
  core::ObservationSet obs_b = obs_a;
  ASSERT_GT(obs_b.size(), 1u);
  obs_b.pop_back();

  core::IlpMapSolverOptions options;
  options.grid_rows = config.grid.rows();
  options.grid_cols = config.grid.cols();
  options.objective = core::IlpObjective::kCompactSum;
  options.max_observations = 12;
  options.milp.presolve = true;

  const core::MapSolveResult cold =
      core::IlpMapSolver(options).solve(obs_b, config.cha_count());
  ASSERT_TRUE(cold.success) << cold.message;

  SolutionCache cache;
  options.warm_start = true;
  const core::MapSolver solver(core::SolverEngine::kIlp, options.grid_rows,
                               options.grid_cols, options);
  ASSERT_TRUE(solver.solve(obs_a, config.cha_count(), &cache).success);
  EXPECT_EQ(cache.size(), 1u);  // obs_a's answer seeds the warm start

  const core::MapSolveResult warmed = solver.solve(obs_b, config.cha_count(), &cache);
  ASSERT_TRUE(warmed.success) << warmed.message;
  EXPECT_FALSE(warmed.cache_hit);  // different signature: a true miss
  EXPECT_EQ(cold.cha_position, warmed.cha_position);
}

}  // namespace
}  // namespace corelocate::ilp
