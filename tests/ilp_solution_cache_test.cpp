// SolutionCache semantics (first-write-wins, capacity, deterministic
// merge), its hardened loader, and the solver-level contract kept by
// core::MapSolver for every engine: a cache hit replays the cold solve
// byte for byte, and a hit that does not fit the request is refused.

#include "ilp/solution_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/map_solver.hpp"
#include "recordio/schema.hpp"
#include "recordio/writer.hpp"
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
  cache.insert(42, solution_with_nodes(7));
  const CachedSolution* hit = cache.find(42);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->nodes_explored, 7);
  EXPECT_EQ(cache.find(43), nullptr);
}

TEST(SolutionCacheTest, FirstWriteWins) {
  SolutionCache cache;
  cache.insert(42, solution_with_nodes(7));
  cache.insert(42, solution_with_nodes(8));
  ASSERT_NE(cache.find(42), nullptr);
  EXPECT_EQ(cache.find(42)->nodes_explored, 7);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SolutionCacheTest, FullCacheRefusesInsteadOfEvicting) {
  SolutionCache cache(1);
  cache.insert(1, solution_with_nodes(1));
  cache.insert(2, solution_with_nodes(2));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.find(1), nullptr);
  EXPECT_EQ(cache.find(2), nullptr);
}

TEST(SolutionCacheTest, MergeIsInsertIfAbsent) {
  SolutionCache a;
  SolutionCache b;
  a.insert(1, solution_with_nodes(1));
  a.insert(2, solution_with_nodes(2));
  b.insert(2, solution_with_nodes(200));  // conflicting key
  b.insert(3, solution_with_nodes(3));
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

std::string read_file(const std::string& file) {
  std::ifstream in(file, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

void write_file(const std::string& file, const std::string& bytes) {
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(SolutionCachePersistTest, SaveLoadRoundTripsEveryField) {
  SolutionCache cache;
  CachedSolution failed;
  failed.success = false;
  failed.message = "infeasible: odd parity";
  cache.insert(7, failed);
  CachedSolution rich = solution_with_nodes(42);
  rich.lp_iterations = 17;
  rich.nodes_pruned = 5;
  rich.lp_solves_avoided = 9;
  cache.insert(0xFFFFFFFFFFFFFFF0ULL, rich);

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
}

TEST(SolutionCachePersistTest, SaveLeavesNoStagingFile) {
  SolutionCache cache;
  cache.insert(1, solution_with_nodes(1));
  const std::string file = cache_temp_path("staged.rio");
  cache.save(file);
  EXPECT_FALSE(std::filesystem::exists(file + ".tmp"));
  SolutionCache loaded;
  EXPECT_EQ(loaded.load(file), 1u);
  std::filesystem::remove(file);
}

TEST(SolutionCachePersistTest, FailedSaveKeepsThePreviousFile) {
  // The save stages at <path>.tmp; a directory there makes it fail
  // before the cache file is touched.
  SolutionCache cache;
  cache.insert(1, solution_with_nodes(1));
  const std::string file = cache_temp_path("kept.rio");
  std::filesystem::remove_all(file + ".tmp");
  cache.save(file);
  const std::string before = read_file(file);
  std::filesystem::create_directory(file + ".tmp");
  cache.insert(2, solution_with_nodes(2));
  EXPECT_THROW(cache.save(file), std::runtime_error);
  EXPECT_EQ(read_file(file), before);
  std::filesystem::remove(file + ".tmp");
  std::filesystem::remove(file);
}

TEST(SolutionCachePersistTest, MissingFileLoadsNothing) {
  SolutionCache cache;
  EXPECT_EQ(cache.load(cache_temp_path("never-written.rio")), 0u);
  EXPECT_TRUE(cache.empty());
}

TEST(SolutionCachePersistTest, LoadIsInsertIfAbsent) {
  SolutionCache on_disk;
  on_disk.insert(1, solution_with_nodes(100));
  on_disk.insert(2, solution_with_nodes(200));
  const std::string file = cache_temp_path("absent.rio");
  on_disk.save(file);

  SolutionCache cache;
  cache.insert(1, solution_with_nodes(1));  // pre-existing
  EXPECT_EQ(cache.load(file), 1u);  // only signature 2 is new
  std::filesystem::remove(file);
  EXPECT_EQ(cache.find(1)->nodes_explored, 1);  // first write won
  EXPECT_EQ(cache.find(2)->nodes_explored, 200);
}

TEST(SolutionCachePersistTest, SavedBytesAreAPureFunctionOfContents) {
  // Insertion order must not leak into the file: the map iterates in
  // key order, so two caches with equal contents save equal bytes.
  SolutionCache ab;
  ab.insert(10, solution_with_nodes(1));
  ab.insert(20, solution_with_nodes(2));
  SolutionCache ba;
  ba.insert(20, solution_with_nodes(2));
  ba.insert(10, solution_with_nodes(1));

  const std::string file_ab = cache_temp_path("ab.rio");
  const std::string file_ba = cache_temp_path("ba.rio");
  ab.save(file_ab);
  ba.save(file_ba);
  EXPECT_EQ(read_file(file_ab), read_file(file_ba));
  std::filesystem::remove(file_ab);
  std::filesystem::remove(file_ba);
}

TEST(SolutionCachePersistTest, CorruptedFileThrowsInsteadOfMisparsing) {
  SolutionCache cache;
  cache.insert(1, solution_with_nodes(1));
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

void expect_same_entry(const CachedSolution& want, const CachedSolution& got,
                       const std::string& where) {
  EXPECT_EQ(want.success, got.success) << where;
  EXPECT_EQ(want.positions, got.positions) << where;
  EXPECT_EQ(want.message, got.message) << where;
  EXPECT_EQ(want.nodes_explored, got.nodes_explored) << where;
  EXPECT_EQ(want.lp_iterations, got.lp_iterations) << where;
  EXPECT_EQ(want.nodes_pruned, got.nodes_pruned) << where;
  EXPECT_EQ(want.lp_solves_avoided, got.lp_solves_avoided) << where;
}

TEST(SolutionCachePersistTest, LoaderRefusesMutatedFiles) {
  // Seeded mutation fuzz: a flipped, dropped or inserted byte, or a cut
  // anywhere, either makes load() throw std::runtime_error or loads a
  // key-order prefix of the saved entries, field for field (a cut at a
  // block boundary drops whole blocks).
  std::vector<std::pair<std::uint64_t, CachedSolution>> entries;
  for (int k = 0; k < 8; ++k) {
    CachedSolution s;
    s.success = k % 3 != 0;
    if (s.success) s.positions = {{k, 2 * k}, {5 - k % 5, k % 4}, {0, 0}};
    s.message = s.success ? "optimal" : "infeasible #" + std::to_string(k);
    s.nodes_explored = 100 * k + 1;
    s.lp_iterations = 1000 * k + 7;
    s.nodes_pruned = k;
    s.lp_solves_avoided = 3 * k;
    entries.emplace_back(0x1000 + 0x9E37ULL * static_cast<std::uint64_t>(k), s);
  }
  SolutionCache original;
  for (const auto& [key, solution] : entries) original.insert(key, solution);
  const std::string file = cache_temp_path("fuzz.rio");
  original.save(file);
  const std::string valid = read_file(file);

  util::Rng rng(0x5C0A1E5ULL);
  int refused = 0;
  for (int trial = 0; trial < 600; ++trial) {
    std::string bytes = valid;
    const std::size_t at = rng.below(bytes.size());
    switch (rng.below(4)) {
      case 0: bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.below(8))); break;
      case 1: bytes.erase(at, 1); break;
      case 2: bytes.insert(at, 1, static_cast<char>(rng.below(256))); break;
      default: bytes.resize(at); break;
    }
    write_file(file, bytes);
    SolutionCache loaded;
    std::size_t count = 0;
    try {
      count = loaded.load(file);
    } catch (const std::runtime_error&) {
      ++refused;
      continue;
    }
    const std::string where = "trial " + std::to_string(trial);
    ASSERT_LE(count, entries.size()) << where;
    EXPECT_EQ(loaded.size(), count) << where;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const CachedSolution* hit = loaded.find(entries[i].first);
      if (i >= count) {
        EXPECT_EQ(hit, nullptr) << where;
        continue;
      }
      ASSERT_NE(hit, nullptr) << where;
      expect_same_entry(entries[i].second, *hit, where);
    }
  }
  std::filesystem::remove(file);
  // Only a cut exactly at the header's end (an empty, valid file) loads.
  EXPECT_GT(refused, 580);
}

/// The current on-disk layout, spelled out so tests can write rows that
/// save() never would. `with_sketch` adds the column older files carry.
recordio::Schema cache_layout(bool with_sketch) {
  using recordio::FieldType;
  recordio::Schema schema = {
      {"signature", FieldType::kDeltaU64},
      {"success", FieldType::kU64},
      {"positions", FieldType::kI64List},
      {"message", FieldType::kBytes},
      {"nodes_explored", FieldType::kU64},
      {"lp_iterations", FieldType::kU64},
      {"nodes_pruned", FieldType::kU64},
      {"lp_solves_avoided", FieldType::kU64},
  };
  if (with_sketch) schema.insert(schema.begin() + 1, {"sketch", FieldType::kBytes});
  return schema;
}

/// One well-formed row of the current layout: success, one CHA at (1, 2).
recordio::Row layout_row() {
  return {
      std::uint64_t{5},                 // signature
      std::uint64_t{1},                 // success
      std::vector<std::int64_t>{1, 2},  // positions
      std::string("optimal"),           // message
      std::uint64_t{10},                // nodes_explored
      std::uint64_t{20},                // lp_iterations
      std::uint64_t{3},                 // nodes_pruned
      std::uint64_t{4},                 // lp_solves_avoided
  };
}

void write_rows(const std::string& file, const recordio::Schema& schema,
                const std::vector<recordio::Row>& rows) {
  recordio::RecordWriter writer(file, schema);
  for (const recordio::Row& row : rows) writer.append_row(row);
  writer.close();
}

TEST(SolutionCachePersistTest, LoaderAcceptsTheEdgesOfEachRange) {
  recordio::Row row = layout_row();
  row[1] = std::uint64_t{0};
  row[2] = std::vector<std::int64_t>{0, std::numeric_limits<int>::max()};
  row[4] = static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  const std::string file = cache_temp_path("edges.rio");
  write_rows(file, cache_layout(false), {row});
  SolutionCache cache;
  EXPECT_EQ(cache.load(file), 1u);
  std::filesystem::remove(file);
  const CachedSolution* hit = cache.find(5);
  ASSERT_NE(hit, nullptr);
  EXPECT_FALSE(hit->success);
  EXPECT_EQ(hit->positions,
            (std::vector<std::pair<int, int>>{{0, std::numeric_limits<int>::max()}}));
  EXPECT_EQ(hit->nodes_explored, std::numeric_limits<std::int64_t>::max());
}

TEST(SolutionCachePersistTest, LoaderRefusesOutOfRangeFields) {
  const auto too_big =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) + 1;
  const std::int64_t past_int = std::int64_t{std::numeric_limits<int>::max()} + 1;
  std::vector<recordio::Row> bad;
  for (const std::uint64_t success : {std::uint64_t{2}, ~std::uint64_t{0}}) {
    bad.push_back(layout_row());
    bad.back()[1] = success;
  }
  for (const std::int64_t coordinate : {std::int64_t{-1}, past_int}) {
    bad.push_back(layout_row());
    bad.back()[2] = std::vector<std::int64_t>{coordinate, 0};
    bad.push_back(layout_row());
    bad.back()[2] = std::vector<std::int64_t>{0, coordinate};
  }
  for (std::size_t counter = 4; counter < 8; ++counter) {
    bad.push_back(layout_row());
    bad.back()[counter] = too_big;
  }
  // A well-formed row goes first: a refused file must not leave it behind.
  recordio::Row good = layout_row();
  good[0] = std::uint64_t{1};
  const std::string file = cache_temp_path("range.rio");
  for (std::size_t i = 0; i < bad.size(); ++i) {
    write_rows(file, cache_layout(false), {good, bad[i]});
    SolutionCache cache;
    try {
      cache.load(file);
      ADD_FAILURE() << "row " << i << " loaded";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(file), std::string::npos)
          << "row " << i << ": " << error.what();
    }
    EXPECT_TRUE(cache.empty()) << "row " << i;
  }
  std::filesystem::remove(file);
}

TEST(SolutionCachePersistTest, OldSketchLayoutThrows) {
  // Files written before the sketch column was dropped must be refused,
  // not read as an empty cache.
  recordio::Row row = layout_row();
  row.insert(row.begin() + 1, std::string(32, '\0'));
  const std::string file = cache_temp_path("sketch-layout.rio");
  write_rows(file, cache_layout(true), {row});
  SolutionCache cache;
  EXPECT_THROW(cache.load(file), std::runtime_error);
  EXPECT_TRUE(cache.empty());
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

TEST(SolutionCacheSolver, DecomposedKeyIsPinned) {
  // Saved solution-cache files are keyed on this value: if it changes,
  // every stored decomposed-engine entry stops matching.
  sim::InstanceConfig config;
  const core::ObservationSet obs =
      observations_for(sim::XeonModel::k8124M, 5, &config);
  core::DecomposedSolverOptions options;
  options.validate_model = false;  // the build type sets the default
  const core::MapSolver solver(core::SolverEngine::kDecomposed, config.grid.rows(),
                               config.grid.cols(), {}, options);
  SolutionCache cache;
  solver.store_cache(obs, config.cha_count(), cache, core::MapSolveResult{});
  EXPECT_NE(cache.find(0x434CF7C1DF629715ULL), nullptr);
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

TEST(SolutionCacheSolver, HitThatDoesNotFitTheRequestThrows) {
  // The key hashes cha_count and the grid, so only a crafted or foreign
  // file can file such an entry; store_cache stands in for one here.
  sim::InstanceConfig config;
  const core::ObservationSet obs =
      observations_for(sim::XeonModel::k8124M, 5, &config);
  const int rows = config.grid.rows();
  const int cols = config.grid.cols();
  const int chas = config.cha_count();
  const core::MapSolver solver(core::SolverEngine::kDecomposed, rows, cols);

  core::MapSolveResult on_grid;
  on_grid.success = true;
  on_grid.cha_position.assign(static_cast<std::size_t>(chas), mesh::Coord{0, 0});
  std::vector<core::MapSolveResult> made_up(5, on_grid);
  made_up[0].cha_position.back() = mesh::Coord{rows, 0};
  made_up[1].cha_position.back() = mesh::Coord{0, cols};
  made_up[2].cha_position.front() = mesh::Coord{-1, 0};
  made_up[3].cha_position.front() = mesh::Coord{0, -1};
  made_up[4].cha_position.pop_back();  // one position short
  for (std::size_t i = 0; i < made_up.size(); ++i) {
    SolutionCache cache;
    solver.store_cache(obs, chas, cache, made_up[i]);
    core::MapSolveResult probed;
    EXPECT_THROW(solver.probe_cache(obs, chas, cache, probed), std::runtime_error)
        << "case " << i;
    EXPECT_THROW(solver.solve(obs, chas, &cache), std::runtime_error) << "case " << i;
  }

  // A fitting entry replays, and so does a failed solve, which has no
  // positions to check.
  core::MapSolveResult failed;
  failed.message = "made-up failure";
  for (const core::MapSolveResult& fits : {on_grid, failed}) {
    SolutionCache cache;
    solver.store_cache(obs, chas, cache, fits);
    const core::MapSolveResult hit = solver.solve(obs, chas, &cache);
    EXPECT_TRUE(hit.cache_hit);
    expect_same_solve(fits, hit);
  }
}

}  // namespace
}  // namespace corelocate::ilp
