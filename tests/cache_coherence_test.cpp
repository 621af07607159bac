#include "cache/coherence.hpp"

#include <gtest/gtest.h>

namespace corelocate::cache {
namespace {

// A 2x3 die: two cores on the top corners, a third CHA mid-bottom, an IMC
// bottom-left. Tiny L2 (4 sets x 2 ways) so evictions are easy to force.
class CoherenceTest : public ::testing::Test {
 protected:
  CoherenceTest()
      : grid_(make_grid()),
        traffic_(grid_),
        llc_(3),
        hash_(3, 0xFEED),
        engine_(make_topology(), hash_, traffic_, llc_, L2Geometry{4, 2}) {}

  static mesh::TileGrid make_grid() {
    mesh::TileGrid grid(2, 3);
    grid.set_kind({0, 0}, mesh::TileKind::kCore);
    grid.set_kind({0, 2}, mesh::TileKind::kCore);
    grid.set_kind({1, 1}, mesh::TileKind::kLlcOnly);
    grid.set_kind({1, 0}, mesh::TileKind::kImc);
    return grid;
  }

  static Topology make_topology() {
    Topology topo;
    topo.core_tiles = {{0, 0}, {0, 2}};           // core 0, core 1
    topo.cha_tiles = {{0, 0}, {0, 2}, {1, 1}};    // cha 0, 1, 2
    topo.imc_tiles = {{1, 0}};
    return topo;
  }

  /// First line (in the given L2 set) whose home is `cha`.
  LineAddr line_homed_at(int cha, int l2_set = 0, int skip = 0) const {
    for (LineAddr high = 1; high < 100000; ++high) {
      const LineAddr line = (high << 10) | static_cast<LineAddr>(l2_set);
      if (engine_.home_of(line) == cha) {
        if (skip-- == 0) return line;
      }
    }
    throw std::runtime_error("no line found");
  }

  mesh::TileGrid grid_;
  mesh::TrafficRecorder traffic_;
  SlicedLlc llc_;
  SliceHash hash_;
  CoherenceEngine engine_;
};

TEST_F(CoherenceTest, ConstructionValidation) {
  Topology bad = make_topology();
  bad.cha_tiles.pop_back();  // count mismatch with hash
  EXPECT_THROW(
      CoherenceEngine(bad, hash_, traffic_, llc_, L2Geometry{4, 2}),
      std::invalid_argument);
}

TEST_F(CoherenceTest, WriteAllocatesModified) {
  const LineAddr line = line_homed_at(2);
  engine_.write(0, line);
  EXPECT_TRUE(engine_.l2(0).contains(line));
  EXPECT_TRUE(engine_.l2(0).is_dirty(line));
  EXPECT_TRUE(engine_.owned_by(0, line));
  EXPECT_EQ(llc_.lookups(2), 1u);
}

TEST_F(CoherenceTest, RepeatWriteIsSilent) {
  const LineAddr line = line_homed_at(2);
  engine_.write(0, line);
  const std::uint64_t traffic_before = traffic_.grand_total();
  const std::uint64_t lookups_before = llc_.lookups(2);
  for (int i = 0; i < 10; ++i) engine_.write(0, line);
  EXPECT_EQ(traffic_.grand_total(), traffic_before);
  EXPECT_EQ(llc_.lookups(2), lookups_before);
}

TEST_F(CoherenceTest, ColocatedCoreAndHomeStayOffTheMesh) {
  // Core 0 lives on CHA 0's tile: write-back/refill to its own slice must
  // generate zero mesh traffic (the step-1 colocation signal).
  const LineAddr a = line_homed_at(0, /*l2_set=*/0, /*skip=*/0);
  const LineAddr b = line_homed_at(0, /*l2_set=*/0, /*skip=*/1);
  const LineAddr c = line_homed_at(0, /*l2_set=*/0, /*skip=*/2);
  // Warm up: the very first touches fetch from memory through the IMC,
  // which does ride the mesh (the mapper's warm-up passes absorb this).
  for (int pass = 0; pass < 2; ++pass) {
    engine_.write(0, a);
    engine_.write(0, b);
    engine_.write(0, c);
  }
  traffic_.reset();
  const std::uint64_t lookups_before = llc_.lookups(0);
  // Steady state: eviction cycling between the core and its own slice.
  for (int pass = 0; pass < 4; ++pass) {
    engine_.write(0, a);
    engine_.write(0, b);
    engine_.write(0, c);
  }
  EXPECT_EQ(traffic_.grand_total(), 0u);
  EXPECT_GT(llc_.lookups(0), lookups_before);
}

TEST_F(CoherenceTest, RemoteEvictionLoopLightsUpTheMesh) {
  const LineAddr a = line_homed_at(2, 0, 0);
  const LineAddr b = line_homed_at(2, 0, 1);
  const LineAddr c = line_homed_at(2, 0, 2);
  for (int pass = 0; pass < 4; ++pass) {
    engine_.write(0, a);
    engine_.write(0, b);
    engine_.write(0, c);
  }
  EXPECT_GT(traffic_.grand_total(), 0u);
}

TEST_F(CoherenceTest, ReadOfRemoteModifiedForwardsAndWritesBack) {
  const LineAddr line = line_homed_at(1);  // homed at core 1's tile
  engine_.write(0, line);                  // modified in core 0's L2
  traffic_.reset();
  engine_.read(1, line);
  // Forward core0->core1 and write-back core0->home(core1's tile): both
  // ride the same route, so only that route's tiles see traffic.
  EXPECT_GT(traffic_.total_cycles({0, 1}), 0u);  // intermediate
  EXPECT_GT(traffic_.total_cycles({0, 2}), 0u);  // sink
  EXPECT_EQ(traffic_.total_cycles({1, 1}), 0u);  // off-route
  EXPECT_TRUE(llc_.slice(1).contains(line));
  EXPECT_FALSE(engine_.owned_by(0, line));
  // Core 0 keeps a clean shared copy.
  EXPECT_TRUE(engine_.l2(0).contains(line));
  EXPECT_FALSE(engine_.l2(0).is_dirty(line));
}

TEST_F(CoherenceTest, WriteUpgradeAfterSharedIsBlSilent) {
  const LineAddr line = line_homed_at(1);
  engine_.write(0, line);
  engine_.read(1, line);  // both shared now
  traffic_.reset();
  engine_.write(0, line);  // upgrade: invalidations only, no data movement
  EXPECT_EQ(traffic_.grand_total(), 0u);
  EXPECT_TRUE(engine_.owned_by(0, line));
  EXPECT_FALSE(engine_.l2(1).contains(line));
}

TEST_F(CoherenceTest, SteadyStateProbeTrafficFollowsSourceToSinkRoute) {
  // The paper's step-2 recipe: line homed at the sink, source writes, sink
  // reads. Steady-state BL traffic covers exactly the source->sink route.
  const LineAddr line = line_homed_at(1);  // home = core 1 (sink) tile
  for (int i = 0; i < 3; ++i) {            // warm up transients
    engine_.write(0, line);
    engine_.read(1, line);
  }
  traffic_.reset();
  const int rounds = 8;
  for (int i = 0; i < rounds; ++i) {
    engine_.write(0, line);
    engine_.read(1, line);
  }
  // Route (0,0)->(0,2): receivers (0,1) and (0,2); 2 transfers per round.
  EXPECT_EQ(traffic_.total_cycles({0, 1}),
            static_cast<std::uint64_t>(rounds) * 2 * kCyclesPerTransfer);
  EXPECT_EQ(traffic_.total_cycles({0, 2}),
            static_cast<std::uint64_t>(rounds) * 2 * kCyclesPerTransfer);
  EXPECT_EQ(traffic_.total_cycles({1, 0}), 0u);
  EXPECT_EQ(traffic_.total_cycles({1, 1}), 0u);
  EXPECT_EQ(traffic_.total_cycles({1, 2}), 0u);
}

TEST_F(CoherenceTest, PingPongWritesLookUpTheHomeEveryRound) {
  const LineAddr line = line_homed_at(2);
  const int rounds = 16;
  for (int i = 0; i < rounds; ++i) {
    engine_.write(0, line);
    engine_.write(1, line);
  }
  // Every ownership transfer looks up the home directory; CHA 2 dominates.
  EXPECT_GE(llc_.lookups(2), static_cast<std::uint64_t>(2 * rounds - 1));
  EXPECT_EQ(llc_.lookups(0), 0u);
  EXPECT_EQ(llc_.lookups(1), 0u);
}

TEST_F(CoherenceTest, DirtyL2VictimWritesBackToHomeSlice) {
  const LineAddr a = line_homed_at(2, 0, 0);
  const LineAddr b = line_homed_at(2, 0, 1);
  const LineAddr c = line_homed_at(2, 0, 2);
  engine_.write(0, a);
  engine_.write(0, b);
  engine_.write(0, c);  // evicts a (dirty) -> write-back to CHA 2
  EXPECT_TRUE(llc_.slice(2).contains(a));
  EXPECT_FALSE(engine_.owned_by(0, a));
}

TEST_F(CoherenceTest, LlcHitRefillsFromHome) {
  const LineAddr a = line_homed_at(2, 0, 0);
  const LineAddr b = line_homed_at(2, 0, 1);
  const LineAddr c = line_homed_at(2, 0, 2);
  engine_.write(0, a);
  engine_.write(0, b);
  engine_.write(0, c);  // a now in LLC slice 2
  traffic_.reset();
  engine_.write(0, a);  // refill from home slice (1,1) -> core (0,0)
  // Modified fetch removes the line from the non-inclusive LLC.
  EXPECT_FALSE(llc_.slice(2).contains(a));
  EXPECT_GT(traffic_.grand_total(), 0u);
}

TEST_F(CoherenceTest, HomeOfMatchesHash) {
  for (LineAddr line = 0; line < 200; ++line) {
    EXPECT_EQ(engine_.home_of(line), hash_.slice_of(line));
  }
}

}  // namespace
}  // namespace corelocate::cache
