// Reference-model fuzz for the L2: the set-associative LRU cache must
// behave identically to an obviously-correct map/list reference under a
// long random operation stream.

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <vector>

#include "cache/l2.hpp"
#include "util/rng.hpp"

namespace corelocate::cache {
namespace {

/// Obviously-correct per-set LRU reference.
class ReferenceL2 {
 public:
  ReferenceL2(int sets, int ways) : sets_(sets), ways_(ways) {}

  bool contains(LineAddr line) const {
    const auto& set = set_of(line);
    for (const auto& [l, d] : set) {
      if (l == line) return true;
    }
    return false;
  }

  bool is_dirty(LineAddr line) const {
    for (const auto& [l, d] : set_of(line)) {
      if (l == line) return d;
    }
    return false;
  }

  void touch(LineAddr line) {
    auto& set = set_of(line);
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (it->first == line) {
        set.splice(set.begin(), set, it);  // move to MRU (front)
        return;
      }
    }
  }

  std::optional<L2Cache::Victim> insert(LineAddr line, bool dirty) {
    auto& set = set_of(line);
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (it->first == line) {
        it->second = it->second || dirty;
        set.splice(set.begin(), set, it);
        return std::nullopt;
      }
    }
    std::optional<L2Cache::Victim> victim;
    if (static_cast<int>(set.size()) == ways_) {
      victim = L2Cache::Victim{set.back().first, set.back().second};
      set.pop_back();
    }
    set.emplace_front(line, dirty);
    return victim;
  }

  std::optional<bool> invalidate(LineAddr line) {
    auto& set = set_of(line);
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (it->first == line) {
        const bool dirty = it->second;
        set.erase(it);
        return dirty;
      }
    }
    return std::nullopt;
  }

  void set_dirty(LineAddr line, bool dirty) {
    for (auto& [l, d] : set_of(line)) {
      if (l == line) d = dirty;
    }
  }

  std::size_t occupancy() const {
    std::size_t n = 0;
    for (const auto& [index, set] : sets_map_) n += set.size();
    return n;
  }

 private:
  using Set = std::list<std::pair<LineAddr, bool>>;  // front = MRU
  Set& set_of(LineAddr line) { return sets_map_[line % static_cast<LineAddr>(sets_)]; }
  const Set& set_of(LineAddr line) const {
    static const Set kEmpty;
    const auto it = sets_map_.find(line % static_cast<LineAddr>(sets_));
    return it == sets_map_.end() ? kEmpty : it->second;
  }

  int sets_;
  int ways_;
  std::map<LineAddr, Set> sets_map_;
};

/// One fuzz stream: geometry, the lines it draws and how often it picks
/// each operation.
struct StreamShape {
  int sets;
  int ways;
  /// Lines come from `hot_sets` sets (all sets when 0) and
  /// `lines_per_set` distinct tags in each.
  int hot_sets;
  int lines_per_set;
  int insert_weight, touch_weight, invalidate_weight, dirty_weight;
};

void run_stream(const StreamShape& shape, std::uint64_t seed, int ops) {
  L2Cache l2(L2Geometry{shape.sets, shape.ways});
  ReferenceL2 ref(shape.sets, shape.ways);
  util::Rng rng(seed);
  std::vector<LineAddr> hot;
  for (int i = 0; i < shape.hot_sets; ++i) {
    hot.push_back(rng.below(static_cast<std::uint64_t>(shape.sets)));
  }
  const auto sets = static_cast<LineAddr>(shape.sets);
  const std::uint64_t total =
      static_cast<std::uint64_t>(shape.insert_weight + shape.touch_weight +
                                 shape.invalidate_weight + shape.dirty_weight);

  for (int op = 0; op < ops; ++op) {
    LineAddr line = 0;
    if (hot.empty()) {
      line = rng.below(sets * static_cast<LineAddr>(shape.lines_per_set));
    } else {
      const LineAddr tag = rng.below(static_cast<std::uint64_t>(shape.lines_per_set));
      line = tag * sets + hot[rng.below(hot.size())];
    }
    auto pick = static_cast<int>(rng.below(total));
    if ((pick -= shape.insert_weight) < 0) {
      const bool dirty = rng.chance(0.5);
      const auto got = l2.insert(line, dirty);
      const auto want = ref.insert(line, dirty);
      ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
      if (got.has_value()) {
        EXPECT_EQ(got->line, want->line) << "op " << op;
        EXPECT_EQ(got->dirty, want->dirty) << "op " << op;
      }
    } else if ((pick -= shape.touch_weight) < 0) {
      l2.touch(line);
      ref.touch(line);
    } else if ((pick -= shape.invalidate_weight) < 0) {
      const auto got = l2.invalidate(line);
      const auto want = ref.invalidate(line);
      ASSERT_EQ(got, want) << "op " << op;
    } else {
      const bool dirty = rng.chance(0.5);
      l2.set_dirty(line, dirty);
      ref.set_dirty(line, dirty);
    }
    ASSERT_EQ(l2.contains(line), ref.contains(line)) << "op " << op;
    ASSERT_EQ(l2.is_dirty(line), ref.is_dirty(line)) << "op " << op;
    ASSERT_EQ(l2.occupancy(), ref.occupancy()) << "op " << op;
  }
  // Lines of sets the stream never touched are absent.
  for (int i = 0; i < 1000; ++i) {
    const LineAddr line = rng();
    ASSERT_EQ(l2.contains(line), ref.contains(line)) << "probe " << line;
  }
}

class L2Fuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(L2Fuzz, MatchesReferenceModel) {
  // Small address pool so sets actually thrash; uniform operation mix.
  run_stream(StreamShape{8, 4, 0, 12, 1, 1, 1, 1}, GetParam(), 20000);
}

TEST_P(L2Fuzz, MatchesReferenceUnderInvalidateHeavyStream) {
  // Invalidations punch holes all over full sets, so inserts keep
  // choosing between the first hole and the LRU way.
  run_stream(StreamShape{8, 4, 0, 8, 4, 1, 4, 1}, GetParam(), 20000);
  run_stream(StreamShape{4, 16, 0, 24, 3, 1, 2, 1}, GetParam() + 100, 20000);
}

TEST_P(L2Fuzz, MatchesReferenceUnderSparseStream) {
  // Full Skylake-SP geometry, but the stream lives in three sets (the
  // eviction-set shape), leaving the other 1021 never allocated.
  run_stream(StreamShape{1024, 16, 3, 40, 4, 1, 2, 1}, GetParam(), 20000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, L2Fuzz, ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace corelocate::cache
