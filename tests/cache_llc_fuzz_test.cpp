// Reference-model fuzz for an LLC slice: the set-associative LRU slice
// must behave identically to an obviously-correct map/list reference
// under long random operation streams, dense and sparse.

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <vector>

#include "cache/llc.hpp"
#include "util/rng.hpp"

namespace corelocate::cache {
namespace {

/// Obviously-correct per-set LRU reference. A slice indexes its sets with
/// line bits [2, 2 + log2(sets)) (see LlcSlice::set_of).
class ReferenceLlc {
 public:
  ReferenceLlc(int sets, int ways) : sets_(sets), ways_(ways) {}

  bool contains(LineAddr line) const {
    const auto it = sets_map_.find(index_of(line));
    if (it == sets_map_.end()) return false;
    for (const LineAddr l : it->second) {
      if (l == line) return true;
    }
    return false;
  }

  void touch(LineAddr line) {
    auto& set = sets_map_[index_of(line)];
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (*it == line) {
        set.splice(set.begin(), set, it);  // move to MRU (front)
        return;
      }
    }
  }

  std::optional<LineAddr> insert(LineAddr line) {
    auto& set = sets_map_[index_of(line)];
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (*it == line) {
        set.splice(set.begin(), set, it);
        return std::nullopt;
      }
    }
    std::optional<LineAddr> victim;
    if (static_cast<int>(set.size()) == ways_) {
      victim = set.back();
      set.pop_back();
    }
    set.push_front(line);
    return victim;
  }

  bool remove(LineAddr line) {
    auto& set = sets_map_[index_of(line)];
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (*it == line) {
        set.erase(it);
        return true;
      }
    }
    return false;
  }

  std::size_t occupancy() const {
    std::size_t n = 0;
    for (const auto& [index, set] : sets_map_) n += set.size();
    return n;
  }

 private:
  LineAddr index_of(LineAddr line) const {
    return (line >> 2) % static_cast<LineAddr>(sets_);
  }

  int sets_;
  int ways_;
  std::map<LineAddr, std::list<LineAddr>> sets_map_;  // front = MRU
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
  int insert_weight, touch_weight, remove_weight;
};

/// A line of set `set` with tag `tag`: the set index sits in bits
/// [2, 2 + log2(sets)), the tag above it, and bit 0 is `low`.
LineAddr line_in(LineAddr set, LineAddr tag, LineAddr low, int sets) {
  return (tag * static_cast<LineAddr>(sets) + set) << 2 | low;
}

void run_stream(const StreamShape& shape, std::uint64_t seed, int ops) {
  LlcSlice slice(LlcGeometry{shape.sets, shape.ways});
  ReferenceLlc ref(shape.sets, shape.ways);
  util::Rng rng(seed);
  std::vector<LineAddr> hot;
  for (int i = 0; i < shape.hot_sets; ++i) {
    hot.push_back(rng.below(static_cast<std::uint64_t>(shape.sets)));
  }
  const std::uint64_t total = static_cast<std::uint64_t>(
      shape.insert_weight + shape.touch_weight + shape.remove_weight);

  for (int op = 0; op < ops; ++op) {
    const LineAddr set = hot.empty() ? rng.below(static_cast<std::uint64_t>(shape.sets))
                                     : hot[rng.below(hot.size())];
    const LineAddr tag = rng.below(static_cast<std::uint64_t>(shape.lines_per_set));
    const LineAddr line = line_in(set, tag, rng.below(2), shape.sets);
    auto pick = static_cast<int>(rng.below(total));
    if ((pick -= shape.insert_weight) < 0) {
      ASSERT_EQ(slice.insert(line), ref.insert(line)) << "op " << op;
    } else if ((pick -= shape.touch_weight) < 0) {
      slice.touch(line);
      ref.touch(line);
    } else {
      ASSERT_EQ(slice.remove(line), ref.remove(line)) << "op " << op;
    }
    ASSERT_EQ(slice.contains(line), ref.contains(line)) << "op " << op;
    ASSERT_EQ(slice.occupancy(), ref.occupancy()) << "op " << op;
  }
  // Lines of sets the stream never touched are absent.
  for (int i = 0; i < 1000; ++i) {
    const LineAddr line = rng();
    ASSERT_EQ(slice.contains(line), ref.contains(line)) << "probe " << line;
  }
}

class LlcFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LlcFuzz, MatchesReferenceModel) {
  // Small address pool so sets thrash; inserts dominate, as write-back
  // victims do in the simulator.
  run_stream(StreamShape{8, 4, 0, 12, 2, 1, 1}, GetParam(), 20000);
}

TEST_P(LlcFuzz, MatchesReferenceUnderRemoveHeavyStream) {
  // Removals (Modified fetches) punch holes in full sets, so inserts keep
  // choosing between the first hole and the LRU way.
  run_stream(StreamShape{8, 11, 0, 20, 3, 1, 3}, GetParam(), 20000);
}

TEST_P(LlcFuzz, MatchesReferenceUnderSparseStream) {
  // Full slice geometry (2048 sets x 11 ways), stream confined to three
  // sets: the other 2045 are never allocated.
  run_stream(StreamShape{2048, 11, 3, 30, 3, 1, 1}, GetParam(), 20000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LlcFuzz, ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace corelocate::cache
