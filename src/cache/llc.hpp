#pragma once
// Sliced last-level cache.
//
// Each active CHA fronts one LLC slice. The LLC is non-inclusive of L2
// (Skylake-SP changed to a victim LLC): lines arrive mostly as L2
// write-back victims. Every coherence request for a line is looked up at
// the line's home slice; the per-slice lookup tally is the ground truth
// behind the LLC_LOOKUP PMON event the paper's step 1 keys on.

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/lru_sets.hpp"
#include "cache/slice_hash.hpp"

namespace corelocate::cache {

struct LlcGeometry {
  int sets = 2048;
  int ways = 11;
};

/// One LLC slice (set-associative, true LRU).
class LlcSlice {
 public:
  explicit LlcSlice(LlcGeometry geometry = {});

  bool contains(LineAddr line) const noexcept;
  void touch(LineAddr line) noexcept;

  /// Inserts a line; returns the evicted victim line if the set was full.
  std::optional<LineAddr> insert(LineAddr line);

  /// Removes a line if present; returns whether it was there.
  bool remove(LineAddr line) noexcept;

  std::size_t occupancy() const noexcept { return tags_.occupancy(); }

 private:
  int set_of(LineAddr line) const noexcept;
  int find(LineAddr line) const noexcept { return tags_.find(set_of(line), line); }

  LlcGeometry geometry_;
  LruSets tags_;
};

/// All slices of a socket plus the per-CHA lookup tallies.
class SlicedLlc {
 public:
  SlicedLlc(int slice_count, LlcGeometry geometry = {});

  int slice_count() const noexcept { return static_cast<int>(slices_.size()); }

  LlcSlice& slice(int cha_id);
  const LlcSlice& slice(int cha_id) const;

  /// Records one directory/cache lookup at the slice (any request type).
  void count_lookup(int cha_id);

  std::uint64_t lookups(int cha_id) const;

 private:
  std::vector<LlcSlice> slices_;
  std::vector<std::uint64_t> lookup_counts_;
};

}  // namespace corelocate::cache
