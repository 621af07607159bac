#pragma once
// Per-core private L2 cache: set-associative with true-LRU replacement.
//
// Geometry defaults follow Skylake-SP (1 MiB, 16-way, 64 B lines =>
// 1024 sets). The L2 matters to the reproduction because *slice eviction
// sets* (paper Sec. II-A) are built from lines sharing one L2 set: cycling
// through more lines than the associativity forces evictions toward one
// targeted LLC slice.

#include <cstdint>
#include <optional>

#include "cache/lru_sets.hpp"
#include "cache/slice_hash.hpp"

namespace corelocate::cache {

struct L2Geometry {
  int sets = 1024;
  int ways = 16;
};

class L2Cache {
 public:
  explicit L2Cache(L2Geometry geometry = {});

  int sets() const noexcept { return geometry_.sets; }
  int ways() const noexcept { return geometry_.ways; }

  /// Set index a line maps to.
  int set_of(LineAddr line) const noexcept;

  bool contains(LineAddr line) const noexcept;
  bool is_dirty(LineAddr line) const noexcept;

  /// Marks the line most-recently-used; no-op if absent.
  void touch(LineAddr line) noexcept;

  /// Sets/clears the dirty bit; no-op if absent.
  void set_dirty(LineAddr line, bool dirty) noexcept;

  /// A line pushed out by insert(), with its dirtiness.
  struct Victim {
    LineAddr line;
    bool dirty;
  };

  /// Inserts a line (MRU). Returns the evicted victim if the set was full.
  /// Inserting a line already present just touches it (keeps dirtiness OR).
  std::optional<Victim> insert(LineAddr line, bool dirty);

  /// Removes a line (coherence invalidation). Returns its dirtiness, or
  /// nullopt if absent.
  std::optional<bool> invalidate(LineAddr line) noexcept;

  /// Number of resident lines.
  std::size_t occupancy() const noexcept { return tags_.occupancy(); }

 private:
  int find(LineAddr line) const noexcept { return tags_.find(set_of(line), line); }

  L2Geometry geometry_;
  LruSets tags_;  // flag byte = dirty bit
};

}  // namespace corelocate::cache
