#pragma once
// The tag store L2Cache and LlcSlice share: a set-associative array with
// true-LRU replacement whose sets are allocated on first insert.
//
// Each set has an int32 slot (-1 = never filled) pointing at `ways`
// consecutive entries of three parallel pools: line tags, LRU stamps and
// one flag byte per way for the owning cache's use (the L2 keeps its dirty
// bit there). A stamp of 0 marks an empty way; every fill or touch writes
// a fresh, strictly increasing stamp >= 1. An instance therefore pays only
// for the sets its workload touches, four bytes for every other one.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/slice_hash.hpp"

namespace corelocate::cache {

class LruSets {
 public:
  /// `who` prefixes the geometry errors ("L2Cache", "LlcSlice").
  LruSets(int sets, int ways, const char* who) : ways_(ways) {
    if (sets <= 0 || ways <= 0) {
      throw std::invalid_argument(std::string(who) + ": non-positive geometry");
    }
    if ((sets & (sets - 1)) != 0) {
      throw std::invalid_argument(std::string(who) +
                                  ": set count must be a power of two");
    }
    if (ways > std::numeric_limits<std::int32_t>::max() / sets) {
      throw std::invalid_argument(std::string(who) +
                                  ": sets * ways overflows the way index");
    }
    slot_.assign(static_cast<std::size_t>(sets), -1);
  }

  /// Index of the way holding `line` in `set`, or -1.
  int find(int set, LineAddr line) const noexcept {
    const std::int32_t base = slot_[static_cast<std::size_t>(set)];
    if (base < 0) return -1;
    for (int w = base; w < base + ways_; ++w) {
      const auto i = static_cast<std::size_t>(w);
      if (lines_[i] == line && stamps_[i] != 0) return w;
    }
    return -1;
  }

  /// Marks a resident way most-recently-used.
  void touch(int way) noexcept { stamps_[static_cast<std::size_t>(way)] = ++clock_; }

  std::uint8_t& flag(int way) noexcept { return flags_[static_cast<std::size_t>(way)]; }
  std::uint8_t flag(int way) const noexcept {
    return flags_[static_cast<std::size_t>(way)];
  }

  /// Empties a resident way.
  void erase(int way) noexcept {
    stamps_[static_cast<std::size_t>(way)] = 0;
    flags_[static_cast<std::size_t>(way)] = 0;
    --occupancy_;
  }

  struct Fill {
    int way = -1;                  ///< where the line now lives
    bool hit = false;              ///< it was already resident and was only touched
    bool evicted = false;          ///< a resident line was pushed out to make room
    LineAddr victim = 0;           ///< that line, when `evicted`
    std::uint8_t victim_flag = 0;  ///< its flag byte, when `evicted`
  };

  /// Makes `line` the MRU way of `set`. A miss takes the first empty way,
  /// else the least-recently-used one, and clears the way's flag.
  Fill insert(int set, LineAddr line) {
    std::int32_t base = slot_[static_cast<std::size_t>(set)];
    if (base < 0) {
      base = static_cast<std::int32_t>(lines_.size());
      slot_[static_cast<std::size_t>(set)] = base;
      const std::size_t size = lines_.size() + static_cast<std::size_t>(ways_);
      lines_.resize(size);
      stamps_.resize(size);
      flags_.resize(size);
    }
    LineAddr* lines = &lines_[static_cast<std::size_t>(base)];
    std::uint64_t* stamps = &stamps_[static_cast<std::size_t>(base)];
    // One scan finds the hit, else the smallest stamp; the victim is the
    // first way holding it. Empty ways stamp 0, below every resident way,
    // and resident stamps are unique, so that is the first hole if any,
    // else the true LRU. (A running min compiles to a conditional move;
    // tracking the argmin in the scan costs a mispredicted branch.)
    std::uint64_t oldest = stamps[0];
    for (int w = 0; w < ways_; ++w) {
      if (lines[w] == line && stamps[w] != 0) {
        stamps[w] = ++clock_;
        return Fill{base + w, true, false, 0, 0};
      }
      oldest = std::min(oldest, stamps[w]);
    }
    int pick = 0;
    while (stamps[pick] != oldest) ++pick;
    const int way = base + pick;
    Fill fill{way, false, stamps[pick] != 0, lines[pick], flag(way)};
    if (!fill.evicted) ++occupancy_;
    lines[pick] = line;
    stamps[pick] = ++clock_;
    flag(way) = 0;
    return fill;
  }

  std::size_t occupancy() const noexcept { return occupancy_; }

 private:
  int ways_;
  std::vector<std::int32_t> slot_;  // per set: first way in the pools, or -1
  std::vector<LineAddr> lines_;
  std::vector<std::uint64_t> stamps_;
  std::vector<std::uint8_t> flags_;
  std::uint64_t clock_ = 0;
  std::size_t occupancy_ = 0;
};

}  // namespace corelocate::cache
