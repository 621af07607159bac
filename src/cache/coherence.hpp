#pragma once
// Directory-based coherence (MESI-lite), reduced to the transactions that
// matter for what uncore PMON can observe:
//
//  * every request for a line performs a directory/cache lookup at the
//    line's *home* CHA (ground truth for LLC_LOOKUP), and
//  * every *data* movement is one BL-ring packet routed YX between tiles
//    (ground truth for VERT/HORZ_RING_BL_IN_USE).
//
// Requests/acknowledgements travel on other rings (AD/AK/IV) that the
// paper does not monitor, so they are not modelled.
//
// The transaction set reproduces the traffic-generation recipe of paper
// Sec. II-B: with modified data in the source core's L2 and a reader on
// the sink core, each write/read round forwards the line source->sink on
// the BL ring (plus the write-back to the home slice, which the paper
// makes coincide with the sink by choosing a sink-homed line).

#include <cstdint>
#include <vector>

#include "cache/l2.hpp"
#include "cache/llc.hpp"
#include "cache/slice_hash.hpp"
#include "mesh/traffic.hpp"

namespace corelocate::cache {

/// Ring occupancy charged per hop for one 64-byte data transfer (a cache
/// line is two 32-byte BL flits).
constexpr std::uint64_t kCyclesPerTransfer = 2;

/// Where things live on the die. Core and CHA ids here are *physical slot
/// indices* — the OS-core-id and CHA-id scrambles are applied by the sim
/// layer on top.
struct Topology {
  std::vector<mesh::Coord> core_tiles;  ///< tile of each active core
  std::vector<mesh::Coord> cha_tiles;   ///< tile of each active CHA/LLC slice
  std::vector<mesh::Coord> imc_tiles;   ///< memory controller tiles
};

class CoherenceEngine {
 public:
  /// Data transfers are routed YX on the recorder's grid.
  CoherenceEngine(Topology topology, SliceHash hash, mesh::TrafficRecorder& traffic,
                  SlicedLlc& llc, L2Geometry l2_geometry = {});

  int core_count() const noexcept { return static_cast<int>(topology_.core_tiles.size()); }
  int cha_count() const noexcept { return static_cast<int>(topology_.cha_tiles.size()); }

  /// Home CHA of a line (what the undisclosed hash decides).
  int home_of(LineAddr line) const noexcept { return hash_.slice_of(line); }

  /// Core performs a load of `line`.
  void read(int core, LineAddr line);

  /// Core performs a store to `line`.
  void write(int core, LineAddr line);

  /// Test/diagnostic access.
  const L2Cache& l2(int core) const { return l2s_.at(static_cast<std::size_t>(core)); }
  bool owned_by(int core, LineAddr line) const;

 private:
  struct DirEntry {
    int owner = -1;             ///< core holding the line Modified, or -1
    std::uint64_t sharers = 0;  ///< bitmask of cores with a Shared copy
  };

  /// Flat line -> DirEntry table: open addressing with linear probing,
  /// capacity a power of two kept at most half full. Entries are never
  /// erased (a line keeps its entry once seen), so probing needs no
  /// tombstones. Growth moves every entry: a DirEntry& stays valid only
  /// until the next operator[] call.
  class Directory {
   public:
    Directory();
    /// The line's entry, default-constructed on first use.
    DirEntry& operator[](LineAddr line);
    /// The line's entry, or nullptr if the line was never looked up.
    const DirEntry* find(LineAddr line) const noexcept;

   private:
    /// An unused slot holds owner == kFree, a value no entry ever takes.
    static constexpr int kFree = -2;
    struct Slot {
      LineAddr line = 0;
      DirEntry entry{kFree, 0};
    };

    std::size_t home(LineAddr line) const noexcept;
    void grow();

    std::vector<Slot> slots_;
    int shift_;  ///< 64 - log2(capacity)
    std::size_t size_ = 0;
  };

  void send_data(const mesh::Coord& from, const mesh::Coord& to);
  void fill_l2(int core, LineAddr line, bool dirty);
  void writeback_to_llc(int core, LineAddr line);
  void invalidate_sharers(LineAddr line, DirEntry& entry, int except_core);
  mesh::Coord imc_for(LineAddr line) const;

  Topology topology_;
  SliceHash hash_;
  mesh::TrafficRecorder& traffic_;
  SlicedLlc& llc_;
  std::vector<L2Cache> l2s_;
  Directory directory_;
};

}  // namespace corelocate::cache
