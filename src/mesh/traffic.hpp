#pragma once
// Ground-truth accounting of mesh data-ring occupancy.
//
// TrafficRecorder accumulates, per tile and per channel label, the number
// of cycles the BL (data) ring ingress was busy — the quantity the
// VERT_RING_BL_IN_USE / HORZ_RING_BL_IN_USE uncore events count. The
// recorder itself is omniscient: it tracks every tile, including disabled
// ones. Visibility restrictions (dead PMON on fused-off tiles) are applied
// by the uncore PMON model that fronts this recorder.

#include <array>
#include <cstdint>
#include <vector>

#include "mesh/routing.hpp"

namespace corelocate::mesh {

constexpr int kChannelCount = 4;

constexpr int channel_index(ChannelLabel label) noexcept {
  return static_cast<int>(label);
}

/// Per-tile, per-channel busy-cycle counters.
class TrafficRecorder {
 public:
  explicit TrafficRecorder(const TileGrid& grid);

  /// Charges `cycles` of ring occupancy to every ingress event of `route`.
  void inject(const Route& route, std::uint64_t cycles);

  /// Charges `cycles` to every ingress event of the YX route from `source`
  /// to `sink`, exactly as inject(route_yx(grid, source, sink), cycles)
  /// would, without materializing the route. Throws std::out_of_range if
  /// either endpoint lies outside the grid.
  void inject_yx(const Coord& source, const Coord& sink, std::uint64_t cycles);

  /// Charges a single ingress event (used for background-noise injection).
  void inject_event(const IngressEvent& event, std::uint64_t cycles);

  std::uint64_t cycles(const Coord& tile, ChannelLabel label) const;

  /// Sum over all four channels at a tile.
  std::uint64_t total_cycles(const Coord& tile) const;

  /// Sum over every tile and channel (useful as a "was there any mesh
  /// traffic at all" probe in tests).
  std::uint64_t grand_total() const noexcept;

  void reset() noexcept;

  int rows() const noexcept { return rows_; }
  int cols() const noexcept { return cols_; }

 private:
  /// Bounds-checked index(); throws std::out_of_range.
  std::size_t slot(const Coord& tile, ChannelLabel label) const;
  std::size_t index(const Coord& tile, ChannelLabel label) const noexcept {
    const std::size_t tile_index =
        static_cast<std::size_t>(tile.row) * static_cast<std::size_t>(cols_) +
        static_cast<std::size_t>(tile.col);
    return tile_index * kChannelCount + static_cast<std::size_t>(channel_index(label));
  }
  bool in_bounds(const Coord& tile) const noexcept {
    return tile.row >= 0 && tile.row < rows_ && tile.col >= 0 && tile.col < cols_;
  }

  int rows_;
  int cols_;
  std::vector<std::uint64_t> counters_;  // rows*cols*kChannelCount
};

}  // namespace corelocate::mesh
