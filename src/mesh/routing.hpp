#pragma once
// Dimension-order (Y-then-X) routing on the Xeon mesh, and the channel
// *label* model that makes horizontal direction unobservable.
//
// A packet first travels vertically along the source column until it
// reaches the sink row, then horizontally along the sink row (paper
// Sec. II). Every tile that *receives* a hop records one ingress event on
// a labelled channel:
//   - vertical ingress is labelled Up or Down — the true direction;
//   - horizontal ingress is labelled Left or Right, but because the core
//     tiles in every odd column are mirrored on the physical die, the
//     label alternates with the receiving column's parity. The same label
//     sequence is produced by an eastbound and a westbound packet, so the
//     label does not reveal the direction (paper Sec. II-C.4).

#include <cstdint>
#include <vector>

#include "mesh/grid.hpp"

namespace corelocate::mesh {

/// Physical travel direction of a hop.
enum class Direction : std::uint8_t { kUp, kDown, kEast, kWest };

const char* to_string(Direction d);

/// Observable ring-ingress channel label (what uncore PMON reports).
enum class ChannelLabel : std::uint8_t { kUp, kDown, kLeft, kRight };

const char* to_string(ChannelLabel label);

constexpr bool is_vertical(ChannelLabel label) noexcept {
  return label == ChannelLabel::kUp || label == ChannelLabel::kDown;
}
constexpr bool is_horizontal(ChannelLabel label) noexcept { return !is_vertical(label); }

/// Maps a physical hop to the label its *receiving* tile observes.
/// Vertical hops keep their direction. Horizontal hops alternate with the
/// receiving column's parity: an eastbound packet shows up as Right in
/// even columns and Left in odd columns; westbound is the mirror image.
constexpr ChannelLabel ingress_label(Direction direction,
                                     const Coord& receiver) noexcept {
  switch (direction) {
    case Direction::kUp: return ChannelLabel::kUp;
    case Direction::kDown: return ChannelLabel::kDown;
    case Direction::kEast:
      return (receiver.col % 2 == 0) ? ChannelLabel::kRight : ChannelLabel::kLeft;
    case Direction::kWest:
      return (receiver.col % 2 == 0) ? ChannelLabel::kLeft : ChannelLabel::kRight;
  }
  return ChannelLabel::kUp;
}

/// One hop of a route: the receiving tile and the physical direction the
/// packet was travelling when it arrived there.
struct Hop {
  Coord receiver;
  Direction direction{Direction::kUp};

  friend bool operator==(const Hop&, const Hop&) = default;
};

/// A complete source->sink route. `hops` lists every receiving tile in
/// travel order (the sink is the last entry; the source receives nothing).
struct Route {
  Coord source;
  Coord sink;
  std::vector<Hop> hops;

  bool empty() const noexcept { return hops.empty(); }
  int length() const noexcept { return static_cast<int>(hops.size()); }
};

/// Calls `visit(hop)` for every hop of the dimension-order route from
/// `source` to `sink`, in travel order: the one definition of YX routing,
/// which route_yx collects and TrafficRecorder::inject_yx charges
/// directly. Does not bounds-check.
template <typename Visit>
void for_each_yx_hop(Coord source, const Coord& sink, Visit&& visit) {
  // Vertical leg along the source column. "Up" means towards row 0.
  while (source.row != sink.row) {
    const bool up = sink.row < source.row;
    source.row += up ? -1 : 1;
    visit(Hop{source, up ? Direction::kUp : Direction::kDown});
  }
  // Horizontal leg along the sink row. "East" means increasing column.
  while (source.col != sink.col) {
    const bool east = sink.col > source.col;
    source.col += east ? 1 : -1;
    visit(Hop{source, east ? Direction::kEast : Direction::kWest});
  }
}

/// Computes the dimension-order route from `source` to `sink`.
/// Both coordinates must be in bounds; source == sink yields an empty route.
Route route_yx(const TileGrid& grid, const Coord& source, const Coord& sink);

/// One observable ingress event: a tile saw traffic on a labelled channel.
struct IngressEvent {
  Coord tile;
  ChannelLabel label{ChannelLabel::kUp};

  friend bool operator==(const IngressEvent&, const IngressEvent&) = default;
};

/// Expands a route into the ingress events every on-path tile records
/// (including tiles whose PMON is dead — visibility filtering is the
/// uncore model's job, not the router's).
std::vector<IngressEvent> ingress_events(const Route& route);

}  // namespace corelocate::mesh
