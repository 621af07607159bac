#include "mesh/routing.hpp"

#include <cstdlib>

namespace corelocate::mesh {

const char* to_string(Direction d) {
  switch (d) {
    case Direction::kUp: return "up";
    case Direction::kDown: return "down";
    case Direction::kEast: return "east";
    case Direction::kWest: return "west";
  }
  return "?";
}

const char* to_string(ChannelLabel label) {
  switch (label) {
    case ChannelLabel::kUp: return "UP";
    case ChannelLabel::kDown: return "DN";
    case ChannelLabel::kLeft: return "LF";
    case ChannelLabel::kRight: return "RT";
  }
  return "?";
}

Route route_yx(const TileGrid& grid, const Coord& source, const Coord& sink) {
  if (!grid.in_bounds(source) || !grid.in_bounds(sink)) {
    throw std::out_of_range("route_yx: endpoint out of bounds");
  }
  Route route;
  route.source = source;
  route.sink = sink;
  // YX routing takes exactly one hop per row step plus one per column step.
  route.hops.reserve(static_cast<std::size_t>(std::abs(sink.row - source.row)) +
                     static_cast<std::size_t>(std::abs(sink.col - source.col)));

  for_each_yx_hop(source, sink, [&](const Hop& hop) { route.hops.push_back(hop); });
  return route;
}

std::vector<IngressEvent> ingress_events(const Route& route) {
  std::vector<IngressEvent> events;
  events.reserve(route.hops.size());
  for (const Hop& hop : route.hops) {
    events.push_back(IngressEvent{hop.receiver, ingress_label(hop.direction, hop.receiver)});
  }
  return events;
}

}  // namespace corelocate::mesh
