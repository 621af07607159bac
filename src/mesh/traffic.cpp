#include "mesh/traffic.hpp"

#include <numeric>

namespace corelocate::mesh {

TrafficRecorder::TrafficRecorder(const TileGrid& grid)
    : rows_(grid.rows()), cols_(grid.cols()) {
  counters_.assign(static_cast<std::size_t>(rows_) * static_cast<std::size_t>(cols_) *
                       kChannelCount,
                   0);
}

std::size_t TrafficRecorder::slot(const Coord& tile, ChannelLabel label) const {
  if (!in_bounds(tile)) {
    throw std::out_of_range("TrafficRecorder: coord out of bounds " + to_string(tile));
  }
  return index(tile, label);
}

void TrafficRecorder::inject(const Route& route, std::uint64_t cycles) {
  for (const Hop& hop : route.hops) {
    counters_[slot(hop.receiver, ingress_label(hop.direction, hop.receiver))] += cycles;
  }
}

void TrafficRecorder::inject_yx(const Coord& source, const Coord& sink,
                                std::uint64_t cycles) {
  if (!in_bounds(source) || !in_bounds(sink)) {
    throw std::out_of_range("TrafficRecorder::inject_yx: endpoint out of bounds");
  }
  for_each_yx_hop(source, sink, [&](const Hop& hop) {
    counters_[index(hop.receiver, ingress_label(hop.direction, hop.receiver))] += cycles;
  });
}

void TrafficRecorder::inject_event(const IngressEvent& event, std::uint64_t cycles) {
  counters_[slot(event.tile, event.label)] += cycles;
}

std::uint64_t TrafficRecorder::cycles(const Coord& tile, ChannelLabel label) const {
  return counters_[slot(tile, label)];
}

std::uint64_t TrafficRecorder::total_cycles(const Coord& tile) const {
  std::uint64_t sum = 0;
  sum += cycles(tile, ChannelLabel::kUp);
  sum += cycles(tile, ChannelLabel::kDown);
  sum += cycles(tile, ChannelLabel::kLeft);
  sum += cycles(tile, ChannelLabel::kRight);
  return sum;
}

std::uint64_t TrafficRecorder::grand_total() const noexcept {
  return std::accumulate(counters_.begin(), counters_.end(), std::uint64_t{0});
}

void TrafficRecorder::reset() noexcept {
  std::fill(counters_.begin(), counters_.end(), 0);
}

}  // namespace corelocate::mesh
