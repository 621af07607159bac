#include "cache/llc.hpp"

#include <stdexcept>

namespace corelocate::cache {

LlcSlice::LlcSlice(LlcGeometry geometry)
    : geometry_(geometry), tags_(geometry.sets, geometry.ways, "LlcSlice") {}

int LlcSlice::set_of(LineAddr line) const noexcept {
  // Slices index with line-address bits above the L2's (keeps the slice
  // sets from aliasing the L2 sets one-to-one).
  return static_cast<int>((line >> 2) & static_cast<LineAddr>(geometry_.sets - 1));
}

bool LlcSlice::contains(LineAddr line) const noexcept { return find(line) >= 0; }

void LlcSlice::touch(LineAddr line) noexcept {
  const int way = find(line);
  if (way >= 0) tags_.touch(way);
}

std::optional<LineAddr> LlcSlice::insert(LineAddr line) {
  const LruSets::Fill fill = tags_.insert(set_of(line), line);
  if (!fill.evicted) return std::nullopt;
  return fill.victim;
}

bool LlcSlice::remove(LineAddr line) noexcept {
  const int way = find(line);
  if (way < 0) return false;
  tags_.erase(way);
  return true;
}

SlicedLlc::SlicedLlc(int slice_count, LlcGeometry geometry) {
  if (slice_count <= 0) throw std::invalid_argument("SlicedLlc: need >= 1 slice");
  slices_.assign(static_cast<std::size_t>(slice_count), LlcSlice{geometry});
  lookup_counts_.assign(static_cast<std::size_t>(slice_count), 0);
}

LlcSlice& SlicedLlc::slice(int cha_id) {
  return slices_.at(static_cast<std::size_t>(cha_id));
}

const LlcSlice& SlicedLlc::slice(int cha_id) const {
  return slices_.at(static_cast<std::size_t>(cha_id));
}

void SlicedLlc::count_lookup(int cha_id) {
  ++lookup_counts_.at(static_cast<std::size_t>(cha_id));
}

std::uint64_t SlicedLlc::lookups(int cha_id) const {
  return lookup_counts_.at(static_cast<std::size_t>(cha_id));
}

}  // namespace corelocate::cache
