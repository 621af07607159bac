#include "cache/l2.hpp"

namespace corelocate::cache {

L2Cache::L2Cache(L2Geometry geometry)
    : geometry_(geometry), tags_(geometry.sets, geometry.ways, "L2Cache") {}

int L2Cache::set_of(LineAddr line) const noexcept {
  return static_cast<int>(line & static_cast<LineAddr>(geometry_.sets - 1));
}

bool L2Cache::contains(LineAddr line) const noexcept { return find(line) >= 0; }

bool L2Cache::is_dirty(LineAddr line) const noexcept {
  const int way = find(line);
  return way >= 0 && tags_.flag(way) != 0;
}

void L2Cache::touch(LineAddr line) noexcept {
  const int way = find(line);
  if (way >= 0) tags_.touch(way);
}

void L2Cache::set_dirty(LineAddr line, bool dirty) noexcept {
  const int way = find(line);
  if (way >= 0) tags_.flag(way) = dirty ? 1 : 0;
}

std::optional<L2Cache::Victim> L2Cache::insert(LineAddr line, bool dirty) {
  const LruSets::Fill fill = tags_.insert(set_of(line), line);
  if (fill.hit) {
    tags_.flag(fill.way) |= dirty ? 1 : 0;
    return std::nullopt;
  }
  tags_.flag(fill.way) = dirty ? 1 : 0;
  if (!fill.evicted) return std::nullopt;
  return Victim{fill.victim, fill.victim_flag != 0};
}

std::optional<bool> L2Cache::invalidate(LineAddr line) noexcept {
  const int way = find(line);
  if (way < 0) return std::nullopt;
  const bool dirty = tags_.flag(way) != 0;
  tags_.erase(way);
  return dirty;
}

}  // namespace corelocate::cache
