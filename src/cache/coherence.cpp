#include "cache/coherence.hpp"

#include <bit>
#include <stdexcept>
#include <utility>

namespace corelocate::cache {

CoherenceEngine::Directory::Directory() : slots_(1024), shift_(64 - 10) {}

std::size_t CoherenceEngine::Directory::home(LineAddr line) const noexcept {
  // Fibonacci hashing: eviction-set lines share their low (set-index)
  // bits, so the multiply must carry high bits down into the index.
  return static_cast<std::size_t>((line * 0x9E3779B97F4A7C15ULL) >> shift_);
}

CoherenceEngine::DirEntry& CoherenceEngine::Directory::operator[](LineAddr line) {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(line);; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.entry.owner == kFree) {
      if (2 * (size_ + 1) > slots_.size()) {
        grow();
        return (*this)[line];
      }
      ++size_;
      slot.line = line;
      slot.entry = DirEntry{};
      return slot.entry;
    }
    if (slot.line == line) return slot.entry;
  }
}

const CoherenceEngine::DirEntry* CoherenceEngine::Directory::find(
    LineAddr line) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(line);; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.entry.owner == kFree) return nullptr;
    if (slot.line == line) return &slot.entry;
  }
}

void CoherenceEngine::Directory::grow() {
  const std::vector<Slot> old =
      std::exchange(slots_, std::vector<Slot>(slots_.size() * 2));
  --shift_;
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.entry.owner == kFree) continue;
    std::size_t i = home(slot.line);
    while (slots_[i].entry.owner != kFree) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

CoherenceEngine::CoherenceEngine(Topology topology, SliceHash hash,
                                 mesh::TrafficRecorder& traffic, SlicedLlc& llc,
                                 L2Geometry l2_geometry)
    : topology_(std::move(topology)), hash_(hash), traffic_(traffic), llc_(llc) {
  if (topology_.core_tiles.empty()) throw std::invalid_argument("CoherenceEngine: no cores");
  if (static_cast<int>(topology_.cha_tiles.size()) != hash_.slice_count()) {
    throw std::invalid_argument("CoherenceEngine: CHA count != slice count");
  }
  if (topology_.core_tiles.size() > 64) {
    throw std::invalid_argument("CoherenceEngine: sharer bitmask supports <= 64 cores");
  }
  l2s_.assign(topology_.core_tiles.size(), L2Cache{l2_geometry});
}

bool CoherenceEngine::owned_by(int core, LineAddr line) const {
  const DirEntry* entry = directory_.find(line);
  return entry != nullptr && entry->owner == core;
}

void CoherenceEngine::send_data(const mesh::Coord& from, const mesh::Coord& to) {
  if (from == to) return;  // same tile: no mesh hops
  traffic_.inject_yx(from, to, kCyclesPerTransfer);
}

mesh::Coord CoherenceEngine::imc_for(LineAddr line) const {
  if (topology_.imc_tiles.empty()) {
    // Degenerate dies without modelled IMC tiles: memory appears at the
    // home slice, i.e. no extra mesh leg.
    return topology_.cha_tiles[static_cast<std::size_t>(home_of(line))];
  }
  const std::size_t pick =
      static_cast<std::size_t>(line >> 24) % topology_.imc_tiles.size();
  return topology_.imc_tiles[pick];
}

void CoherenceEngine::writeback_to_llc(int core, LineAddr line) {
  const int home = home_of(line);
  const mesh::Coord home_tile = topology_.cha_tiles[static_cast<std::size_t>(home)];
  llc_.count_lookup(home);
  send_data(topology_.core_tiles[static_cast<std::size_t>(core)], home_tile);
  if (const auto llc_victim = llc_.slice(home).insert(line); llc_victim.has_value()) {
    // Dirty LLC victim drains to memory through an IMC tile.
    send_data(home_tile, imc_for(*llc_victim));
  }
}

void CoherenceEngine::fill_l2(int core, LineAddr line, bool dirty) {
  const auto victim = l2s_[static_cast<std::size_t>(core)].insert(line, dirty);
  if (!victim.has_value()) return;
  // Callers finish with their own entry before calling here: this lookup
  // may grow the directory, which moves every entry.
  auto& entry = directory_[victim->line];
  if (victim->dirty) {
    writeback_to_llc(core, victim->line);
    if (entry.owner == core) entry.owner = -1;
  }
  entry.sharers &= ~(1ULL << core);
  if (entry.owner == core && !victim->dirty) entry.owner = -1;
}

void CoherenceEngine::invalidate_sharers(LineAddr line, DirEntry& entry, int except_core) {
  std::uint64_t sharers = entry.sharers;
  while (sharers != 0) {
    const int core = std::countr_zero(sharers);
    sharers &= sharers - 1;
    if (core == except_core) continue;
    l2s_[static_cast<std::size_t>(core)].invalidate(line);
  }
  entry.sharers &= (except_core >= 0) ? (1ULL << except_core) : 0ULL;
}

void CoherenceEngine::write(int core, LineAddr line) {
  auto& entry = directory_[line];
  L2Cache& l2 = l2s_[static_cast<std::size_t>(core)];
  const std::uint64_t self_bit = 1ULL << core;

  if (entry.owner == core && l2.contains(line)) {
    l2.touch(line);
    l2.set_dirty(line, true);
    return;  // pure L2 hit in Modified: invisible to the uncore
  }

  const int home = home_of(line);
  const mesh::Coord home_tile = topology_.cha_tiles[static_cast<std::size_t>(home)];
  const mesh::Coord core_tile = topology_.core_tiles[static_cast<std::size_t>(core)];
  llc_.count_lookup(home);

  if (entry.owner != -1 && entry.owner != core) {
    // RFO hits a remote Modified copy: the owner forwards the line.
    const int owner = entry.owner;
    l2s_[static_cast<std::size_t>(owner)].invalidate(line);
    send_data(topology_.core_tiles[static_cast<std::size_t>(owner)], core_tile);
    entry.owner = core;
    entry.sharers = self_bit;
    fill_l2(core, line, /*dirty=*/true);
    return;
  }

  if ((entry.sharers & self_bit) != 0 && l2.contains(line)) {
    // Upgrade: we already hold a Shared copy; invalidations ride the IV
    // ring, so no BL traffic.
    invalidate_sharers(line, entry, core);
    entry.owner = core;
    l2.touch(line);
    l2.set_dirty(line, true);
    return;
  }

  invalidate_sharers(line, entry, -1);
  if (llc_.slice(home).contains(line)) {
    // RFO satisfied from the home LLC slice; a Modified fetch removes the
    // line from the (non-inclusive) LLC.
    llc_.slice(home).remove(line);
    send_data(home_tile, core_tile);
  } else {
    // Memory fetch through an IMC tile.
    send_data(imc_for(line), core_tile);
  }
  entry.owner = core;
  entry.sharers = self_bit;
  fill_l2(core, line, /*dirty=*/true);
}

void CoherenceEngine::read(int core, LineAddr line) {
  auto& entry = directory_[line];
  L2Cache& l2 = l2s_[static_cast<std::size_t>(core)];
  const std::uint64_t self_bit = 1ULL << core;

  if (l2.contains(line) && (entry.owner == core || (entry.sharers & self_bit) != 0)) {
    l2.touch(line);
    return;  // L2 hit
  }

  const int home = home_of(line);
  const mesh::Coord home_tile = topology_.cha_tiles[static_cast<std::size_t>(home)];
  const mesh::Coord core_tile = topology_.core_tiles[static_cast<std::size_t>(core)];
  llc_.count_lookup(home);

  if (entry.owner != -1 && entry.owner != core) {
    // Remote Modified: owner forwards the data to the reader and writes
    // the dirty line back to the home slice; both are BL transfers.
    const int owner = entry.owner;
    const mesh::Coord owner_tile = topology_.core_tiles[static_cast<std::size_t>(owner)];
    send_data(owner_tile, core_tile);
    llc_.count_lookup(home);
    send_data(owner_tile, home_tile);
    llc_.slice(home).insert(line);
    l2s_[static_cast<std::size_t>(owner)].set_dirty(line, false);
    entry.owner = -1;
    entry.sharers |= (1ULL << owner) | self_bit;
    fill_l2(core, line, /*dirty=*/false);
    return;
  }

  if (llc_.slice(home).contains(line)) {
    llc_.slice(home).touch(line);
    send_data(home_tile, core_tile);
  } else {
    send_data(imc_for(line), core_tile);
  }
  entry.sharers |= self_bit;
  fill_l2(core, line, /*dirty=*/false);
}

}  // namespace corelocate::cache
