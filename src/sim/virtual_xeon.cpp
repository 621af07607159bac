#include "sim/virtual_xeon.hpp"

#include <stdexcept>

namespace corelocate::sim {

namespace {

cache::Topology topology_of(const InstanceConfig& config) {
  cache::Topology topo;
  topo.cha_tiles = config.cha_tiles;
  topo.imc_tiles = config.imc_tiles;
  topo.core_tiles.reserve(static_cast<std::size_t>(config.os_core_count()));
  for (int os = 0; os < config.os_core_count(); ++os) {
    topo.core_tiles.push_back(config.tile_of_os_core(os));
  }
  return topo;
}

}  // namespace

VirtualXeon::VirtualXeon(InstanceConfig config, NoiseProfile noise,
                         std::uint64_t noise_seed)
    : config_(std::move(config)),
      traffic_(config_.grid),
      llc_(config_.cha_count()),
      engine_(topology_of(config_),
              cache::SliceHash(config_.cha_count(), config_.slice_hash_key), traffic_,
              llc_),
      ppin_(config_.ppin),
      pmon_(config_.cha_count(), *this),
      noise_(noise),
      noise_rng_(noise_seed ^ config_.ppin) {
  // Background packets move between random live endpoints (CHA or IMC
  // tiles) the way co-tenant memory traffic would.
  noise_endpoints_ = config_.cha_tiles;
  noise_endpoints_.insert(noise_endpoints_.end(), config_.imc_tiles.begin(),
                          config_.imc_tiles.end());
  // Wire the register file: PPIN pair + the CHA PMON block.
  msr_.add_range({msr::kMsrPpinCtl, msr::kMsrPpin + 1, this,
                  [](void* self, std::uint32_t addr) {
                    return static_cast<VirtualXeon*>(self)->ppin_.read(addr);
                  },
                  [](void* self, std::uint32_t addr, std::uint64_t value) {
                    static_cast<VirtualXeon*>(self)->ppin_.write(addr, value);
                  }});
  msr_.add_range({pmon_.address_begin(), pmon_.address_end(), this,
                  [](void* self, std::uint32_t addr) {
                    return static_cast<VirtualXeon*>(self)->pmon_.read(addr);
                  },
                  [](void* self, std::uint32_t addr, std::uint64_t value) {
                    static_cast<VirtualXeon*>(self)->pmon_.write(addr, value);
                  }});
}

void VirtualXeon::check_core(int os_core) const {
  if (os_core < 0 || os_core >= os_core_count()) {
    throw std::out_of_range("VirtualXeon: bad OS core id " + std::to_string(os_core));
  }
}

void VirtualXeon::exec_read(int os_core, cache::LineAddr line) {
  check_core(os_core);
  engine_.read(os_core, line);
  maybe_inject_noise();
}

void VirtualXeon::exec_write(int os_core, cache::LineAddr line) {
  check_core(os_core);
  engine_.write(os_core, line);
  maybe_inject_noise();
}

void VirtualXeon::maybe_inject_noise() {
  if (noise_.mesh_event_rate > 0.0 && noise_rng_.chance(noise_.mesh_event_rate)) {
    background_traffic(1);
  }
  if (noise_.lookup_event_rate > 0.0 && noise_rng_.chance(noise_.lookup_event_rate)) {
    llc_.count_lookup(static_cast<int>(noise_rng_.below(
        static_cast<std::uint64_t>(config_.cha_count()))));
  }
}

void VirtualXeon::background_traffic(int packets) {
  const std::size_t n = noise_endpoints_.size();
  if (n < 2) return;
  for (int i = 0; i < packets; ++i) {
    const auto a = noise_rng_.below(n);
    auto b = noise_rng_.below(n);
    if (a == b) b = (b + 1) % n;
    traffic_.inject_yx(noise_endpoints_[a], noise_endpoints_[b],
                       cache::kCyclesPerTransfer);
  }
}

std::uint64_t VirtualXeon::event_total(int cha_id, msr::ChaEvent event,
                                       std::uint8_t umask) const {
  if (cha_id < 0 || cha_id >= cha_count()) return 0;
  const mesh::Coord tile = config_.tile_of_cha(cha_id);
  switch (event) {
    case msr::ChaEvent::kLlcLookup:
      return (umask != 0) ? llc_.lookups(cha_id) : 0;
    case msr::ChaEvent::kVertRingBlInUse: {
      std::uint64_t total = 0;
      if ((umask & msr::kUmaskVertUp) != 0) {
        total += traffic_.cycles(tile, mesh::ChannelLabel::kUp);
      }
      if ((umask & msr::kUmaskVertDown) != 0) {
        total += traffic_.cycles(tile, mesh::ChannelLabel::kDown);
      }
      return total;
    }
    case msr::ChaEvent::kHorzRingBlInUse: {
      std::uint64_t total = 0;
      if ((umask & msr::kUmaskHorzLeft) != 0) {
        total += traffic_.cycles(tile, mesh::ChannelLabel::kLeft);
      }
      if ((umask & msr::kUmaskHorzRight) != 0) {
        total += traffic_.cycles(tile, mesh::ChannelLabel::kRight);
      }
      return total;
    }
  }
  return 0;  // reserved encodings count nothing, like hardware
}

}  // namespace corelocate::sim
