#pragma once
// The simulated Xeon socket.
//
// VirtualXeon is the stand-in for a rented bare-metal cloud machine: the
// locating tool may (a) pin work to an OS core id and issue loads/stores,
// and (b) read/write MSRs (PPIN + uncore PMON). Everything else —
// tile grid, routing, caches, coherence — is internal ground truth the
// tool must *infer*, exactly as on real hardware. Tests reach the ground
// truth through config() to verify inferences.
//
// Co-tenant interference is modelled as background noise: stray BL-ring
// packets between random live tiles and stray LLC lookups, injected at a
// configurable rate per executed memory operation.

#include <cstdint>

#include "cache/coherence.hpp"
#include "msr/msr_device.hpp"
#include "msr/pmon.hpp"
#include "sim/instance_factory.hpp"
#include "util/rng.hpp"

namespace corelocate::sim {

struct NoiseProfile {
  /// Probability, per executed memory op, that one background packet
  /// rides the mesh between two random live tiles.
  double mesh_event_rate = 0.0;
  /// Probability, per executed memory op, of one stray lookup at a random
  /// CHA.
  double lookup_event_rate = 0.0;
};

class VirtualXeon final : public msr::PmonBackend {
 public:
  explicit VirtualXeon(InstanceConfig config, NoiseProfile noise = {},
                       std::uint64_t noise_seed = 0x5EED0001ULL);

  VirtualXeon(const VirtualXeon&) = delete;
  VirtualXeon& operator=(const VirtualXeon&) = delete;

  // --- tool-facing surface -------------------------------------------------

  /// The machine's MSR register file (/dev/cpu/*/msr equivalent).
  msr::MsrDevice& msr() noexcept { return msr_; }
  const msr::MsrDevice& msr() const noexcept { return msr_; }

  /// Number of logical cores the OS reports.
  int os_core_count() const noexcept { return config_.os_core_count(); }

  /// Number of CHAs the uncore exposes PMON banks for.
  int cha_count() const noexcept { return config_.cha_count(); }

  /// A load issued by a thread pinned to `os_core`.
  void exec_read(int os_core, cache::LineAddr line);

  /// A store issued by a thread pinned to `os_core`.
  void exec_write(int os_core, cache::LineAddr line);

  /// Injects `packets` background BL transfers (co-tenant activity burst).
  void background_traffic(int packets);

  // --- ground truth (tests / verification only) ----------------------------

  const InstanceConfig& config() const noexcept { return config_; }
  const mesh::TileGrid& grid() const noexcept { return config_.grid; }
  const mesh::TrafficRecorder& traffic() const noexcept { return traffic_; }
  const cache::CoherenceEngine& engine() const noexcept { return engine_; }

  // --- PmonBackend ----------------------------------------------------------
  std::uint64_t event_total(int cha_id, msr::ChaEvent event,
                            std::uint8_t umask) const override;

 private:
  void maybe_inject_noise();
  void check_core(int os_core) const;

  InstanceConfig config_;
  mesh::TrafficRecorder traffic_;
  cache::SlicedLlc llc_;
  cache::CoherenceEngine engine_;
  msr::PpinMsr ppin_;
  msr::ChaPmonUnit pmon_;
  msr::CompositeMsrDevice msr_;
  NoiseProfile noise_;
  /// CHA tiles then IMC tiles: where background packets start and end.
  std::vector<mesh::Coord> noise_endpoints_;
  mutable util::Rng noise_rng_;
};

}  // namespace corelocate::sim
