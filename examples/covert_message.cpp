// End-to-end attack demo: locate the cores, pick physically adjacent
// sender/receiver cores from the recovered map, and smuggle an ASCII
// message across the security boundary through the die's heat.
//
//   $ ./covert_message [--message "KNOW YOUR NEIGHBOR"] [--rate 2]
//                      [--senders 4]
//
// The sender side only modulates CPU load (stress/idle); the receiver
// side only reads its own core's temperature sensor — both are plain
// user-level abilities. The core map (recovered once, with root, in the
// locating phase) is what makes the placement work.

#include <iostream>

#include "core/map_store.hpp"
#include "core/pipeline.hpp"
#include "covert/multi.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace corelocate;

namespace {

covert::Bits bits_from_text(const std::string& text) {
  covert::Bits bits;
  for (unsigned char ch : text) {
    for (int b = 7; b >= 0; --b) {
      bits.push_back(static_cast<std::uint8_t>((ch >> b) & 1));
    }
  }
  return bits;
}

std::string text_from_bits(const covert::Bits& bits) {
  std::string text;
  for (std::size_t i = 0; i + 8 <= bits.size(); i += 8) {
    unsigned char ch = 0;
    for (int b = 0; b < 8; ++b) ch = static_cast<unsigned char>((ch << 1) | bits[i + b]);
    text += (ch >= 32 && ch < 127) ? static_cast<char>(ch) : '?';
  }
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagSpec cli_spec("covert_message",
                          "Send a text message across the thermal covert channel "
                          "between co-located cores.");
  cli_spec.add("message", "TEXT", "message to transmit")
      .add("rate", "HZ", "covert-channel signalling rate")
      .add("senders", "N", "sender cores surrounding the receiver")
      .add("seed", "N", "instance seed")
      .add("map-db", "FILE", "reuse a solved map from a map-store DB");
  const util::CliFlags flags(argc, argv);
  if (flags.handle_help(cli_spec, std::cout)) return 0;
  const std::string message = flags.get("message", "KNOW YOUR NEIGHBOR");
  const double rate = flags.get_double("rate", 2.0);
  const int sender_count = static_cast<int>(flags.get_int("senders", 4));
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  const std::string map_db = flags.get("map-db", "");

  sim::InstanceFactory factory;
  util::Rng rng(seed);
  const sim::InstanceConfig machine = factory.make_instance(sim::XeonModel::k8259CL, rng);
  sim::VirtualXeon cpu(machine);

  // Phase 1: identify the machine by PPIN, then either load its map from
  // the database (the paper's point: maps are permanent per chip, so the
  // root-needing locating phase runs once per physical CPU) or map it now.
  const std::uint64_t ppin = msr::PmonDriver(cpu.msr()).read_ppin();
  // A missing database loads empty (first run); a damaged one throws.
  core::MapStore store =
      map_db.empty() ? core::MapStore{} : core::MapStore::load_file(map_db);
  core::CoreMap map;
  if (const auto known = store.get(ppin); known.has_value()) {
    map = *known;
    std::cout << "machine 0x" << std::hex << ppin << std::dec
              << " found in map database - skipping the locating phase\n";
  } else {
    util::Rng tool_rng(seed ^ 0xA77ACCULL);
    const core::LocateResult located = core::locate_cores(
        cpu, tool_rng, core::options_for(sim::spec_for(sim::XeonModel::k8259CL)));
    if (!located.success) {
      std::cout << "locating failed: " << located.message << "\n";
      return 1;
    }
    map = located.map;
    std::cout << "core map recovered (PPIN 0x" << std::hex << map.ppin << std::dec
              << ")\n";
    if (!map_db.empty()) {
      store.put(map);
      store.save_file(map_db);
      std::cout << "map stored in " << map_db << " for future rentals\n";
    }
  }

  // Phase 2: pick the placement from the map.
  const auto plan = covert::find_surround(map, sender_count);
  if (!plan.has_value()) {
    std::cout << "no surrounded receiver found\n";
    return 1;
  }
  std::cout << "receiver: CHA " << plan->receiver_cha << "; senders:";
  for (int cha : plan->sender_chas) std::cout << " CHA " << cha;
  std::cout << "\n";

  // Phase 3: transmit (user-level only: load modulation + own-core sensor).
  const covert::Bits payload = bits_from_text(message);
  const covert::ChannelSpec spec = covert::make_channel_on(
      machine, plan->sender_chas, plan->receiver_cha, payload);
  covert::TransmissionConfig config;
  config.bit_rate_bps = rate;
  config.seed = seed;
  thermal::ThermalParams params;
  params.tenant_walk_w = 2.2;  // noisy cloud neighbours
  thermal::ThermalModel die(machine.grid, params, seed);
  for (int os = 0; os < machine.os_core_count(); ++os) {
    const mesh::Coord pos = machine.tile_of_os_core(os);
    bool participant = pos == spec.receiver_tile;
    for (const mesh::Coord& tile : spec.sender_tiles) participant |= tile == pos;
    if (!participant) die.set_tenant(pos, true);
  }
  const covert::TransmissionResult result =
      covert::run_transmission(die, {spec}, config);
  const covert::ChannelOutcome& outcome = result.channels.front();

  std::cout << "\nsent      (" << payload.size() << " bits @ " << rate
            << " bps): \"" << message << "\"\n"
            << "received  (BER " << util::fmt_pct(outcome.ber, 2) << ", "
            << (outcome.synced ? "synced" : "NO SYNC") << "): \""
            << text_from_bits(outcome.decoded) << "\"\n"
            << "air time: " << util::fmt(result.simulated_seconds, 1) << " simulated s\n";
  return outcome.ber < 0.05 ? 0 : 1;
}
