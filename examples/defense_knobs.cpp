// Defence analysis: the paper suggests blunting the thermal covert
// channel by reducing the temperature sensor's resolution or update
// frequency (Sec. IV). This example quantifies how each knob degrades
// the channel on the same placement.
//
//   $ ./defense_knobs [--bits 2000] [--rate 2]

#include <iostream>

#include "core/pipeline.hpp"
#include "covert/multi.hpp"
#include "thermal/external_probe.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace corelocate;

int main(int argc, char** argv) {
  util::FlagSpec spec("defense_knobs",
                      "Measure how the mitigation knobs (sensor quantization, "
                      "jitter) degrade the covert channel.");
  spec.add("bits", "N", "bits transmitted per knob setting")
      .add("rate", "HZ", "covert-channel signalling rate");
  const util::CliFlags flags(argc, argv);
  if (flags.handle_help(spec, std::cout)) return 0;
  const int bits = static_cast<int>(flags.get_int("bits", 2000));
  const double rate = flags.get_double("rate", 2.0);

  sim::InstanceFactory factory;
  util::Rng rng(11);
  const sim::InstanceConfig machine = factory.make_instance(sim::XeonModel::k8259CL, rng);
  const core::CoreMap map = core::truth_map(machine);
  const auto pairs = covert::pairs_at_offset(map, 1, 0);
  if (pairs.empty()) {
    std::cout << "no vertical pair\n";
    return 1;
  }
  const auto [sender, receiver] = pairs.front();

  struct Knob {
    const char* name;
    double quantization_c;
    double update_period_s;
  };
  const Knob knobs[] = {
      {"baseline: 1 degC, 20 ms updates", 1.0, 0.02},
      {"coarser: 2 degC, 20 ms updates", 2.0, 0.02},
      {"coarser: 5 degC, 20 ms updates", 5.0, 0.02},
      {"slower: 1 degC, 250 ms updates", 1.0, 0.25},
      {"slower: 1 degC, 1 s updates", 1.0, 1.0},
      {"both: 5 degC, 1 s updates", 5.0, 1.0},
  };

  std::cout << "thermal covert channel vs sensor defences ("
            << bits << " bits @ " << rate << " bps, 1-hop vertical pair)\n\n";
  util::TablePrinter table({"sensor configuration", "BER", "synced"});
  for (const Knob& knob : knobs) {
    util::Rng payload_rng(99);
    covert::ChannelSpec channel = covert::make_channel_on(
        machine, {sender}, receiver, covert::random_bits(bits, payload_rng));
    covert::TransmissionConfig config;
    config.bit_rate_bps = rate;
    config.sensor.quantization_c = knob.quantization_c;
    config.sensor.update_period_s = knob.update_period_s;
    thermal::ThermalParams params;
    params.tenant_walk_w = 2.2;
    thermal::ThermalModel die(machine.grid, params, 5);
    for (int os = 0; os < machine.os_core_count(); ++os) {
      const mesh::Coord pos = machine.tile_of_os_core(os);
      if (pos != channel.receiver_tile && !(channel.sender_tiles[0] == pos)) {
        die.set_tenant(pos, true);
      }
    }
    const covert::ChannelOutcome outcome =
        covert::run_transmission(die, {channel}, config).channels.front();
    table.add_row({knob.name, util::fmt_pct(outcome.ber, 2),
                   outcome.synced ? "yes" : "no"});
  }
  table.print(std::cout);

  // The paper's caveat: with physical access, an external IR probe aimed
  // at the mapped receiver tile bypasses any on-die sensor defence.
  {
    util::Rng payload_rng(99);
    covert::ChannelSpec channel = covert::make_channel_on(
        machine, {sender}, receiver, covert::random_bits(bits, payload_rng));
    covert::TransmissionConfig config;
    config.bit_rate_bps = rate;
    config.external_probe = thermal::ExternalProbeParams{};
    thermal::ThermalParams params;
    params.tenant_walk_w = 2.2;
    thermal::ThermalModel die(machine.grid, params, 5);
    for (int os = 0; os < machine.os_core_count(); ++os) {
      const mesh::Coord pos = machine.tile_of_os_core(os);
      if (pos != channel.receiver_tile && !(channel.sender_tiles[0] == pos)) {
        die.set_tenant(pos, true);
      }
    }
    const covert::ChannelOutcome outcome =
        covert::run_transmission(die, {channel}, config).channels.front();
    std::cout << "\nexternal IR probe aimed at the mapped tile (defence bypass): BER "
              << util::fmt_pct(outcome.ber, 2) << ", "
              << (outcome.synced ? "synced" : "no sync") << "\n";
  }
  std::cout << "\nexpectation: both knobs raise BER; the paper notes an attacker\n"
               "with physical access can still probe externally - the map tells\n"
               "them exactly where to point the pyrometer.\n";
  return 0;
}
