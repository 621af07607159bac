// Full attack lifecycle, end to end:
//   map the machine (root phase) -> store the map by PPIN -> reload it in
//   a later "rental" -> plan the placement -> exfiltrate a message over
//   the thermal channel / eavesdrop over the contention channel.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "corelocate/corelocate.hpp"

namespace corelocate {
namespace {

covert::Bits text_bits(const std::string& text) {
  covert::Bits bits;
  for (unsigned char ch : text) {
    for (int b = 7; b >= 0; --b) bits.push_back(static_cast<std::uint8_t>((ch >> b) & 1));
  }
  return bits;
}

std::string bits_text(const covert::Bits& bits) {
  std::string text;
  for (std::size_t i = 0; i + 8 <= bits.size(); i += 8) {
    unsigned char ch = 0;
    for (int b = 0; b < 8; ++b) ch = static_cast<unsigned char>((ch << 1) | bits[i + b]);
    text += static_cast<char>(ch);
  }
  return text;
}

TEST(EndToEnd, MapStoreTransmitLifecycle) {
  // --- rental #1: locate with root, store the map --------------------------
  sim::InstanceFactory factory;
  util::Rng rng(404);
  const sim::InstanceConfig machine = factory.make_instance(sim::XeonModel::k8259CL, rng);
  core::MapStore store;
  {
    sim::VirtualXeon cpu(machine);
    util::Rng tool_rng(405);
    core::LocateOptions options =
        core::options_for(sim::spec_for(sim::XeonModel::k8259CL));
    options.engine = core::SolverEngine::kRefined;
    const core::LocateResult located = core::locate_cores(cpu, tool_rng, options);
    ASSERT_TRUE(located.success) << located.message;
    store.put(located.map);
  }
  // Round-trip through the database file.
  const std::string db = ::testing::TempDir() + "corelocate_e2e_maps.rio";
  store.save_file(db);
  const core::MapStore reloaded = core::MapStore::load_file(db);
  std::remove(db.c_str());

  // --- rental #2: recognize the machine by PPIN, attack without root -------
  sim::VirtualXeon cpu(machine);
  const std::uint64_t ppin = msr::PmonDriver(cpu.msr()).read_ppin();
  const auto map = reloaded.get(ppin);
  ASSERT_TRUE(map.has_value());

  const auto plan = covert::find_surround(*map, 4);
  ASSERT_TRUE(plan.has_value());
  const std::string secret = "HI";
  const covert::ChannelSpec spec = covert::make_channel_on(
      machine, plan->sender_chas, plan->receiver_cha, text_bits(secret));
  covert::TransmissionConfig config;
  config.bit_rate_bps = 2.0;
  thermal::ThermalParams params;
  params.tenant_walk_w = 2.2;
  thermal::ThermalModel die(machine.grid, params, 406);
  const covert::ChannelOutcome outcome =
      covert::run_transmission(die, {spec}, config).channels.front();
  EXPECT_TRUE(outcome.synced);
  EXPECT_EQ(bits_text(outcome.decoded), secret);
}

TEST(EndToEnd, ContentionEavesdropWithRecoveredMap) {
  sim::InstanceFactory factory;
  util::Rng rng(410);
  const sim::InstanceConfig machine = factory.make_instance(sim::XeonModel::k8175M, rng);
  sim::VirtualXeon cpu(machine);
  util::Rng tool_rng(411);
  const core::LocateResult located = core::locate_cores(
      cpu, tool_rng, core::options_for(sim::spec_for(sim::XeonModel::k8175M)));
  ASSERT_TRUE(located.success);

  // Victim: OS core 0 streaming east along its row. The attacker derives
  // the row from the *recovered* map. A recovered map may be mirrored, but
  // rows are mirror-invariant — which is all this placement needs.
  const int victim_cha = located.cha_mapping.os_core_to_cha[0];
  const mesh::Coord victim_true = machine.tile_of_cha(victim_cha);
  mesh::ContendedMesh contended(machine.grid);
  const int stream = contended.add_stream(
      victim_true, {victim_true.row, machine.grid.cols() - 1}, 0.0);

  const int recovered_row =
      located.map.cha_position[static_cast<std::size_t>(victim_cha)].row;
  // Rows in the recovered map are translations of the truth at most; with
  // our covered-grid instances they are exact.
  ASSERT_EQ(recovered_row, victim_true.row);
  const mesh::Coord probe_src{recovered_row, 0};
  const mesh::Coord probe_dst{recovered_row, machine.grid.cols() - 1};

  contended.set_intensity(stream, 0.7);
  const double loaded = contended.probe_latency(probe_src, probe_dst);
  contended.set_intensity(stream, 0.0);
  const double idle = contended.probe_latency(probe_src, probe_dst);
  EXPECT_GT(loaded - idle, 5.0);  // the victim's activity is clearly visible
}

}  // namespace
}  // namespace corelocate
