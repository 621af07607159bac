// Sec. V-D: core location mapping verification through the thermal
// channel — transmit between all core pairs; the lowest error rates must
// occur between the cores the recovered map says are adjacent.
//
// Paper expectation: the best thermal partner of (almost) every core is a
// mapped neighbour; exceptions are cores with no vertical neighbour.

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace corelocate;
  util::FlagSpec spec("secVd_map_verification",
                      "Reproduce Sec. V-D: verify a solved map by predicting "
                      "covert-channel behaviour from it.");
  spec.add("bits", "N", "bits transmitted per trial")
      .add("rate", "HZ", "covert-channel signalling rate");
  bench::add_report_flags(spec);
  const util::CliFlags flags(argc, argv);
  if (flags.handle_help(spec, std::cout)) return 0;
  const int bits = static_cast<int>(flags.get_int("bits", 200));
  const double rate = flags.get_double("rate", 2.0);
  bench::BenchReporter reporter("secVd_map_verification", flags);
  bench::ExpectedActual comparison;

  bench::print_header("Sec. V-D: map verification via all-pairs thermal BER",
                      "Sec. V-D");
  std::cout << "payload: " << bits << " bits per pair at " << rate << " bps\n\n";

  const sim::InstanceFactory factory(sim::InstanceFactory::kDefaultFleetSeed);
  const bench::LocatedInstance li =
      bench::locate_instance(sim::XeonModel::k8259CL, bench::kFleetSeed, factory);
  if (!li.result.success) {
    std::cout << "pipeline failed: " << li.result.message << "\n";
    return 1;
  }
  const core::CoreMap& map = li.result.map;

  std::vector<int> core_chas;
  for (int cha = 0; cha < map.cha_count(); ++cha) {
    if (covert::is_core_cha(map, cha)) core_chas.push_back(cha);
  }

  obs::Span pairs_span("all_pairs_ber", "bench");
  int verified = 0;
  int vertical_best = 0;
  int total = 0;
  for (int receiver : core_chas) {
    double best_ber = 2.0;
    int best_sender = -1;
    for (int sender : core_chas) {
      if (sender == receiver) continue;
      util::Rng payload_rng(static_cast<std::uint64_t>(sender * 131 + receiver));
      const covert::ChannelSpec channel = covert::make_channel_on(
          li.config, {sender}, receiver, covert::random_bits(bits, payload_rng));
      covert::TransmissionConfig cfg;
      cfg.bit_rate_bps = rate;
      cfg.seed = static_cast<std::uint64_t>(sender * 1009 + receiver * 7);
      thermal::ThermalModel model(li.config.grid, bench::cloud_thermal_params(),
                                  cfg.seed);
      bench::mark_tenants(model, li.config, {channel});
      const double ber =
          covert::run_transmission(model, {channel}, cfg).channels.front().ber;
      if (ber < best_ber) {
        best_ber = ber;
        best_sender = sender;
      }
    }
    const mesh::Coord rp = map.cha_position[static_cast<std::size_t>(receiver)];
    const mesh::Coord sp = map.cha_position[static_cast<std::size_t>(best_sender)];
    const bool adjacent = mesh::TileGrid::manhattan(rp, sp) == 1;
    const bool vertical = adjacent && sp.col == rp.col;
    ++total;
    verified += adjacent ? 1 : 0;
    vertical_best += vertical ? 1 : 0;
    if (!adjacent) {
      std::cout << "  exception: receiver CHA " << receiver << " best partner CHA "
                << best_sender << " is " << mesh::TileGrid::manhattan(rp, sp)
                << " hops away\n";
    }
  }
  std::cout << "\nreceivers whose best thermal partner is a mapped neighbour: "
            << verified << "/" << total << "\n"
            << "  (of those, vertical neighbours: " << vertical_best << ")\n"
            << "paper: neighbours win except for a few tiles with no adjacent "
               "vertical neighbour\n";

  reporter.add_stage("all_pairs_ber", pairs_span.stop());
  comparison.add("best partner is mapped neighbour", static_cast<double>(total),
                 static_cast<double>(verified), "receivers");
  reporter.finish(comparison);
  return 0;
}
