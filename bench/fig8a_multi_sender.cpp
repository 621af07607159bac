// Fig. 8a: strengthening the thermal covert channel with multiple
// synchronized senders surrounding one receiver.
//
// Paper expectation (8259CL): adding senders lowers the BER at a given
// rate — e.g. at 4 bps the error rate drops to ~2% with four senders.

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace corelocate;
  util::FlagSpec spec("fig8a_multi_sender",
                      "Reproduce Fig. 8a: surrounding a receiver with multiple "
                      "senders lowers the bit error rate.");
  spec.add("bits", "N", "bits transmitted per configuration")
      .add("seeds", "N", "instances averaged per point")
      .add("csv", "", "emit machine-readable CSV rows");
  bench::add_report_flags(spec);
  const util::CliFlags flags(argc, argv);
  if (flags.handle_help(spec, std::cout)) return 0;
  const int bits = static_cast<int>(flags.get_int("bits", 10000));
  const int seeds = static_cast<int>(flags.get_int("seeds", 2));
  bench::BenchReporter reporter("fig8a_multi_sender", flags);
  bench::ExpectedActual comparison;

  bench::print_header("Fig. 8a: multi-sender thermal covert channel", "Fig. 8a");
  std::cout << "payload: " << bits << " random bits per point, averaged over " << seeds
            << " seeds (paper: 10 kbit)\n\n";

  const sim::InstanceFactory factory(sim::InstanceFactory::kDefaultFleetSeed);
  const bench::LocatedInstance li =
      bench::locate_instance(sim::XeonModel::k8259CL, bench::kFleetSeed, factory);
  if (!li.result.success) {
    std::cout << "pipeline failed: " << li.result.message << "\n";
    return 1;
  }
  const core::CoreMap& map = li.result.map;
  const auto plan = covert::find_surround(map, 8);
  if (!plan.has_value()) {
    std::cout << "no surrounded receiver found\n";
    return 1;
  }
  std::cout << "receiver: CHA " << plan->receiver_cha << ", surrounded by "
            << plan->sender_chas.size() << " candidate senders\n\n";

  obs::Span sweep_span("sender_sweep", "bench");
  double four_sender_4bps = -1.0;
  util::TablePrinter table({"senders", "2 bps", "4 bps", "6 bps", "8 bps"});
  for (int count : {1, 2, 4, 8}) {
    std::vector<std::string> row{std::to_string(count)};
    std::vector<int> senders(
        plan->sender_chas.begin(),
        plan->sender_chas.begin() +
            std::min<std::size_t>(static_cast<std::size_t>(count),
                                  plan->sender_chas.size()));
    for (double rate : {2.0, 4.0, 6.0, 8.0}) {
      double total = 0.0;
      for (int s = 0; s < seeds; ++s) {
        util::Rng payload_rng(1000 + s * 17 + count);
        const covert::ChannelSpec channel = covert::make_channel_on(
            li.config, senders, plan->receiver_cha,
            covert::random_bits(bits, payload_rng));
        covert::TransmissionConfig cfg;
        cfg.bit_rate_bps = rate;
        cfg.seed = static_cast<std::uint64_t>(s * 37 + count * 101 + rate);
        thermal::ThermalModel model(li.config.grid, bench::cloud_thermal_params(),
                                    cfg.seed);
        bench::mark_tenants(model, li.config, {channel});
        total += covert::run_transmission(model, {channel}, cfg).channels.front().ber;
      }
      const double mean_ber = total / seeds;
      if (count == 4 && rate == 4.0) four_sender_4bps = mean_ber;
      row.push_back(util::fmt_pct(mean_ber, 2));
    }
    table.add_row(std::move(row));
  }
  if (flags.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "shape to match: more senders -> lower BER at mid rates "
               "(paper: ~2% at 4 bps with 4 senders)\n";

  reporter.add_stage("sender_sweep", sweep_span.stop());
  comparison.add("4-sender BER @ 4 bps", 0.02, four_sender_4bps);
  reporter.finish(comparison);
  return 0;
}
