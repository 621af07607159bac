// Serving-layer demo: stand up the corelocated service in-process,
// replay a small synthetic fleet workload against it, and watch the
// cache/batching machinery do its job.
//
// The interesting outputs:
//   * the first request for each instance pays a cold ILP solve, every
//     replay afterwards is a cache hit (the paper's fleet repetition);
//   * requests arriving with their observations in a different order
//     still hit — the fingerprint canonicalizes observation order;
//   * identical-layout instances that miss in the same batch coalesce
//     into one solve (status kCoalesced).
//
//   $ ./serve_loadgen [--requests 20000] [--jobs 4] [--batch-max 256]
//                     [--cache-capacity 4096] [--distinct 12] [--seed N]

#include <iomanip>
#include <iostream>

#include "obs/clock.hpp"
#include "serve/serve.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace corelocate;

int main(int argc, char** argv) {
  util::FlagSpec spec("serve_loadgen",
                      "Replay a small synthetic workload through the corelocated "
                      "service and print cache/batching statistics.");
  spec.add("requests", "N", "requests to replay (default 20000)")
      .add("jobs", "N", "solver worker threads (default 4)")
      .add("batch-max", "N", "max requests per service batch (default 256)")
      .add("cache-capacity", "N", "map-cache entries (default 4096)")
      .add("distinct", "N", "distinct instances per SKU (default 12)")
      .add("engine", "NAME",
           "solver engine: " + core::engine_tokens() + " (default refined)")
      .add("seed", "N", "workload seed");
  const util::CliFlags flags(argc, argv);
  if (flags.handle_help(spec, std::cout)) return 0;

  serve::LoadgenOptions load;
  load.requests = static_cast<std::uint64_t>(flags.get_int("requests", 20'000));
  load.distinct_per_sku = static_cast<int>(flags.get_int("distinct", 12));
  load.seed = static_cast<std::uint64_t>(flags.get_int("seed", 0x10AD6E2LL));

  serve::ServiceOptions options;
  options.jobs = static_cast<int>(flags.get_int("jobs", 4));
  options.batch_max = static_cast<int>(flags.get_int("batch-max", 256));
  options.cache_capacity =
      static_cast<std::size_t>(flags.get_int("cache-capacity", 4096));
  const std::string engine_name = flags.get("engine", "refined");
  if (!core::parse_engine_token(engine_name, options.engine)) {
    std::cerr << "unknown --engine '" << engine_name
              << "' (expected " << core::engine_tokens() << ")\n";
    return 1;
  }

  std::cout << "building instance pool (" << load.distinct_per_sku
            << " per SKU, observations synthesized once)...\n";
  const serve::Loadgen loadgen(load);

  std::uint64_t by_status[5] = {};
  options.on_response = [&](const serve::Response& response) {
    ++by_status[static_cast<std::size_t>(response.status)];
  };
  serve::Service service(options);

  std::cout << "replaying " << load.requests << " requests (jobs=" << options.jobs
            << ")...\n";
  const auto start = obs::Clock::now();
  for (std::uint64_t i = 0; i < load.requests; ++i) {
    service.submit(loadgen.make_request(i));
    if (service.pending() >= static_cast<std::size_t>(options.batch_max)) service.pump();
  }
  service.drain();
  const double seconds = obs::Clock::seconds_since(start);

  util::TablePrinter table({"status", "responses", "meaning"});
  table.add_row({"hit", std::to_string(by_status[0]), "served from the map cache"});
  table.add_row({"solved", std::to_string(by_status[1]), "paid a cold ILP solve"});
  table.add_row({"coalesced", std::to_string(by_status[2]),
                 "joined another request's in-batch solve"});
  table.add_row({"computed", std::to_string(by_status[3]), "survey endpoint (no cache)"});
  table.add_row({"failed", std::to_string(by_status[4]), "solver/endpoint failure"});
  table.print(std::cout);

  const serve::CacheStats cache = service.cache().stats();
  std::cout << "\ncache:       " << cache.size << "/" << cache.capacity << " entries, "
            << std::fixed << std::setprecision(2) << cache.hit_rate() * 100.0
            << "% hit rate, " << cache.evictions << " evictions\n"
            << "response log: " << service.response_log().lines()
            << " lines, fnv1a=" << serve::hex16(service.response_log().checksum()) << "\n"
            << "throughput:  "
            << static_cast<std::uint64_t>(static_cast<double>(load.requests) /
                                          (seconds > 0.0 ? seconds : 1.0))
            << " responses/s\n\n"
            << "rerun with --jobs 1: the response-log checksum stays identical —\n"
            << "worker count never changes what the service answers, only how\n"
            << "fast it answers (see docs/SERVING.md for the contract).\n";
  return 0;
}
