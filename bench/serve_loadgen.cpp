// corelocated serving bench: replays a synthetic fleet request stream
// (default one million requests over the four paper SKUs) through the
// in-process service and reports cache hit rate, batched-solve counts
// and cached-vs-cold service-time percentiles.
//
// The workload is the paper's fleet at serving scale: a small pool of
// distinct instances queried under a head-heavy repeat distribution, so
// nearly every mapping is answerable from the fingerprint cache instead
// of a fresh ILP solve. --min-hit-rate gates CI on that property.
//
//   $ ./serve_loadgen [--requests 1000000] [--jobs N] [--batch-max N]
//                     [--cache-capacity N] [--cache-shards N]
//                     [--distinct N] [--zipf S] [--plan-fraction F]
//                     [--survey-fraction F] [--permute-fraction F]
//                     [--engine decomposed|ilp|refined]
//                     [--seed N] [--min-hit-rate F] [--response-log PATH]
//                     [--report=json] [--report-file PATH] [--trace PATH]

#include <fstream>
#include <iostream>

#include "bench_common.hpp"
#include "serve/serve.hpp"

using namespace corelocate;

int main(int argc, char** argv) {
  util::FlagSpec spec("serve_loadgen",
                      "Replay a synthetic fleet request stream through the corelocated "
                      "service and report cache/batching behaviour.");
  spec.add("requests", "N", "requests to replay (default 1000000)")
      .add("jobs", "N", "solver worker threads (default 1)")
      .add("batch-max", "N", "max requests per service batch (default 256)")
      .add("cache-capacity", "N", "map-cache entries (default 4096)")
      .add("cache-shards", "N", "map-cache shards (default 8)")
      .add("distinct", "N", "distinct instances per SKU in the pool (default 24)")
      .add("zipf", "S", "repeat-distribution Zipf exponent (default 1.1)")
      .add("plan-fraction", "F", "fraction of covert-plan requests (default 0.125)")
      .add("survey-fraction", "F", "fraction of survey requests (default 0)")
      .add("permute-fraction", "F",
           "fraction of requests with re-permuted observations (default 0.0625)")
      .add("engine", "NAME",
           "solver engine: " + core::engine_tokens() + " (default refined)")
      .add("solution-cache", "0|1",
           "probe/fill the solver solution cache around batch dispatch "
           "(responses stay byte-identical either way; default 0)")
      .add("seed", "N", "workload seed (default 0x10AD6E2)")
      .add("min-hit-rate", "F", "exit nonzero when cache hit rate falls below F")
      .add("response-log", "PATH", "write the response log to PATH")
      .add("report", "json", "emit a schema-checked BENCH_serve_loadgen.json")
      .add("report-file", "PATH", "override the report output path")
      .add("trace", "PATH", "record spans, write a Chrome trace-event JSON");
  const util::CliFlags flags(argc, argv);
  if (flags.handle_help(spec, std::cout)) return 0;

  bench::BenchReporter reporter("serve_loadgen", flags);
  bench::print_header("corelocated serving loadgen",
                      "the Sec. III fleet, replayed as a serving workload");

  serve::LoadgenOptions load;
  load.requests = static_cast<std::uint64_t>(flags.get_int("requests", 1'000'000));
  load.distinct_per_sku = static_cast<int>(flags.get_int("distinct", 24));
  load.zipf_exponent = flags.get_double("zipf", 1.1);
  load.plan_fraction = flags.get_double("plan-fraction", 0.125);
  load.survey_fraction = flags.get_double("survey-fraction", 0.0);
  load.permute_fraction = flags.get_double("permute-fraction", 0.0625);
  load.seed = static_cast<std::uint64_t>(flags.get_int("seed", 0x10AD6E2LL));

  serve::ServiceOptions service_options;
  service_options.jobs = static_cast<int>(flags.get_int("jobs", 1));
  service_options.batch_max = static_cast<int>(flags.get_int("batch-max", 256));
  service_options.cache_capacity =
      static_cast<std::size_t>(flags.get_int("cache-capacity", 4096));
  service_options.cache_shards =
      static_cast<std::size_t>(flags.get_int("cache-shards", 8));
  service_options.solution_cache = flags.get_bool("solution-cache", false);
  const std::string engine_name = flags.get("engine", "refined");
  if (!core::parse_engine_token(engine_name, service_options.engine)) {
    std::cerr << "unknown --engine '" << engine_name
              << "' (expected " << core::engine_tokens() << ")\n";
    return 2;
  }
  std::ofstream log_file;
  const std::string log_path = flags.get("response-log", "");
  if (!log_path.empty()) {
    log_file.open(log_path);
    if (!log_file) throw std::runtime_error("cannot open --response-log " + log_path);
    service_options.log_stream = &log_file;
  }

  const auto build_start = obs::Clock::now();
  const serve::Loadgen loadgen(load);
  reporter.add_stage("loadgen_build", obs::Clock::seconds_since(build_start));
  std::cout << "instance pool: " << loadgen.pool_size() << " distinct instances over "
            << load.skus.size() << " SKUs\n"
            << "replaying " << load.requests << " requests (jobs="
            << service_options.jobs << ", batch-max=" << service_options.batch_max
            << ", engine=" << core::engine_token(service_options.engine)
            << ", cache=" << service_options.cache_capacity << "x"
            << service_options.cache_shards << " shards)...\n";

  serve::Service service(service_options);
  const auto replay_start = obs::Clock::now();
  for (std::uint64_t i = 0; i < load.requests; ++i) {
    service.submit(loadgen.make_request(i));
    if (service.pending() >= static_cast<std::size_t>(service_options.batch_max)) {
      service.pump();
    }
  }
  service.drain();
  const double replay_seconds = obs::Clock::seconds_since(replay_start);
  reporter.add_stage("replay", replay_seconds);
  reporter.merge_registry(service.registry());

  const serve::CacheStats cache = service.cache().stats();
  const obs::Registry& registry = service.registry();
  const std::uint64_t solves =
      registry.find_counter("serve.batch.solves") != nullptr
          ? registry.find_counter("serve.batch.solves")->value()
          : 0;
  const obs::Hist* hit_hist = registry.find_histogram("serve.hit_service_hist");
  const obs::Hist* cold_hist = registry.find_histogram("serve.cold_service_hist");
  const double hit_p99 = hit_hist != nullptr ? hit_hist->percentile(99.0) : 0.0;
  const double cold_p99 = cold_hist != nullptr ? cold_hist->percentile(99.0) : 0.0;
  const double p99_ratio = hit_p99 > 0.0 ? cold_p99 / hit_p99 : 0.0;
  const double throughput =
      replay_seconds > 0.0 ? static_cast<double>(load.requests) / replay_seconds : 0.0;

  std::cout << "\nresponses:        " << service.response_log().lines() << "\n"
            << "response log:     fnv1a="
            << serve::hex16(service.response_log().checksum()) << "\n"
            << "cache hit rate:   " << util::fmt_pct(cache.hit_rate()) << " ("
            << cache.hits << " hits / " << cache.misses << " misses, "
            << cache.evictions << " evictions)\n"
            << "batched solves:   " << solves << " (pool " << loadgen.pool_size()
            << " instances)\n"
            << "throughput:       " << static_cast<std::uint64_t>(throughput)
            << " responses/s\n";
  if (service_options.solution_cache) {
    const auto cache_counter = [&registry](const char* name) {
      const obs::Counter* counter = registry.find_counter(name);
      return counter != nullptr ? counter->value() : 0;
    };
    std::cout << "solution cache:   " << cache_counter("serve.solution_cache.hits")
              << " hits / " << cache_counter("serve.solution_cache.misses")
              << " misses (" << service.solution_cache().size() << " entries)\n";
  }
  std::cout << "cached p99:       " << hit_p99 * 1e6 << " us\n"
            << "cold p99:         " << cold_p99 * 1e3 << " ms ("
            << static_cast<std::uint64_t>(p99_ratio) << "x cached)\n";

  reporter.report().set_arg("engine", core::engine_token(service_options.engine));
  reporter.report().set_arg("response_log_fnv1a",
                            serve::hex16(service.response_log().checksum()));

  bench::ExpectedActual comparison;
  comparison
      .add("responses", static_cast<double>(load.requests),
           static_cast<double>(service.response_log().lines()))
      .add("cache_hit_rate", 0.99, cache.hit_rate())
      .add("batched_solves", static_cast<double>(loadgen.pool_size()),
           static_cast<double>(solves))
      .add("cold_over_cached_p99", 10.0, p99_ratio, "x");
  reporter.finish(comparison);

  if (flags.has("min-hit-rate")) {
    const double min_hit_rate = flags.get_double("min-hit-rate", 0.0);
    if (cache.hit_rate() < min_hit_rate) {
      std::cerr << "FAIL: cache hit rate " << cache.hit_rate() << " below gate "
                << min_hit_rate << "\n";
      return 1;
    }
  }
  return 0;
}
