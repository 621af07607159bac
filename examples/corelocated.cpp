// corelocated — the mapping-service daemon.
//
// Reads a request stream (one request per line, file or stdin), serves
// it through the batching, cache-fronted service, and writes one
// response line per request to stdout (or --response-log PATH) in
// intake order. Progress and the run summary go to stderr so the
// response log stays clean.
//
// Request-line grammar (see docs/SERVING.md):
//   mapping model=<SKU> seed=<N> [permute=<N>]
//   plan    model=<SKU> seed=<N> kind=pairs|surround count=<N> [permute=<N>]
//   survey  model=<SKU> instances=<N> seed=<N>
//   # comment / blank lines are skipped
//
// `model`+`seed` name a simulated instance: the daemon synthesizes the
// client payload (identity + probe observations) deterministically, so
// a request file is a complete, replayable description of a workload.
// `permute` shuffles the observation order before submitting — the
// canonical way to check that fingerprinting is order-invariant.
//
//   $ ./corelocated --requests requests.txt --jobs 4 --report=json

#include <charconv>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>

#include "obs/clock.hpp"
#include "obs/report.hpp"
#include "serve/serve.hpp"
#include "util/cli.hpp"

using namespace corelocate;

namespace {

struct ParsedLine {
  std::string endpoint;
  std::map<std::string, std::string> fields;
};

ParsedLine parse_line(const std::string& line, std::size_t line_number) {
  ParsedLine parsed;
  std::istringstream in(line);
  in >> parsed.endpoint;
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("line " + std::to_string(line_number) +
                                  ": expected key=value, got '" + token + "'");
    }
    parsed.fields[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return parsed;
}

/// An unsigned decimal field in [min, max], or `fallback` when absent.
/// The whole token must be digits: signs, trailing bytes and values that
/// overflow are rejected, never truncated or wrapped.
std::uint64_t field_u64(const ParsedLine& parsed, const std::string& key,
                        std::uint64_t fallback, std::size_t line_number,
                        std::uint64_t min = 0,
                        std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  const auto it = parsed.fields.find(key);
  if (it == parsed.fields.end()) return fallback;
  const std::string& text = it->second;
  const char* const end = text.data() + text.size();
  std::uint64_t value = 0;
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end || value < min || value > max) {
    throw std::invalid_argument("line " + std::to_string(line_number) + ": bad " + key +
                                "='" + text + "'");
  }
  return value;
}

/// A count field (instances=, count=): in [1, INT_MAX].
int field_count(const ParsedLine& parsed, const std::string& key, int fallback,
                std::size_t line_number) {
  return static_cast<int>(field_u64(parsed, key, static_cast<std::uint64_t>(fallback),
                                    line_number, 1,
                                    static_cast<std::uint64_t>(
                                        std::numeric_limits<int>::max())));
}

sim::XeonModel field_model(const ParsedLine& parsed, std::size_t line_number) {
  const auto it = parsed.fields.find("model");
  if (it == parsed.fields.end()) {
    throw std::invalid_argument("line " + std::to_string(line_number) +
                                ": missing model=");
  }
  sim::XeonModel model;
  if (!serve::parse_model_token(it->second, model)) {
    throw std::invalid_argument("line " + std::to_string(line_number) +
                                ": unknown model '" + it->second + "'");
  }
  return model;
}

/// Client payloads memoized by (model, seed): replayed instances cost
/// one synthesis, mirroring real clients that measure once and retry.
class ClientPool {
 public:
  explicit ClientPool(std::uint64_t fleet_seed) : factory_(fleet_seed) {}

  serve::MappingRequest instance(sim::XeonModel model, std::uint64_t seed) {
    const auto key = std::make_pair(static_cast<int>(model), seed);
    auto it = memo_.find(key);
    if (it == memo_.end()) {
      it = memo_.emplace(key, serve::synthesize_client(model, seed, factory_)).first;
    }
    return it->second;
  }

 private:
  sim::InstanceFactory factory_;
  std::map<std::pair<int, std::uint64_t>, serve::MappingRequest> memo_;
};

}  // namespace

int main(int argc, char** argv) {
  util::FlagSpec spec("corelocated",
                      "Serve mapping / covert-plan / survey requests from a request "
                      "file through the batching, cache-fronted mapping service.");
  spec.add("requests", "PATH", "request file, '-' for stdin (default '-')")
      .add("jobs", "N", "solver worker threads (default 1)")
      .add("batch-max", "N", "max requests per service batch (default 256)")
      .add("cache-capacity", "N", "map-cache entries (default 4096)")
      .add("cache-shards", "N", "map-cache shards (default 8)")
      .add("engine", "NAME",
           "solver engine: " + core::engine_tokens() + " (default refined)")
      .add("solution-cache", "0|1",
           "probe/fill the solver solution cache around batch dispatch "
           "(responses stay byte-identical either way; default 0)")
      .add("solution-cache-file", "PATH",
           "persist the solution cache: warm from PATH if it exists, save "
           "it back on exit (implies --solution-cache 1; shares a format "
           "with fleet_survey --solution-cache-file)")
      .add("fleet-seed", "N", "manufacturing distribution seed")
      .add("response-log", "PATH", "write responses to PATH instead of stdout")
      .add("report", "json", "write a schema-checked perf report on exit")
      .add("report-file", "PATH", "override the report output path");
  const util::CliFlags flags(argc, argv);
  if (flags.handle_help(spec, std::cout)) return 0;

  serve::ServiceOptions options;
  options.jobs = static_cast<int>(flags.get_int("jobs", 1));
  options.batch_max = static_cast<int>(flags.get_int("batch-max", 256));
  options.cache_capacity =
      static_cast<std::size_t>(flags.get_int("cache-capacity", 4096));
  options.cache_shards = static_cast<std::size_t>(flags.get_int("cache-shards", 8));
  const std::string solution_cache_path = flags.get("solution-cache-file", "");
  options.solution_cache =
      flags.get_bool("solution-cache", false) || !solution_cache_path.empty();
  const std::string engine_name = flags.get("engine", "refined");
  if (!core::parse_engine_token(engine_name, options.engine)) {
    std::cerr << "corelocated: unknown --engine '" << engine_name
              << "' (expected " << core::engine_tokens() << ")\n";
    return 1;
  }

  std::ofstream log_file;
  const std::string log_path = flags.get("response-log", "");
  if (!log_path.empty()) {
    log_file.open(log_path);
    if (!log_file) {
      std::cerr << "corelocated: cannot open --response-log " << log_path << "\n";
      return 1;
    }
    options.log_stream = &log_file;
  } else {
    options.log_stream = &std::cout;
  }

  std::ifstream request_file;
  std::istream* in = &std::cin;
  const std::string requests_path = flags.get("requests", "-");
  if (requests_path != "-") {
    request_file.open(requests_path);
    if (!request_file) {
      std::cerr << "corelocated: cannot open --requests " << requests_path << "\n";
      return 1;
    }
    in = &request_file;
  }

  ClientPool clients(static_cast<std::uint64_t>(
      flags.get_int("fleet-seed",
                    static_cast<std::int64_t>(sim::InstanceFactory::kDefaultFleetSeed))));
  serve::Service service(options);
  if (!solution_cache_path.empty()) {
    const std::size_t warmed = service.warm_solution_cache(solution_cache_path);
    if (warmed != 0) {
      std::cerr << "corelocated: warmed " << warmed
                << " solution-cache entries from " << solution_cache_path << "\n";
    }
  }

  const auto start = obs::Clock::now();
  std::string line;
  std::size_t line_number = 0;
  std::uint64_t submitted = 0;
  try {
    while (std::getline(*in, line)) {
      ++line_number;
      if (line.empty() || line[0] == '#') continue;
      const ParsedLine parsed = parse_line(line, line_number);
      const sim::XeonModel model = field_model(parsed, line_number);
      if (parsed.endpoint == "survey") {
        serve::SurveyRequest survey;
        survey.model = model;
        survey.instances = field_count(parsed, "instances", 10, line_number);
        survey.base_seed = field_u64(parsed, "seed", 0, line_number);
        service.submit(serve::Request{survey});
      } else if (parsed.endpoint == "mapping" || parsed.endpoint == "plan") {
        serve::MappingRequest mapping =
            clients.instance(model, field_u64(parsed, "seed", 0, line_number));
        const std::uint64_t permute = field_u64(parsed, "permute", 0, line_number);
        if (permute != 0) {
          mapping.observations =
              serve::permute_observations(*mapping.observations, permute);
        }
        if (parsed.endpoint == "mapping") {
          service.submit(serve::Request{std::move(mapping)});
        } else {
          serve::CovertPlanRequest plan;
          plan.instance = std::move(mapping);
          plan.kind = parsed.fields.count("kind") != 0 &&
                              parsed.fields.at("kind") == "surround"
                          ? serve::PlanKind::kSurround
                          : serve::PlanKind::kDisjointPairs;
          plan.count = field_count(parsed, "count", 2, line_number);
          service.submit(serve::Request{std::move(plan)});
        }
      } else {
        throw std::invalid_argument("line " + std::to_string(line_number) +
                                    ": unknown endpoint '" + parsed.endpoint + "'");
      }
      ++submitted;
      if (service.pending() >= static_cast<std::size_t>(options.batch_max)) {
        service.pump();
      }
    }
    service.drain();
  } catch (const std::exception& e) {
    std::cerr << "corelocated: " << e.what() << "\n";
    return 1;
  }

  if (!solution_cache_path.empty()) {
    service.save_solution_cache(solution_cache_path);
    std::cerr << "corelocated: saved " << service.solution_cache().size()
              << " solution-cache entries to " << solution_cache_path << "\n";
  }

  const serve::CacheStats cache = service.cache().stats();
  std::cerr << "corelocated: served " << service.response_log().lines() << "/"
            << submitted << " responses, cache hit rate "
            << cache.hit_rate() * 100.0 << "% (" << cache.evictions
            << " evictions), log fnv1a="
            << serve::hex16(service.response_log().checksum()) << "\n";

  if (flags.get("report", "") == "json") {
    obs::PerfReport report("corelocated");
    for (const auto& [name, value] : flags.flags()) report.set_arg(name, value);
    report.set_arg("response_log_fnv1a",
                   serve::hex16(service.response_log().checksum()));
    report.set_wall_seconds(obs::Clock::seconds_since(start));
    report.registry().merge(service.registry());
    const std::string path = flags.get("report-file", report.default_path());
    report.write_file(path);
    std::cerr << "corelocated: wrote " << path << "\n";
  }
  return 0;
}
