// serve_hot and serve_cold: closed-loop replays through serve::Service
// with the refined engine at jobs = 1.
//
// serve_hot replays the serve::Loadgen default stream after an untimed
// warm-up pass has filled the map cache, so every timed request is a hit:
// the time goes to fingerprinting, cache probes and covert planning.
// serve_cold sends only never-seen instances to a fresh Service each
// round: the time goes to refinement solves and cache inserts.
//
// The closed loop is `window` clients with one request each: every wave
// submits one request per client, pumps once and waits for all responses.
// Requests are generated before a wave's clock starts, so only submit and
// pump are timed. A wave delivers all its responses in Phase C, so the
// tail percentile is chosen from the number of waves, not requests.

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <variant>
#include <vector>

#include "core/refinement.hpp"
#include "covert/multi.hpp"
#include "ilp/signature.hpp"
#include "serve/batcher.hpp"
#include "serve/fingerprint.hpp"
#include "serve/loadgen.hpp"
#include "serve/map_cache.hpp"
#include "serve/response_log.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace corelocate;

/// One round of requests plus the ground truth each one is judged by.
/// serve_hot draws its requests from the Loadgen when a wave needs them;
/// serve_cold holds its round's requests.
struct Inputs {
  std::optional<serve::Loadgen> loadgen;
  std::vector<serve::Request> requests;
  std::vector<std::size_t> truth_of;  ///< request -> index into `truth`
  std::vector<sim::InstanceConfig> truth;

  std::size_t size() const noexcept { return truth_of.size(); }
  /// Requests [begin, end) of the round.
  std::vector<serve::Request> wave(std::size_t begin, std::size_t end) const {
    std::vector<serve::Request> wave;
    wave.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      wave.push_back(loadgen ? loadgen->make_request(i) : requests[i]);
    }
    return wave;
  }
};

const serve::MappingRequest& mapping_of(const serve::Request& request) {
  if (const auto* mapping = std::get_if<serve::MappingRequest>(&request.payload)) {
    return *mapping;
  }
  return std::get<serve::CovertPlanRequest>(request.payload).instance;
}

serve::LoadgenOptions hot_options(std::uint64_t seed, int ops) {
  serve::LoadgenOptions options;  // the daemon's default stream
  options.requests = static_cast<std::uint64_t>(ops);
  options.seed = util::mix64(seed ^ 0x5E12E407ULL);
  return options;
}

/// The first `ops` requests of the Loadgen default stream. Ground truth
/// re-derives each pool instance the way Loadgen seeds it; judge_map
/// rejects a map whose PPIN then disagrees.
Inputs hot_inputs(std::uint64_t seed, int ops) {
  Inputs inputs;
  const serve::Loadgen& loadgen = inputs.loadgen.emplace(hot_options(seed, ops));
  const serve::LoadgenOptions& options = loadgen.options();
  const sim::InstanceFactory factory(options.fleet_seed);
  for (std::size_t pool = 0; pool < loadgen.pool_size(); ++pool) {
    const std::size_t sku = pool % options.skus.size();
    const std::uint64_t d = pool / options.skus.size();
    util::Rng rng(util::mix64(options.seed ^ util::mix64((d << 8) + sku)));
    inputs.truth.push_back(factory.make_instance(options.skus[sku], rng));
  }
  for (std::uint64_t i = 0; i < static_cast<std::uint64_t>(ops); ++i) {
    inputs.truth_of.push_back(static_cast<std::size_t>(loadgen.pool_index_of(i)));
  }
  return inputs;
}

/// `ops` never-seen instances for round `round`, the four SKUs in turn,
/// each synthesized the way a first-contact client would present it.
/// Rounds share their composition but not their instances, so a run
/// averages refinement cost over many instances (see NOTES.md).
Inputs cold_inputs(std::uint64_t seed, int round, int ops) {
  const serve::LoadgenOptions defaults;
  const sim::InstanceFactory factory(defaults.fleet_seed);
  const std::uint64_t round_seed =
      seed ^ 0xC01DULL ^ util::mix64(static_cast<std::uint64_t>(round));
  Inputs inputs;
  for (std::uint64_t i = 0; i < static_cast<std::uint64_t>(ops); ++i) {
    const sim::XeonModel model = defaults.skus[i % defaults.skus.size()];
    const std::uint64_t instance_seed = util::mix64(util::mix64(round_seed) + i);
    inputs.requests.push_back(
        serve::Request{serve::synthesize_client(model, instance_seed, factory)});
    util::Rng rng(instance_seed);
    inputs.truth.push_back(factory.make_instance(model, rng));
    inputs.truth_of.push_back(inputs.truth.size() - 1);
  }
  return inputs;
}

/// What the benchmark keeps of one response until the round is checked.
struct Captured {
  serve::Response response;
  Clock::time_point done;
};

/// What one round's responses came to. `solves` is the Service registry's
/// solve-group count for an untraced round and the replay's own count for
/// a traced one.
struct Counts {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t solves = 0;
  std::uint64_t failed = 0;
  std::uint64_t exact = 0;
  std::uint64_t malformed = 0;
  std::uint64_t digest = 0;
};

/// Judges a round's responses (untimed): the response-log digest with
/// round-relative sequence numbers, statuses and every map against truth.
Counts check_round(const Inputs& inputs, std::vector<Captured>& captured,
                   std::uint64_t seq_base) {
  if (captured.size() != inputs.size()) {
    throw std::logic_error("round returned " + std::to_string(captured.size()) +
                           " responses for " + std::to_string(inputs.size()));
  }
  Counts counts;
  Fnv64 digest;
  std::unordered_map<const core::CoreMap*, MapVerdict> verdicts;
  for (std::size_t i = 0; i < captured.size(); ++i) {
    serve::Response& response = captured[i].response;
    response.seq -= seq_base;
    if (response.seq != i) throw std::logic_error("responses out of order");
    digest.add(serve::ResponseLog::format_line(response));
    ++counts.requests;
    counts.hits += response.status == serve::Status::kHit ? 1 : 0;
    counts.failed += response.status == serve::Status::kFailed ? 1 : 0;
    if (!response.map) continue;
    const auto [it, fresh] = verdicts.try_emplace(response.map.get());
    if (fresh) it->second = judge_map(*response.map, inputs.truth[inputs.truth_of[i]]);
    counts.exact += it->second.exact ? 1 : 0;
    counts.malformed += it->second.wellformed ? 0 : 1;
  }
  counts.digest = digest.value();
  return counts;
}

/// One closed-loop round through a Service whose on_response appends to
/// `captured`: waves of `window` requests, each submitted and pumped.
struct LoopTimes {
  double seconds = 0.0;  ///< submit + pump, summed over waves
  std::uint64_t waves = 0;
};

LoopTimes closed_loop(serve::Service& service, const Inputs& inputs, int window,
                      std::vector<Captured>& captured, std::vector<double>& latencies_s) {
  const std::size_t n = inputs.size();
  LoopTimes times;
  for (std::size_t begin = 0; begin < n; begin += static_cast<std::size_t>(window)) {
    std::vector<serve::Request> wave =
        inputs.wave(begin, std::min(n, begin + static_cast<std::size_t>(window)));
    next_cpu();
    std::vector<Clock::time_point> submitted_at;
    submitted_at.reserve(wave.size());
    const Clock::time_point start = Clock::now();
    for (serve::Request& request : wave) {
      submitted_at.push_back(Clock::now());
      service.submit(std::move(request));
    }
    service.pump();
    const Clock::time_point end = Clock::now();
    if (service.pending() != 0 || captured.size() != begin + wave.size()) {
      throw std::logic_error("a wave did not complete in one pump");
    }
    times.seconds += seconds_between(start, end);
    ++times.waves;
    for (std::size_t i = 0; i < wave.size(); ++i) {
      latencies_s.push_back(seconds_between(submitted_at[i], captured[begin + i].done));
    }
  }
  return times;
}

serve::ServiceOptions service_options(std::vector<Captured>& captured) {
  serve::ServiceOptions options;
  options.jobs = 1;
  options.engine = core::SolverEngine::kRefined;
  options.on_response = [&captured](const serve::Response& response) {
    captured.push_back(Captured{response, Clock::now()});
  };
  return options;
}

std::uint64_t counter(const serve::Service& service, const char* name) {
  const obs::Counter* found = service.registry().find_counter(name);
  return found ? found->value() : 0;
}

// ---------------------------------------------------------------------------
// Traced replay: the Service's three phases rebuilt from the serve, core
// and covert public calls, in the order a pump makes them, each under a
// span: fingerprint -> cache probe -> solve group -> insert -> plan.

struct TracedCounts {
  std::uint64_t solves = 0;
  std::uint64_t activations = 0;
  std::uint64_t refine_iterations = 0;
  std::uint64_t refine_cuts = 0;
  std::uint64_t solve_nodes = 0;
};

/// Digest of a served map, as the Service's response body states it.
std::uint64_t map_digest(const core::CoreMap& map) {
  ilp::SignatureBuilder builder(0x3A9D16E57ULL);
  builder.add_text(map.pattern_key());
  return builder.digest();
}

std::string plan_body(const serve::CovertPlanRequest& request, const core::CoreMap& map,
                      Trace& trace) {
  std::string body;
  if (request.kind == serve::PlanKind::kSurround) {
    std::optional<covert::SurroundPlan> plan;
    {
      const Trace::Span span(trace, "covert.plan");
      plan = covert::find_surround(map, request.count);
    }
    if (!plan.has_value()) return "surround=none";
    body = "receiver=" + std::to_string(plan->receiver_cha) + " senders=[";
    for (std::size_t i = 0; i < plan->sender_chas.size(); ++i) {
      body += (i ? "," : "") + std::to_string(plan->sender_chas[i]);
    }
    return body + "]";
  }
  std::vector<std::pair<int, int>> pairs;
  {
    const Trace::Span span(trace, "covert.plan");
    pairs = covert::plan_disjoint_vertical_pairs(map, request.count);
  }
  body = "pairs=[";
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    body += (i ? "," : "") + std::to_string(pairs[i].first) + ">" +
            std::to_string(pairs[i].second);
  }
  return body + "]";
}

/// Serves `wave` (sequence numbers from `seq`) as one pump against `cache`.
void traced_wave(const std::vector<serve::Request>& wave, std::size_t seq,
                 serve::MapCache& cache, Trace& trace, TracedCounts& counts,
                 std::vector<Captured>& captured) {
  const Trace::Span wave_span(trace, "serve.wave");
  struct Item {
    const serve::MappingRequest* mapping = nullptr;
    serve::Fingerprint fp;
    std::shared_ptr<const serve::ServedMap> cached;
    int group = -1;
  };
  std::vector<Item> items(wave.size());
  std::vector<serve::PendingSolve> pending;
  for (std::size_t i = 0; i < items.size(); ++i) {
    Item& item = items[i];
    item.mapping = &mapping_of(wave[i]);
    for (const core::PathObservation& observation : *item.mapping->observations) {
      counts.activations += observation.activations.size();
    }
    {
      const Trace::Span span(trace, "serve.fingerprint");
      item.fp = serve::fingerprint_of(*item.mapping);
    }
    {
      const Trace::Span span(trace, "serve.cache_probe");
      item.cached = cache.find(item.fp.value);
    }
    if (!item.cached) {
      pending.push_back(serve::PendingSolve{
          i, serve::solve_group_key(*item.mapping, item.fp.signature), item.mapping});
    }
  }

  const std::vector<serve::SolveGroup> groups = serve::group_pending(pending);
  std::vector<core::MapSolveResult> solved(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const serve::MappingRequest& mapping = *items[groups[g].members.front()].mapping;
    for (const std::size_t member : groups[g].members) {
      items[member].group = static_cast<int>(g);
    }
    const sim::ModelSpec& spec = sim::spec_for(mapping.model);
    core::RefinementOptions options;
    options.grid_rows = spec.die.rows;
    options.grid_cols = spec.die.cols;
    try {
      const Trace::Span span(trace, "core.refine");
      const core::RefinementResult refined =
          core::solve_with_refinement(*mapping.observations, mapping.cha_count, options);
      solved[g] = refined.solved;
      counts.refine_iterations += static_cast<std::uint64_t>(refined.iterations);
      counts.refine_cuts += static_cast<std::uint64_t>(refined.cuts_added);
      counts.solve_nodes += static_cast<std::uint64_t>(refined.solved.nodes);
    } catch (const std::exception& e) {
      solved[g].success = false;
      solved[g].message = std::string("exception: ") + e.what();
    }
    ++counts.solves;
  }

  for (std::size_t i = 0; i < items.size(); ++i) {
    Item& item = items[i];
    const serve::Request& request = wave[i];
    serve::Response response;
    response.seq = seq + i;
    response.endpoint = std::holds_alternative<serve::MappingRequest>(request.payload)
                            ? serve::Endpoint::kMapping
                            : serve::Endpoint::kCovertPlan;
    response.fingerprint = item.fp.value;
    std::shared_ptr<const serve::ServedMap> served;
    if (item.cached) {
      response.status = serve::Status::kHit;
      served = item.cached;
    } else {
      const auto g = static_cast<std::size_t>(item.group);
      if (!solved[g].success) {
        response.status = serve::Status::kFailed;
        response.message =
            solved[g].message.empty() ? "solver failed" : solved[g].message;
      } else {
        response.status = groups[g].members.front() == i ? serve::Status::kSolved
                                                         : serve::Status::kCoalesced;
        auto built = std::make_shared<serve::ServedMap>();
        built->map = serve::build_map(*item.mapping, solved[g]);
        built->digest = map_digest(built->map);
        {
          const Trace::Span span(trace, "serve.cache_insert");
          cache.insert(item.fp.value, built);
        }
        served = std::move(built);
      }
    }
    if (served) {
      response.map = std::shared_ptr<const core::CoreMap>(served, &served->map);
      response.body = "map=" + serve::hex16(served->digest) +
                      " chas=" + std::to_string(served->map.cha_count());
      if (const auto* plan = std::get_if<serve::CovertPlanRequest>(&request.payload)) {
        response.body += " " + plan_body(*plan, served->map, trace);
      }
    }
    captured.push_back(Captured{std::move(response), Clock::now()});
  }
}

/// One traced round in waves of `window`; returns the waves' summed time.
double traced_round(const Inputs& inputs, int window, serve::MapCache& cache,
                    Trace& trace, TracedCounts& counts, std::vector<Captured>& captured) {
  double seconds = 0.0;
  const std::size_t n = inputs.size();
  for (std::size_t begin = 0; begin < n; begin += static_cast<std::size_t>(window)) {
    const std::vector<serve::Request> wave =
        inputs.wave(begin, std::min(n, begin + static_cast<std::size_t>(window)));
    next_cpu();
    const Clock::time_point start = Clock::now();
    traced_wave(wave, begin, cache, trace, counts, captured);
    seconds += seconds_between(start, Clock::now());
  }
  return seconds;
}

// ---------------------------------------------------------------------------

bool same(const Counts& a, const Counts& b) {
  return a.digest == b.digest && a.requests == b.requests && a.hits == b.hits &&
         a.solves == b.solves && a.failed == b.failed && a.exact == b.exact;
}

RunResult run_serve(bool hot, const RunContext& context, const Plan& plan) {
  // The traced replay's map cache and the warm-up's batches use the
  // Service's own defaults.
  const serve::ServiceOptions defaults;
  const std::size_t batch_max = static_cast<std::size_t>(defaults.batch_max);
  RunResult result;
  std::vector<Captured> captured;
  captured.reserve(static_cast<std::size_t>(plan.ops_per_round));
  const auto round_inputs = [&](int round) {
    return hot ? hot_inputs(context.seed, plan.ops_per_round)
               : cold_inputs(context.seed, round, plan.ops_per_round);
  };

  // Set-up: input synthesis and, for serve_hot, the Service plus its
  // warm-up pass; repeated so setup_s is a median. The last one is kept.
  // serve_cold synthesizes each later round's inputs untimed before it.
  std::vector<double> setup_s;
  Inputs inputs;
  std::unique_ptr<serve::Service> hot_service;
  for (int repeat = 0; repeat < plan.setups; ++repeat) {
    hot_service.reset();
    inputs = Inputs{};
    next_cpu();
    const Clock::time_point start = Clock::now();
    inputs = round_inputs(0);
    if (hot) {
      // The warm-up pass, in the batches a drain of the whole round makes.
      captured.clear();
      hot_service = std::make_unique<serve::Service>(service_options(captured));
      for (std::size_t begin = 0; begin < inputs.size(); begin += batch_max) {
        next_cpu();
        for (serve::Request& request :
             inputs.wave(begin, std::min(inputs.size(), begin + batch_max))) {
          hot_service->submit(std::move(request));
        }
        hot_service->pump();
      }
    }
    setup_s.push_back(seconds_between(start, Clock::now()));
  }
  std::uint64_t seq_base = 0;
  Counts warm;
  Trace warm_trace;
  TracedCounts warm_counts;
  std::optional<serve::MapCache> hot_cache;
  if (hot) {
    warm = check_round(inputs, captured, 0);
    warm.solves = counter(*hot_service, "serve.batch.solves");
    if (warm.malformed) result.error("warm-up served malformed maps");
    seq_base = inputs.size();
    if (context.trace) {
      // The traced replay warms its own cache with the Service's batching
      // and must do the warm-up's work: same digest, same solve groups.
      hot_cache.emplace(defaults.cache_capacity, defaults.cache_shards);
      captured.clear();
      traced_round(inputs, defaults.batch_max, *hot_cache, warm_trace,
                   warm_counts, captured);
      Counts replay = check_round(inputs, captured, 0);
      replay.solves = warm_counts.solves;
      if (!same(replay, warm)) {
        result.error("traced warm-up differs from the untraced one: digest " +
                     hex64(replay.digest) + " vs " + hex64(warm.digest) + ", solves " +
                     std::to_string(replay.solves) + " vs " +
                     std::to_string(warm.solves));
      }
    }
  }

  // In trace mode each untraced round is followed by its traced replay,
  // so both see the same machine state.
  std::vector<double> rates;
  std::vector<double> latencies_s;
  std::uint64_t waves = 0;
  std::vector<double> overheads;
  Counts total;
  Counts first;
  Fnv64 run_digest;
  Trace trace;
  TracedCounts counts;
  for (int r = 0; r < plan.rounds; ++r) {
    if (!hot && r > 0) inputs = round_inputs(r);
    captured.clear();
    std::unique_ptr<serve::Service> cold_service;
    if (!hot) cold_service = std::make_unique<serve::Service>(service_options(captured));
    serve::Service& service = hot ? *hot_service : *cold_service;
    const std::uint64_t hits_before = counter(service, "serve.cache.hits");
    const std::uint64_t solves_before = counter(service, "serve.batch.solves");
    const LoopTimes times =
        closed_loop(service, inputs, plan.window, captured, latencies_s);
    const double rate = static_cast<double>(inputs.size()) / times.seconds;
    rates.push_back(rate);
    waves += times.waves;
    Counts round = check_round(inputs, captured, hot ? seq_base : 0);
    round.solves = counter(service, "serve.batch.solves") - solves_before;
    if (counter(service, "serve.cache.hits") - hits_before != round.hits) {
      result.error("Service registry hits disagree with the responses' statuses");
    }
    if (!hot && service.response_log().checksum() != round.digest) {
      result.error("benchmark digest disagrees with the Service response-log checksum");
    }
    if (hot) seq_base += inputs.size();
    // serve_hot rounds are identical work: every one must repeat the first.
    if (r == 0) first = round;
    if (hot && !same(round, first)) {
      result.error("untraced round " + std::to_string(r) + " differs from the first");
    }
    run_digest.add(hex64(round.digest));
    total.requests += round.requests;
    total.hits += round.hits;
    total.solves += round.solves;
    total.failed += round.failed;
    total.exact += round.exact;
    total.malformed += round.malformed;
    if (!context.trace) continue;

    // Traced replay on the same inputs: same cache geometry and waves.
    captured.clear();
    std::optional<serve::MapCache> cold_cache;
    if (!hot) cold_cache.emplace(defaults.cache_capacity, defaults.cache_shards);
    const TracedCounts before = counts;
    const double seconds = traced_round(inputs, plan.window,
                                        hot ? *hot_cache : *cold_cache, trace, counts,
                                        captured);
    overheads.push_back(static_cast<double>(inputs.size()) / seconds / rate - 1.0);
    Counts replay = check_round(inputs, captured, 0);
    // The replay's solve groups must equal the Service registry's: the
    // breakdown then describes the Service's own work.
    replay.solves = counts.solves - before.solves;
    if (!same(replay, round)) {
      result.error("traced round " + std::to_string(r) +
                   " differs from the untraced one: digest " + hex64(replay.digest) +
                   " vs " + hex64(round.digest) + ", hits " +
                   std::to_string(replay.hits) + " vs " + std::to_string(round.hits) +
                   ", solves " + std::to_string(replay.solves) + " vs " +
                   std::to_string(round.solves));
    }
    result.attempted += replay.requests;
    result.failed += replay.failed;
  }
  result.attempted += total.requests;
  result.failed += total.failed;
  if (total.malformed) result.error(std::to_string(total.malformed) + " malformed maps");
  if (hot && total.hits != total.requests) {
    result.error("serve_hot: " + std::to_string(total.requests - total.hits) +
                 " timed requests missed the warmed cache");
  }
  result.notes.push_back("digest fnv1a=" + hex64(run_digest.value()) + " over " +
                         std::to_string(rates.size()) +
                         " round response logs (round-relative seq)");

  if (!context.trace) {
    EndToEnd e2e;
    e2e.setup_s = util::median(setup_s);
    e2e.rate_per_s = util::median(rates);
    e2e.latency_p50_ms = percentile(latencies_s, 500) * 1e3;
    const Tail tail = tail_of(latencies_s, waves, "waves");
    e2e.latency_tail_ms = tail.value * 1e3;
    e2e.peak_rss_mib = peak_rss_mib();
    e2e.exact_frac =
        static_cast<double>(total.exact) / static_cast<double>(total.requests);
    result.notes.push_back("latency_tail_ms is " + tail.label);
    result.notes.push_back(rates_note(rates));
    add_end_to_end(result, e2e);
    return result;
  }

  const auto per_call = [&](const char* name) {
    const Trace::Row a = warm_trace.row(name);
    const Trace::Row b = trace.row(name);
    const std::uint64_t calls = a.calls + b.calls;
    return calls ? (a.total_s + b.total_s) / static_cast<double>(calls) : 0.0;
  };
  // Solve statistics cover every traced solve: serve_cold's rounds, or
  // serve_hot's warm-up (its timed rounds solve nothing).
  const TracedCounts& solve_counts = hot ? warm_counts : counts;
  const double solves =
      static_cast<double>(std::max<std::uint64_t>(solve_counts.solves, 1));
  const double requests = static_cast<double>(total.requests);
  const std::map<std::string, double> layers = {
      {"serve.fingerprint_us", per_call("serve.fingerprint") * 1e6},
      {"serve.cache_probe_us", per_call("serve.cache_probe") * 1e6},
      {"covert.plan_us", per_call("covert.plan") * 1e6},
      {"serve.activations_per_op", static_cast<double>(counts.activations) / requests},
      {"serve.hit_frac", static_cast<double>(total.hits) / requests},
      {"core.refine_ms", per_call("core.refine") * 1e3},
      {"core.refine_iterations_per_solve",
       static_cast<double>(solve_counts.refine_iterations) / solves},
      {"core.refine_cuts_per_solve",
       static_cast<double>(solve_counts.refine_cuts) / solves},
      {"ilp.nodes_per_solve", static_cast<double>(solve_counts.solve_nodes) / solves},
      {"serve.cache_insert_us", per_call("serve.cache_insert") * 1e6},
      // serve_hot's timed rounds solve nothing: its count is the warm-up's.
      {"serve.solves_per_request",
       hot ? static_cast<double>(warm.solves) / static_cast<double>(warm.requests)
           : static_cast<double>(total.solves) / requests},
      // Traced time per request outside the spans above: the self time of
      // the serve.wave span (grouping, responses, map building).
      {"serve.unattributed_us", trace.row("serve.wave").self_s * 1e6 / requests},
      {"trace_overhead_frac", util::median(overheads)},
  };
  add_layer_metrics(result, layers);
  if (hot) {
    for (std::string& line :
         warm_trace.table("traced serve_hot warm-up (self time per span)")) {
      result.notes.push_back(std::move(line));
    }
  }
  for (std::string& line : trace.table(std::string("traced ") +
                                       (hot ? "serve_hot" : "serve_cold") +
                                       " rounds (self time per span)")) {
    result.notes.push_back(std::move(line));
  }
  return result;
}

}  // namespace

std::string serve_input_bytes(bool hot, std::uint64_t seed, int ops) {
  const Inputs inputs = hot ? hot_inputs(seed, ops) : cold_inputs(seed, 0, ops);
  std::string bytes;
  for (const serve::Request& request : inputs.wave(0, inputs.size())) {
    const serve::MappingRequest& mapping = mapping_of(request);
    const bool plan = std::holds_alternative<serve::CovertPlanRequest>(request.payload);
    bytes += std::string(serve::model_token(mapping.model)) + " ppin=" +
             serve::hex16(mapping.ppin) + " plan=" + (plan ? "1" : "0");
    for (const core::PathObservation& observation : *mapping.observations) {
      bytes += ' ';
      bytes += observation.to_string();
    }
    bytes += "\n";
  }
  return bytes;
}

RunResult run_serve_hot(const RunContext& context, const Plan& plan) {
  return run_serve(true, context, plan);
}

RunResult run_serve_cold(const RunContext& context, const Plan& plan) {
  return run_serve(false, context, plan);
}

}  // namespace perfbench
