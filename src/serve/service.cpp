#include "serve/service.hpp"

#include <algorithm>
#include <future>
#include <stdexcept>
#include <variant>
#include <vector>

#include "covert/multi.hpp"
#include "fleet/survey.hpp"
#include "fleet/thread_pool.hpp"
#include "ilp/signature.hpp"
#include "obs/clock.hpp"
#include "obs/trace.hpp"
#include "serve/batcher.hpp"
#include "serve/fingerprint.hpp"
#include "util/hotpath.hpp"

namespace corelocate::serve {

namespace {

/// Deterministic short digest of a served map (response-log body).
std::uint64_t map_digest(const core::CoreMap& map) {
  ilp::SignatureBuilder builder(0x3A9D16E57ULL);
  builder.add_text(map.pattern_key());
  return builder.digest();
}

/// The step-3 solver for one request: the service's engine on the grid
/// of the request's model.
core::MapSolver solver_for(const MappingRequest& request, core::SolverEngine engine) {
  const sim::ModelSpec& spec = sim::spec_for(request.model);
  return core::MapSolver(engine, spec.die.rows, spec.die.cols);
}

/// Per-request scratch state for one batch.
struct ItemState {
  Endpoint endpoint = Endpoint::kMapping;
  Fingerprint fp;
  const MappingRequest* mapping = nullptr;  ///< null for survey items
  std::shared_ptr<const ServedMap> cached;
  double probe_seconds = 0.0;  // corelint: non-deterministic
  int group = -1;              ///< index into solve groups (misses)
  int survey_slot = -1;
};

struct GroupResult {
  core::MapSolveResult solved;
  double seconds = 0.0;  // corelint: non-deterministic
};

/// The small deterministic slice of a SurveyResult a response carries.
struct SurveyOutcome {
  bool ok = false;
  std::string error;
  int completed = 0;
  int failed = 0;
  int unique_patterns = 0;
  int unique_mappings = 0;
  double seconds = 0.0;  // corelint: non-deterministic
};

SurveyOutcome run_survey_request(const SurveyRequest& request) {
  SurveyOutcome outcome;
  const auto start = obs::Clock::now();  // corelint: non-deterministic
  try {
    fleet::SurveyOptions options;
    options.instances = request.instances;
    options.jobs = 1;  // one pool task; the pool provides the parallelism
    options.base_seed = request.base_seed;
    options.fleet_seed = request.fleet_seed != 0
                             ? request.fleet_seed
                             : sim::InstanceFactory::kDefaultFleetSeed;
    const fleet::SurveyResult result = fleet::run_survey(request.model, options);
    outcome.ok = true;
    outcome.completed = result.completed;
    outcome.failed = result.failed;
    outcome.unique_patterns = result.patterns.unique_patterns();
    outcome.unique_mappings = result.id_mappings.unique_mappings();
  } catch (const std::exception& e) {
    outcome.ok = false;
    outcome.error = e.what();
  }
  outcome.seconds = obs::Clock::seconds_since(start);  // corelint: non-deterministic
  return outcome;
}

std::string plan_body(const CovertPlanRequest& request, const core::CoreMap& map) {
  if (request.kind == PlanKind::kSurround) {
    const auto plan = covert::find_surround(map, request.count);
    if (!plan.has_value()) return "surround=none";
    std::string body = "receiver=" + std::to_string(plan->receiver_cha) + " senders=[";
    for (std::size_t i = 0; i < plan->sender_chas.size(); ++i) {
      if (i) body += ",";
      body += std::to_string(plan->sender_chas[i]);
    }
    return body + "]";
  }
  const auto pairs = covert::plan_disjoint_vertical_pairs(map, request.count);
  std::string body = "pairs=[";
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (i) body += ",";
    body += std::to_string(pairs[i].first) + ">" + std::to_string(pairs[i].second);
  }
  return body + "]";
}

}  // namespace

Service::Service(ServiceOptions options)
    : options_(options),
      cache_(options.cache_capacity, options.cache_shards),
      solution_cache_(options.solution_cache_capacity),
      log_(options.log_stream) {
  if (options_.jobs < 1) throw std::invalid_argument("Service: jobs < 1");
  if (options_.batch_max < 1) throw std::invalid_argument("Service: batch_max < 1");
  if (options_.jobs > 1) {
    pool_ = std::make_unique<fleet::ThreadPool>(static_cast<std::size_t>(options_.jobs));
  }
}

Service::~Service() = default;

std::uint64_t Service::submit(Request request) {
  const std::uint64_t seq = next_seq_++;
  queue_.push_back(Queued{seq, std::move(request)});
  return seq;
}

std::size_t Service::pump() {
  if (queue_.empty()) return 0;
  if (static_cast<double>(queue_.size()) > max_queue_depth_) {
    max_queue_depth_ = static_cast<double>(queue_.size());
  }
  registry_.gauge("serve.queue_depth").set(max_queue_depth_);
  std::vector<Queued> batch;
  const std::size_t take =
      std::min(queue_.size(), static_cast<std::size_t>(options_.batch_max));
  batch.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  return run_batch(batch);
}

void Service::drain() {
  while (pump() != 0) {
  }
}

std::size_t Service::warm_solution_cache(const std::string& path) {
  if (!options_.solution_cache) {
    throw std::logic_error(
        "Service: warm_solution_cache needs options.solution_cache on");
  }
  const std::size_t warmed = solution_cache_.load(path);
  registry_.counter("serve.solution_cache.warmed")
      .add(static_cast<std::uint64_t>(warmed));
  registry_.gauge("serve.solution_cache.size")
      .set(static_cast<double>(solution_cache_.size()));
  return warmed;
}

void Service::save_solution_cache(const std::string& path) const {
  solution_cache_.save(path);
}

std::size_t Service::run_batch(std::vector<Queued>& batch) {
  obs::Span batch_span("serve_batch", "serve");
  const std::size_t n = batch.size();
  std::vector<ItemState> items(n);
  std::vector<PendingSolve> pending;
  std::vector<const SurveyRequest*> survey_requests;
  pending.reserve(n);
  survey_requests.reserve(n);

  // Phase A (serial): fingerprint + cache probe, strictly in seq order,
  // so LRU recency — and with it every future eviction — is a pure
  // function of the request stream.
  for (std::size_t i = 0; i < n; ++i) {
    ItemState& item = items[i];
    const Request& request = batch[i].request;
    if (const auto* survey = std::get_if<SurveyRequest>(&request.payload)) {
      item.endpoint = Endpoint::kSurvey;
      item.survey_slot = static_cast<int>(survey_requests.size());
      survey_requests.push_back(survey);
      continue;
    }
    if (const auto* mapping = std::get_if<MappingRequest>(&request.payload)) {
      item.endpoint = Endpoint::kMapping;
      item.mapping = mapping;
    } else {
      item.endpoint = Endpoint::kCovertPlan;
      item.mapping = &std::get<CovertPlanRequest>(request.payload).instance;
    }
    const auto probe_start = obs::Clock::now();  // corelint: non-deterministic
    item.fp = fingerprint_of(*item.mapping);
    item.cached = cache_.find(item.fp.value);
    item.probe_seconds =
        obs::Clock::seconds_since(probe_start);  // corelint: non-deterministic
    if (!item.cached) {
      pending.push_back(PendingSolve{i, solve_group_key(*item.mapping, item.fp.signature),
                                     item.mapping});
    }
  }

  const std::vector<SolveGroup> groups = group_pending(pending);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (const std::size_t member : groups[g].members) {
      items[member].group = static_cast<int>(g);
    }
  }

  // Pre-dispatch (still serial): probe the solution cache once per
  // group. A hit replays the group's cold solve — the group skips Phase
  // B, its members keep their kSolved/kCoalesced statuses and bytes.
  std::vector<GroupResult> results(groups.size());
  std::vector<char> group_replayed(groups.size(), 0);
  if (options_.solution_cache) {
    std::uint64_t solution_hits = 0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const MappingRequest& mapping = *items[groups[g].members.front()].mapping;
      if (mapping.observations &&
          solver_for(mapping, options_.engine)
              .probe_cache(*mapping.observations, mapping.cha_count, solution_cache_,
                           results[g].solved)) {
        group_replayed[g] = 1;
        ++solution_hits;
      }
    }
    registry_.counter("serve.solution_cache.hits").add(solution_hits);
    registry_.counter("serve.solution_cache.misses")
        .add(groups.size() - solution_hits);
  }

  // Phase B (parallel): one solver task per unique un-replayed group,
  // one task per survey request. Tasks write only their own slot;
  // nothing here touches the caches, the log or the registry.
  std::vector<SurveyOutcome> surveys(survey_requests.size());
  const auto solve_task = [&](std::size_t g) {
    CORELOCATE_HOT_LOOP;  // Phase B solver task: the serving hot path
    const MappingRequest& mapping = *items[groups[g].members.front()].mapping;
    const auto start = obs::Clock::now();  // corelint: non-deterministic
    try {
      if (mapping.observations) {
        results[g].solved = solver_for(mapping, options_.engine)
                                .solve(*mapping.observations, mapping.cha_count);
      } else {
        results[g].solved.message = "mapping request carries no observations";
      }
    } catch (const std::exception& e) {
      results[g].solved.success = false;
      results[g].solved.message = std::string("exception: ") + e.what();
    }
    results[g].seconds = obs::Clock::seconds_since(start);  // corelint: non-deterministic
  };
  const auto survey_task = [&](std::size_t s) {
    CORELOCATE_HOT_LOOP;  // Phase B survey task: drives a whole fleet run
    surveys[s] = run_survey_request(*survey_requests[s]);
  };
  if (pool_) {
    std::vector<std::future<void>> futures;
    futures.reserve(groups.size() + surveys.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (group_replayed[g]) continue;
      futures.push_back(pool_->submit([&solve_task, g] { solve_task(g); }));
    }
    for (std::size_t s = 0; s < surveys.size(); ++s) {
      futures.push_back(pool_->submit([&survey_task, s] { survey_task(s); }));
    }
    for (std::future<void>& future : futures) future.get();
  } else {
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (!group_replayed[g]) solve_task(g);
    }
    for (std::size_t s = 0; s < surveys.size(); ++s) survey_task(s);
  }

  // Solution-cache fills (serial again), in group — i.e. first-
  // appearance — order, before any response is built. Only successful
  // cold solves are stored: a solver exception in Phase B would never
  // have reached a cache-attached solver's own insert either.
  if (options_.solution_cache) {
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (group_replayed[g] || !results[g].solved.success) continue;
      const MappingRequest& mapping = *items[groups[g].members.front()].mapping;
      solver_for(mapping, options_.engine)
          .store_cache(*mapping.observations, mapping.cha_count, solution_cache_,
                       results[g].solved);
    }
    registry_.gauge("serve.solution_cache.size")
        .set(static_cast<double>(solution_cache_.size()));
  }

  // Phase C (serial): responses, cache fills and the log, in seq order.
  std::uint64_t batch_hits = 0;
  std::uint64_t batch_misses = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ItemState& item = items[i];
    Response response;
    response.seq = batch[i].seq;
    response.endpoint = item.endpoint;

    if (item.endpoint == Endpoint::kSurvey) {
      const SurveyOutcome& outcome = surveys[static_cast<std::size_t>(item.survey_slot)];
      if (outcome.ok) {
        response.status = Status::kComputed;
        response.body = "completed=" + std::to_string(outcome.completed) +
                        " failed=" + std::to_string(outcome.failed) +
                        " unique_patterns=" + std::to_string(outcome.unique_patterns) +
                        " unique_mappings=" + std::to_string(outcome.unique_mappings);
      } else {
        response.status = Status::kFailed;
        response.message = outcome.error;
      }
      registry_.counter("serve.survey.requests").add(1);
      registry_.stat("serve.survey_service_seconds").add(outcome.seconds);
    } else {
      response.fingerprint = item.fp.value;
      registry_
          .counter(item.endpoint == Endpoint::kMapping ? "serve.mapping.requests"
                                                       : "serve.plan.requests")
          .add(1);
      std::shared_ptr<const ServedMap> served;
      if (item.cached) {
        ++batch_hits;
        response.status = Status::kHit;
        served = item.cached;
        registry_.stat("serve.hit_service_seconds").add(item.probe_seconds);
        registry_.histogram("serve.hit_service_hist", 0.0, 0.01, 2000)
            .add(item.probe_seconds);
      } else {
        ++batch_misses;
        const GroupResult& group = results[static_cast<std::size_t>(item.group)];
        const double cold_seconds = group.seconds + item.probe_seconds;
        registry_.stat("serve.cold_service_seconds").add(cold_seconds);
        registry_.histogram("serve.cold_service_hist", 0.0, 1.0, 2000)
            .add(cold_seconds);
        if (!group.solved.success) {
          response.status = Status::kFailed;
          response.message = group.solved.message.empty() ? "solver failed"
                                                          : group.solved.message;
        } else {
          const bool first_of_group =
              groups[static_cast<std::size_t>(item.group)].members.front() == i;
          response.status = first_of_group ? Status::kSolved : Status::kCoalesced;
          auto built = std::make_shared<ServedMap>();
          built->map = build_map(*item.mapping, group.solved);
          built->digest = map_digest(built->map);
          cache_.insert(item.fp.value, built);
          served = std::move(built);
        }
      }
      if (served) {
        // Alias the cached object: hits never copy the map.
        response.map = std::shared_ptr<const core::CoreMap>(served, &served->map);
        response.body = "map=" + hex16(served->digest) +
                        " chas=" + std::to_string(served->map.cha_count());
        if (item.endpoint == Endpoint::kCovertPlan) {
          const auto& plan =
              std::get<CovertPlanRequest>(batch[i].request.payload);
          response.body += " " + plan_body(plan, served->map);
        }
      }
    }

    if (response.status == Status::kFailed) registry_.counter("serve.failures").add(1);
    registry_.counter("serve.responses").add(1);
    log_.append_response(response);
    if (options_.on_response) options_.on_response(response);
  }

  // Batch-level instruments.
  registry_.counter("serve.batches").add(1);
  registry_.stat("serve.batch.requests", 1.0).add(static_cast<double>(n));
  registry_.counter("serve.batch.solves").add(groups.size());
  registry_.counter("serve.batch.coalesced").add(pending.size() - groups.size());
  std::uint64_t refine_trials = 0;  // replayed groups ran none
  for (const GroupResult& result : results) {
    refine_trials += static_cast<std::uint64_t>(result.solved.refine_trials);
  }
  registry_.counter("serve.refine.trials").add(refine_trials);
  for (const SolveGroup& group : groups) {
    registry_.stat("serve.batch.group_size", 1.0)
        .add(static_cast<double>(group.members.size()));
  }
  registry_.counter("serve.cache.hits").add(batch_hits);
  registry_.counter("serve.cache.misses").add(batch_misses);
  const CacheStats cache_stats = cache_.stats();
  registry_.counter("serve.cache.evictions").add(cache_stats.evictions - last_evictions_);
  last_evictions_ = cache_stats.evictions;
  registry_.gauge("serve.cache.size").set(static_cast<double>(cache_stats.size));
  registry_.gauge("serve.cache.hit_rate").set(cache_stats.hit_rate());
  return n;
}

}  // namespace corelocate::serve
