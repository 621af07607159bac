#pragma once
// The corelocated mapping service: batched, cache-fronted serving of
// mapping / covert-plan / survey requests on the fleet ThreadPool.
//
// Execution model — batch-synchronous waves:
//
//   submit()  assigns each request the next intake sequence number and
//             queues it. Cheap, single-threaded.
//   pump()    takes up to batch_max queued requests (one *batch*) and
//             runs three phases:
//               A (serial)   fingerprint + cache probe per request, in
//                            seq order; misses group by solve key.
//               B (parallel) one solver task per unique group and one
//                            task per survey request, on the worker
//                            pool (jobs=1 runs them inline — the serial
//                            reference path, as in fleet::run_survey).
//               C (serial)   responses built, cache filled and the
//                            response log appended in seq order.
//   drain()   pumps until the queue is empty.
//
// Determinism contract (same shape as jobs-N==jobs-1 in src/fleet/):
// every response — including its hit/solved/coalesced status — is a
// pure function of (request stream, options.batch_max). Worker count
// and scheduling only change *when* a solve runs, never its input or
// output; cache state advances only in the serial phases, in seq
// order. The response log is therefore byte-identical at any --jobs.
//
// Wall-clock is observability-only: service times feed the registry
// (p50/p99 via histograms, exact moments via ExactStats) and never the
// response bytes — ResponseLog is a corelint taint sink to keep it so.

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <vector>

#include "core/map_solver.hpp"
#include "ilp/solution_cache.hpp"
#include "obs/metrics.hpp"
#include "serve/map_cache.hpp"
#include "serve/request.hpp"
#include "serve/response_log.hpp"

namespace corelocate::fleet {
class ThreadPool;
}

namespace corelocate::serve {

struct ServiceOptions {
  int jobs = 1;             ///< solver workers; 1 = serial reference path
  int batch_max = 256;      ///< max requests per pump() wave
  std::size_t cache_capacity = 4096;
  std::size_t cache_shards = 8;
  core::SolverEngine engine = core::SolverEngine::kDecomposed;
  /// Put a solver-level ilp::SolutionCache behind the map cache, for
  /// every engine (core::MapSolver's engine-salted keys): solve groups
  /// are probed against it before Phase B dispatch and cold successes
  /// fill it after the join — both serial phases, honouring
  /// the cache's no-concurrency contract. Hits only skip the dispatch:
  /// every response, statuses included, stays byte-identical to a run
  /// with the cache off (a hit replays the cold solve byte for byte).
  bool solution_cache = false;
  std::size_t solution_cache_capacity = 0;  ///< 0 = unbounded
  /// Response log destination (null = count/checksum only).
  std::ostream* log_stream = nullptr;
  /// Called once per response, in seq order, after the log append.
  std::function<void(const Response&)> on_response;
};

class Service {
 public:
  explicit Service(ServiceOptions options);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Enqueues a request; returns its sequence number (0-based).
  std::uint64_t submit(Request request);

  /// Processes one batch; returns the number of responses produced.
  std::size_t pump();

  /// Processes batches until the queue is empty.
  void drain();

  /// Warms the solver-level solution cache from a segment written by
  /// ilp::SolutionCache::save (or by fleet_survey --solution-cache-file
  /// — the formats are one and the same, so a fleet survey's cold
  /// solves can pre-warm the daemon). Returns the entries inserted; 0
  /// with no error when `path` does not exist. Serial-phase only: call
  /// before the first pump(). Throws std::logic_error unless
  /// options.solution_cache is on — warming a cache the service never
  /// consults is a configuration bug, not a no-op.
  std::size_t warm_solution_cache(const std::string& path);

  /// Persists the solution cache for the next process's
  /// warm_solution_cache. Serial-phase only: call after drain().
  void save_solution_cache(const std::string& path) const;

  std::size_t pending() const noexcept { return queue_.size(); }

  const MapCache& cache() const noexcept { return cache_; }
  const ilp::SolutionCache& solution_cache() const noexcept { return solution_cache_; }
  const ResponseLog& response_log() const noexcept { return log_; }

  /// Per-endpoint instruments (counters, service-time stats and
  /// histograms, queue-depth and cache gauges). Gauges are refreshed at
  /// every pump; merge into a PerfReport registry after drain().
  const obs::Registry& registry() const noexcept { return registry_; }

 private:
  struct Queued {
    std::uint64_t seq = 0;
    Request request;
  };

  std::size_t run_batch(std::vector<Queued>& batch);

  ServiceOptions options_;
  MapCache cache_;
  /// Solver-level cache; touched only in run_batch's serial phases.
  /// Empty (and never consulted) unless options_.solution_cache is set.
  ilp::SolutionCache solution_cache_;
  ResponseLog log_;
  obs::Registry registry_;
  std::deque<Queued> queue_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t last_evictions_ = 0;
  double max_queue_depth_ = 0.0;
  std::unique_ptr<fleet::ThreadPool> pool_;
};

}  // namespace corelocate::serve
