// The serving layer's solution-cache contract: probing/filling the
// solver-level ilp::SolutionCache around batch dispatch never changes a
// response byte, for any engine at any worker count — and the
// core::MapSolver probe/store primitives agree on the engine-salted key.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "serve/loadgen.hpp"
#include "serve/service.hpp"
#include "sim/instance_factory.hpp"

namespace corelocate::serve {
namespace {

/// A small head-heavy stream over a tiny map cache: the capacity-1 map
/// cache keeps evicting, so repeated mappings reach the solver again and
/// the solution cache actually fields hits.
LoadgenOptions stream_options() {
  LoadgenOptions options;
  options.requests = 600;
  options.distinct_per_sku = 3;
  options.permute_fraction = 0.25;
  return options;
}

struct ReplayOutcome {
  std::string log_bytes;
  std::uint64_t checksum = 0;
  std::uint64_t solution_hits = 0;
  std::size_t cache_entries = 0;
};

ReplayOutcome replay(core::SolverEngine engine, int jobs, bool solution_cache) {
  const Loadgen loadgen(stream_options());
  std::ostringstream log;
  ServiceOptions options;
  options.jobs = jobs;
  options.batch_max = 64;
  options.cache_capacity = 1;  // starve the map cache: solver sees repeats
  options.cache_shards = 1;
  options.engine = engine;
  options.solution_cache = solution_cache;
  options.log_stream = &log;
  Service service(options);
  for (std::uint64_t i = 0; i < stream_options().requests; ++i) {
    service.submit(loadgen.make_request(i));
    if (service.pending() >= 64) service.pump();
  }
  service.drain();
  ReplayOutcome outcome;
  outcome.log_bytes = log.str();
  outcome.checksum = service.response_log().checksum();
  const obs::Counter* hits =
      service.registry().find_counter("serve.solution_cache.hits");
  outcome.solution_hits = hits != nullptr ? hits->value() : 0;
  outcome.cache_entries = service.solution_cache().size();
  return outcome;
}

TEST(ServeSolutionCache, OnOffByteIdenticalAcrossWorkerCounts) {
  for (const core::SolverEngine engine :
       {core::SolverEngine::kDecomposed, core::SolverEngine::kRefined}) {
    SCOPED_TRACE(std::string("engine=") + core::engine_token(engine));
    const ReplayOutcome baseline = replay(engine, 1, false);
    ASSERT_FALSE(baseline.log_bytes.empty());
    EXPECT_EQ(baseline.cache_entries, 0u);

    for (const int jobs : {1, 4, 8}) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs));
      const ReplayOutcome cached = replay(engine, jobs, true);
      EXPECT_EQ(cached.log_bytes, baseline.log_bytes);
      EXPECT_EQ(cached.checksum, baseline.checksum);
      EXPECT_GT(cached.cache_entries, 0u);
    }
    // The starved map cache guarantees the solver re-sees signatures, so
    // at least one replay must have come from the solution cache.
    EXPECT_GT(replay(engine, 1, true).solution_hits, 0u);
  }
}

TEST(ServeSolutionCache, ProbeStorePrimitivesShareTheKey) {
  const sim::InstanceFactory factory(sim::InstanceFactory::kDefaultFleetSeed);
  const MappingRequest request =
      synthesize_client(sim::XeonModel::k8259CL, 13, factory);
  const sim::ModelSpec& spec = sim::spec_for(request.model);
  const core::ObservationSet& observations = *request.observations;
  const core::MapSolver decomposed(core::SolverEngine::kDecomposed, spec.die.rows,
                                   spec.die.cols);
  const core::MapSolver refined(core::SolverEngine::kRefined, spec.die.rows,
                                spec.die.cols);

  ilp::SolutionCache cache;
  core::MapSolveResult solved;
  EXPECT_FALSE(decomposed.probe_cache(observations, request.cha_count, cache, solved));

  const core::MapSolveResult cold = decomposed.solve(observations, request.cha_count);
  ASSERT_TRUE(cold.success) << cold.message;
  decomposed.store_cache(observations, request.cha_count, cache, cold);
  EXPECT_EQ(cache.size(), 1u);

  ASSERT_TRUE(decomposed.probe_cache(observations, request.cha_count, cache, solved));
  EXPECT_TRUE(solved.cache_hit);
  EXPECT_EQ(solved.cha_position, cold.cha_position);
  EXPECT_EQ(solved.nodes, cold.nodes);

  // Keys are engine-salted: a refined probe misses on the decomposed
  // entry, then hits byte for byte once a refined result is stored.
  EXPECT_FALSE(refined.probe_cache(observations, request.cha_count, cache, solved));
  const core::MapSolveResult refined_cold =
      refined.solve(observations, request.cha_count);
  ASSERT_TRUE(refined_cold.success) << refined_cold.message;
  refined.store_cache(observations, request.cha_count, cache, refined_cold);
  EXPECT_EQ(cache.size(), 2u);
  core::MapSolveResult replayed;
  ASSERT_TRUE(refined.probe_cache(observations, request.cha_count, cache, replayed));
  EXPECT_TRUE(replayed.cache_hit);
  EXPECT_EQ(replayed.success, refined_cold.success);
  EXPECT_EQ(replayed.message, refined_cold.message);
  EXPECT_EQ(replayed.cha_position, refined_cold.cha_position);
  EXPECT_EQ(replayed.nodes, refined_cold.nodes);
  EXPECT_EQ(replayed.lp_iterations, refined_cold.lp_iterations);
  EXPECT_EQ(replayed.nodes_pruned, refined_cold.nodes_pruned);
  EXPECT_EQ(replayed.lp_solves_avoided, refined_cold.lp_solves_avoided);

  // solve() with the cache attached takes the same hit.
  const core::MapSolveResult attached =
      refined.solve(observations, request.cha_count, &cache);
  EXPECT_TRUE(attached.cache_hit);
  EXPECT_EQ(attached.cha_position, refined_cold.cha_position);
  EXPECT_EQ(attached.message, refined_cold.message);
}

}  // namespace
}  // namespace corelocate::serve
