#pragma once
// Synthetic request workload for the corelocated service.
//
// Models the paper's fleet at serving scale: a pool of distinct
// simulated instances across the four paper SKUs, queried repeatedly
// under a head-heavy (Zipf) repeat-instance distribution — the
// situation the fleet survey measured, where a handful of fuse-out
// patterns dominate and almost every query is for an already-seen
// instance. Request i is a pure function of (options, i): the stream
// replayed into jobs=1 and jobs=8 services is the same stream, which is
// what makes the response-log byte-identity check meaningful.
//
// The pool's observation sets are synthesized once up front, so the
// steady-state request cost is the service's own (fingerprint + cache),
// not the simulator's.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/observation.hpp"
#include "serve/request.hpp"
#include "sim/instance_factory.hpp"

namespace corelocate::serve {

struct LoadgenOptions {
  std::uint64_t requests = 1'000'000;
  /// Distinct instances per SKU in the pool; the Zipf head repeats.
  int distinct_per_sku = 24;
  /// Zipf exponent of the repeat-instance distribution (higher = more
  /// head-heavy; 0 = uniform).
  double zipf_exponent = 1.1;
  /// Fraction of requests that are covert-plan asks (ride the cache).
  double plan_fraction = 0.125;
  /// Fraction that are fleet-survey summaries (bypass the cache).
  double survey_fraction = 0.0;
  /// Fraction whose observation set is re-permuted per request — the
  /// canonicalization workout: permuted replays must still hit.
  double permute_fraction = 1.0 / 16;
  std::uint64_t seed = 0x10AD6E2ULL;
  /// Manufacturing distribution of the simulated fleet.
  std::uint64_t fleet_seed = sim::InstanceFactory::kDefaultFleetSeed;
  std::vector<sim::XeonModel> skus = {sim::XeonModel::k8124M, sim::XeonModel::k8175M,
                                      sim::XeonModel::k8259CL, sim::XeonModel::k6354};
};

/// Short whitespace-free SKU token used in request-file lines
/// ("8124M", "8175M", "8259CL", "6354").
const char* model_token(sim::XeonModel model);

/// Inverse of model_token. Returns false on an unknown token.
bool parse_model_token(const std::string& token, sim::XeonModel& model);

/// Synthesizes the client-side view of one instance: ground-truth
/// identity plus the observation set a local probe run would measure.
/// Pure function of (model, seed, factory) — the daemon's request-file
/// lines (`mapping model=.. seed=..`) reconstruct the same payload.
MappingRequest synthesize_client(sim::XeonModel model, std::uint64_t seed,
                                 const sim::InstanceFactory& factory);

/// A permuted copy of an observation set (set order and per-observation
/// activation order shuffled), for exercising canonicalization.
std::shared_ptr<const core::ObservationSet> permute_observations(
    const core::ObservationSet& observations, std::uint64_t seed);

class Loadgen {
 public:
  explicit Loadgen(LoadgenOptions options);

  const LoadgenOptions& options() const noexcept { return options_; }
  std::size_t pool_size() const noexcept { return pool_.size(); }

  /// Builds request `index` of the stream. Pure function of
  /// (options, index); thread-safe.
  Request make_request(std::uint64_t index) const;

  /// The pool entry request `index` targets (for tests and for writing
  /// daemon request files). Survey requests return -1.
  int pool_index_of(std::uint64_t index) const;

  /// One daemon request-file line describing request `index` (see
  /// docs/SERVING.md for the grammar).
  std::string request_line(std::uint64_t index) const;

 private:
  struct Pooled {
    sim::XeonModel model{};
    std::uint64_t instance_seed = 0;
    MappingRequest request;
  };

  struct Draw {
    int pool = -1;  ///< -1 = survey request
    bool plan = false;
    bool surround = false;
    int count = 0;
    std::uint64_t permute_seed = 0;  ///< 0 = unpermuted
    sim::XeonModel survey_model{};
  };

  Draw draw_for(std::uint64_t index) const;

  LoadgenOptions options_;
  std::vector<Pooled> pool_;
  std::vector<double> cumulative_;  ///< Zipf CDF over pool entries
};

}  // namespace corelocate::serve
