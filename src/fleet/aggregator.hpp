#pragma once
// Thread-safe result sink for fleet surveys.
//
// Locking strategy: there is none on the hot path. Each worker owns a
// cache-line-padded bucket and only ever touches its own; the barrier
// (merge()) runs after the pool has drained, when no worker writes.
//
// Determinism: PatternStats/IdMappingStats keep a total entry order
// (count desc, key asc), and their integer counts make the merge
// fold-order independent — merged parallel stats equal serial stats
// exactly. Floating-point metric totals stream through util::ExactSum,
// whose fixed-point accumulation is order-independent too, so the
// barrier folds per-worker partials instead of retaining rows. Stage
// timings are not aggregated here: the survey's obs::Registry carries
// them (fleet.step*_seconds), outside the reproduced tables.
//
// Memory: aggregation is streaming end to end. With keep_records off
// (the fleet shard/bench path) the aggregator holds O(workers x
// distinct patterns) state however many instances flow through it —
// the bench/fleet_million RSS gate leans on exactly this.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "fleet/survey_record.hpp"
#include "util/exact_sum.hpp"
#include "util/lockcheck.hpp"

namespace corelocate::fleet {

struct AggregateResult {
  /// Sorted by instance index; empty when keep_records was off.
  std::vector<InstanceRecord> records;
  core::PatternStats patterns;          ///< successful instances only
  core::IdMappingStats id_mappings;     ///< successful instances only
  std::map<std::string, double> metric_totals;  ///< exact order-free sums
  int completed = 0;
  int failed = 0;
};

class Aggregator {
 public:
  /// `keep_records` retains every InstanceRecord for the report path;
  /// switch it off to aggregate unbounded instance counts in bounded
  /// memory (stats stream either way).
  explicit Aggregator(std::size_t workers, bool keep_records = true);

  std::size_t worker_count() const noexcept { return buckets_.size(); }
  bool keeps_records() const noexcept { return keep_records_; }

  /// Accumulates into worker `worker`'s private bucket. Callers must
  /// ensure one thread per bucket (the survey uses the pool worker id).
  void add(std::size_t worker, InstanceRecord record);

  /// Barrier step: folds all buckets. Call only after all add()ers are
  /// done; the aggregator may be reused afterwards (buckets are drained).
  /// Serial-phase only: corelint proves no pool task can reach it.
  AggregateResult merge() CORELOCATE_SERIAL_PHASE;

 private:
  struct alignas(64) Bucket {
    std::vector<InstanceRecord> records;
    core::PatternStats patterns;
    core::IdMappingStats id_mappings;
    std::map<std::string, util::ExactSum> metric_totals;
    int completed = 0;
    int failed = 0;
    /// Catches two threads inside the same bucket at once — the misuse
    /// the lock-free design forbids (see the header comment).
    util::ReentryGuard entry_guard;
  };

  std::vector<Bucket> buckets_;  // corelint: owned-by(pool worker `worker`)
  const bool keep_records_;      // set once at construction, read-only after
};

}  // namespace corelocate::fleet
