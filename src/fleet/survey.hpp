#pragma once
// Fleet survey engine: runs the locating pipeline over N independent
// instances of one CPU model — the paper's Sec. III measurement campaign
// (100 machines per SKU) as a reusable batch workload.
//
// Seeding contract
// ----------------
// Instance `i` always runs with seed `base_seed + i`; the machine RNG is
// seeded with that value and the measurement-tool RNG with
// `seed ^ 0x700150EED` (the convention the serial bench loops have used
// since the seed commit). Seeds never depend on worker identity or
// scheduling, so a survey's results are a pure function of
// (model, fleet_seed, base_seed, instances): `--jobs 8` is bit-identical
// to `--jobs 1`, and a resumed survey is bit-identical to an
// uninterrupted one.
//
// Checkpoint/resume
// -----------------
// A checkpoint is a survey segment (fleet/record_stream.hpp), the same
// pair a shard writes: completed instances drain through an
// index-ordered sink into `<stem>.rio`, one CRC block per record, and
// `<stem>.manifest` carries the survey identity, committed with `end`
// once the survey finishes. `resume = true` checks that identity, takes
// the segment's valid rows (a torn tail block is cut away) as the first
// instances of the survey, and computes only the rest. Index-ordered
// draining makes the files byte-identical across jobs counts and across
// kill/resume cycles — a parallel run may hold a completed record in the
// reorder buffer until its predecessors land, so a crash can cost up to
// ~jobs recomputes, never correctness.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "fleet/progress.hpp"
#include "fleet/survey_record.hpp"
#include "ilp/solution_cache.hpp"
#include "obs/metrics.hpp"

namespace corelocate::fleet {

/// Runs the full locating pipeline on instance (`model`, `seed`).
/// `solution_cache` (optional) is handed to the step-3 solver for
/// exact-hit replay and gets the cold result on a miss; the caller owns
/// it and must not share one instance across concurrent calls.
LocatedInstance locate_instance(sim::XeonModel model, std::uint64_t seed,
                                const sim::InstanceFactory& factory,
                                ilp::SolutionCache* solution_cache = nullptr);

/// Optional per-instance analysis, run right after the pipeline while the
/// ground truth is still in hand (e.g. score against truth, try the
/// refinement solver). Must be thread-safe: a pure function of its
/// arguments writing only to `record`. Not re-run for resumed instances —
/// whatever it stored in `record.metrics` is restored from the segment.
using AnalyzeFn =
    std::function<void(const InstanceTask&, const LocatedInstance&, InstanceRecord&)>;

struct SurveyOptions {
  int instances = 100;
  /// Index of the first instance: the survey covers
  /// [first_instance, first_instance + instances). A shard of a larger
  /// fleet sets this to its partition start; seeds stay a function of
  /// the *global* index, so sharded and serial runs agree per instance.
  int first_instance = 0;
  int jobs = 1;  ///< 1 = serial reference path (no threads spawned)
  /// Instance i runs with seed base_seed + i.
  std::uint64_t base_seed = 0;
  /// Fixes the manufacturing distribution (sim::InstanceFactory).
  std::uint64_t fleet_seed = sim::InstanceFactory::kDefaultFleetSeed;
  /// Path stem of the checkpoint segment: the survey writes
  /// `<stem>.rio` and `<stem>.manifest`, creating the parent directory.
  /// fleet_survey maps `--checkpoint DIR` to shard_stem(DIR, 0, 1), so a
  /// finished checkpoint merges as shard 0 of 1. Empty = checkpointing off.
  std::string checkpoint_dir;
  bool resume = false;  ///< continue the segment at checkpoint_dir
  bool progress = false;       ///< emit progress lines via util::log (info level)
  /// Optional cross-instance solution cache. Every worker runs with a
  /// private copy seeded from it; at aggregation the copies merge back
  /// into it in worker order. A hit replays the cold solve byte for byte, so records —
  /// and the merged cache contents — stay jobs-N == jobs-1 identical.
  /// Not owned.
  ilp::SolutionCache* solution_cache = nullptr;
  AnalyzeFn analyze;
  /// Retain per-instance records in SurveyResult.records. Switch off to
  /// survey unbounded instance counts in bounded memory: aggregation is
  /// streaming throughout, so only the stats survive.
  bool keep_records = true;
  /// Optional streaming consumer of completed records, invoked in
  /// strict index order (an OrderedSink reorders out-of-order pool
  /// completions) regardless of jobs. Resumed records flow through it
  /// too. The callback runs under the sink's lock: keep it quick and
  /// never let it take a lower-ranked fleet lock.
  std::function<void(const InstanceRecord&)> record_sink;
  /// Tags progress lines (e.g. "shard 1/3") so concurrent shard
  /// processes stay tellable apart; empty = plain "fleet:" lines.
  std::string progress_label;
};

struct SurveyResult {
  /// All instances, ordered by index (empty when keep_records is off).
  std::vector<InstanceRecord> records;
  core::PatternStats patterns;          ///< over successful instances
  core::IdMappingStats id_mappings;     ///< over successful instances
  /// Exact order-independent sums (util::ExactSum): identical however
  /// the work was partitioned.
  std::map<std::string, double> metric_totals;
  int completed = 0;  ///< successful instances (incl. resumed)
  int failed = 0;
  int resumed = 0;    ///< instances loaded from the checkpoint
  double wall_seconds = 0.0;  ///< whole-survey wall clock
  ProgressSummary timing;     ///< throughput + instance latency
  /// Observability metrics, merged from per-worker registries at the
  /// join barrier. Deterministic counters/stats (instances, failures,
  /// solver nodes/pivots) are bit-identical for jobs-N vs jobs-1; the
  /// wall-clock stats are timing metadata. Never read survey *results*
  /// back out of this registry.
  obs::Registry registry;
};

/// Runs the survey. Throws std::invalid_argument on bad options and
/// std::runtime_error on checkpoint I/O failure or a checkpoint that
/// does not belong to this survey; per-instance failures
/// (pipeline errors, exceptions from `analyze`) are captured in the
/// instance record instead of aborting the fleet.
SurveyResult run_survey(sim::XeonModel model, const SurveyOptions& options);

}  // namespace corelocate::fleet
