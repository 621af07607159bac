#pragma once
// Multi-process fleet sharding: split one survey's instance space across
// N independent processes, then merge their outputs back into exactly
// the result a serial run would have produced.
//
// Partition: shard k of n covers the contiguous global index range
//   [floor(k*N/n), floor((k+1)*N/n))
// so shard order IS index order and ranges tile [0, N) exactly. Seeds
// are a function of the global index (survey seeding contract), so a
// shard computes byte-for-byte the records the serial run computes for
// those indices.
//
// Each shard process writes one survey segment (fleet/record_stream.hpp)
// at the stem shard_dir/shard-K-of-N, by running its range through
// run_survey with that stem as the checkpoint:
//   shard-K-of-N.rio      — its records in index order, one block each
//   shard-K-of-N.manifest — identity (model, seeds) from the start, then
//                           range, outcome counts and `end` once the
//                           last record is durable: `end` commits the
//                           segment, and a killed shard resumes with
//                           `resume = true` like any checkpoint.
//
// merge_shards() validates the manifests against the expected survey
// identity, streams the segments in shard order, and re-aggregates.
// Streaming: memory stays bounded by one recordio block, whatever the
// fleet size (records are only retained when the caller asks). Because
// metric totals use util::ExactSum and pattern counts are integers, the
// merged result equals the serial run's; a caller that re-encodes the
// streamed records through the same writer policy gets a byte-identical
// segment too, however many shards (at whatever --jobs) produced them.

#include <functional>
#include <string>

#include "fleet/record_stream.hpp"
#include "fleet/survey.hpp"

namespace corelocate::fleet {

/// Contiguous slice of the global instance space.
struct ShardRange {
  int first = 0;
  int count = 0;
};

/// Deterministic partition of `instances` into `shard_of` tiles; tile
/// sizes differ by at most one. Throws std::invalid_argument unless
/// 0 <= shard_index < shard_of and instances >= 0.
ShardRange shard_range(int instances, int shard_index, int shard_of);

/// `dir/shard-K-of-N`: the segment stem of one shard. A checkpointed
/// survey is shard 0 of 1 of itself (see SurveyOptions::checkpoint_dir).
std::string shard_stem(const std::string& dir, int shard_index, int shard_of);


struct ShardOptions {
  /// Fleet-wide survey options: `instances` is the TOTAL fleet size
  /// (the shard derives its own range), seeds identify the survey.
  /// first_instance must be 0 — sharding owns the partition — and
  /// checkpoint_dir empty, since the shard segment is the checkpoint;
  /// `resume` continues a killed shard.
  SurveyOptions survey;
  std::string shard_dir;
  int shard_index = 0;
  int shard_of = 1;
};

struct ShardResult {
  SurveyResult survey;  ///< this shard's slice
  ShardRange range;
  SegmentPaths paths;  ///< segment_paths(shard_stem(...))
};

/// Runs shard `shard_index` of `shard_of` and writes its segment +
/// manifest. The survey's record_sink, if set, still sees the shard's
/// records (index order, resumed ones included) after they hit the
/// segment writer.
ShardResult run_shard(sim::XeonModel model, const ShardOptions& options);

struct MergeOptions {
  /// Expected survey identity; must match every shard manifest
  /// (model via the `model` argument; instances, base_seed, fleet_seed
  /// here). keep_records and record_sink behave as in run_survey:
  /// record_sink sees every merged record in global index order — wire
  /// it to the same writer a serial run would use and the merged
  /// output is byte-identical to the serial run's.
  SurveyOptions survey;
  std::string shard_dir;
  int shard_of = 1;
};

/// Merges the `shard_of` shard outputs under shard_dir. Throws
/// std::runtime_error on a missing, uncommitted, foreign or misplaced
/// shard or any segment damage (recordio CRCs make corruption loud). The result's
/// registry carries fleet.recordio.* read counters; timing stats are
/// empty — merge replays outcomes, not work.
SurveyResult merge_shards(sim::XeonModel model, const MergeOptions& options);

}  // namespace corelocate::fleet
