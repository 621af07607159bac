#pragma once
// Fleet <-> recordio bridge: the one durable survey format (a record
// segment plus its manifest), the InstanceRecord codec, and the reorder
// buffer that turns out-of-order worker completions back into an
// index-ordered record stream.
//
// The recordio segment is part of the determinism contract, so the
// schema carries only the deterministic fields of an InstanceRecord:
// identity (index, seed), outcome, the core map, and the metric map.
// The measured stage durations are wall-clock (tagged
// `corelint: non-deterministic` in survey_record.hpp) and are never
// stored — a segment written by a jobs-8 shard run must be
// byte-identical to the serial run's, and timings never are.
//
// A survey segment lives at a path stem: `<stem>.rio` holds the records
// in index order and `<stem>.manifest` is its text identity card. Both a
// checkpointed survey and a shard write this pair (docs/SHARDING.md).

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "fleet/survey_record.hpp"
#include "recordio/reader.hpp"
#include "recordio/schema.hpp"
#include "util/lockcheck.hpp"
#include "util/lockranks.hpp"

namespace corelocate::fleet {

/// Column layout of a survey-record segment. Indices and seeds are
/// delta-coded (both are monotone in a serial or sharded stream); CHA
/// positions interleave (row, col) pairs into one delta-coded list.
const recordio::Schema& survey_record_schema();

/// Deterministic fields of `record` as a recordio row (schema order).
/// Throws std::invalid_argument on an empty metric key or one holding
/// ';' (the metric-name column's separator), so a bad key fails when it
/// is written rather than when a resume or merge reads it back.
recordio::Row encode_survey_record(const InstanceRecord& record);

/// Inverse of encode_survey_record. Timing fields come back zero and
/// from_checkpoint false — the segment never stored them.
InstanceRecord decode_survey_record(const recordio::Row& row);

/// Streams the records of the segment at `path`, which must be the
/// instances first, first + 1, ... of the survey seeded from
/// `base_seed` (instance i has seed base_seed + i), at most `limit` of
/// them. Records pass to `take` in order; returns how many there were.
/// Throws std::runtime_error on a foreign, reordered or excess record
/// and on any segment damage.
int read_segment(const std::string& path, int first, int limit,
                 std::uint64_t base_seed,
                 const std::function<void(InstanceRecord)>& take,
                 recordio::RecordReader::Stats* stats = nullptr);

/// The two files of the survey segment at a path stem.
struct SegmentPaths {
  std::string segment;   ///< `<stem>.rio`
  std::string manifest;  ///< `<stem>.manifest`
};

SegmentPaths segment_paths(const std::string& stem);

/// `<stem>.manifest`, the text card beside a survey segment:
///
///   fleet-shard v2
///   model Xeon Platinum 8259CL    } identity: written when the segment
///   base_seed f1ee7               } opens, checked on resume and merge
///   fleet_seed da7e2022           }
///   range 0 60                    } commit: written once the last
///   completed 60                  } record is durable; `end` is what
///   failed 0                      } commits the segment
///   end
///
/// A manifest without `end` marks a segment still being written or cut
/// short by a killed process; resume continues it, merge refuses it.
struct SegmentManifest {
  std::string model;
  std::uint64_t base_seed = 0;
  std::uint64_t fleet_seed = 0;
  bool committed = false;  ///< the fields below are valid
  int first = 0;
  int count = 0;
  int completed = 0;
  int failed = 0;
};

/// Replaces the manifest at `path` in one rename, so a reader sees the
/// old card or the new one, never a torn one. Writes the commit lines
/// only when `manifest.committed`.
void write_manifest(const std::string& path, const SegmentManifest& manifest);

/// Parses the manifest at `path` and checks that it names the survey
/// `identity` (model, base_seed, fleet_seed). Throws std::runtime_error
/// when the file is missing or malformed, or names another survey.
SegmentManifest read_manifest(const std::string& path, const SegmentManifest& identity);

/// Reorder buffer: workers complete instances in pool order, the sink
/// emits them in index order. deliver() buffers a record until every
/// earlier index has been emitted; the emit callback runs under the
/// sink's mutex, so it needs no locking of its own (recordio writers
/// are single-threaded by design).
///
/// The buffer is bounded in practice by how far the pool runs ahead of
/// the slowest in-flight instance (~worker count, not instance count);
/// max_buffered() reports the high-water mark so the survey can export
/// it as an observability counter.
class OrderedSink {
 public:
  using Emit = std::function<void(const InstanceRecord&)>;

  /// Emits records with consecutive indices starting at `first_index`.
  OrderedSink(int first_index, Emit emit);

  /// Hands one record to the sink. Thread-safe; blocks only for the
  /// flush of any newly in-order run.
  void deliver(InstanceRecord record);

  /// Records still waiting for an earlier index. Zero after a complete
  /// stream.
  std::size_t pending() const;

  std::size_t max_buffered() const;

 private:
  struct IndexAfter {
    bool operator()(const InstanceRecord& a, const InstanceRecord& b) const {
      return a.index > b.index;  // min-heap on index
    }
  };

  Emit emit_;
  mutable util::CheckedMutex<util::lockcheck::kRankRecordSink> mutex_{"OrderedSink"};
  std::priority_queue<InstanceRecord, std::vector<InstanceRecord>, IndexAfter>
      heap_ CORELOCATE_GUARDED_BY(mutex_);
  int next_index_ CORELOCATE_GUARDED_BY(mutex_);
  std::size_t max_buffered_ CORELOCATE_GUARDED_BY(mutex_) = 0;
};

}  // namespace corelocate::fleet
