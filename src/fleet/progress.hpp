#pragma once
// Progress surface for fleet surveys: instances/sec, ETA and the median
// instance latency, emitted through util::log so bench stdout (the
// tables being reproduced) stays clean. All clock reads go through
// obs::Clock, the codebase's sanctioned wall-clock source.

#include <cstddef>
#include <mutex>
#include <string>

#include "obs/clock.hpp"
#include "util/lockcheck.hpp"
#include "util/stats.hpp"

namespace corelocate::fleet {

/// Merged timing view of a survey (or of one in flight).
struct ProgressSummary {
  int done = 0;       ///< instances finished (computed + resumed)
  int resumed = 0;    ///< of which were loaded from a checkpoint
  int total = 0;
  double elapsed_seconds = 0.0;
  double instances_per_second = 0.0;  ///< computed instances only
  double eta_seconds = 0.0;
  /// Whole-instance latency [s], for the progress line's p50.
  util::Histogram wall_hist{0.0, kHistRangeSeconds, kHistBins};

  static constexpr double kHistRangeSeconds = 10.0;
  static constexpr std::size_t kHistBins = 1000;  ///< 10 ms resolution
};

/// Thread-safe progress meter. instance_done() takes one short lock per
/// *completed instance* — orders of magnitude off the measurement hot
/// path — and throttles log emission so a fast fleet does not spam. On
/// completion it emits one final 100 % summary line with the total wall
/// time (never throttled), so a survey always ends with its totals.
class ProgressMeter {
 public:
  /// `emit` turns on log lines (info level); metrics accumulate either
  /// way. `label` tags every line — a sharded fleet passes "shard k/n"
  /// so N concurrent processes stay tellable apart in one terminal.
  ProgressMeter(int total, bool emit, std::string label = "");

  /// Accounts instances that resume from a checkpoint (not recomputed).
  void note_resumed(int count);

  void instance_done(double wall_s);

  ProgressSummary summary() const;

 private:
  void emit_line_locked() CORELOCATE_REQUIRES(mutex_);
  void emit_final_locked() CORELOCATE_REQUIRES(mutex_);
  ProgressSummary snapshot_locked() const CORELOCATE_REQUIRES(mutex_);

  std::string prefix_locked() const CORELOCATE_REQUIRES(mutex_);

  const int total_;
  const bool emit_;
  const std::string label_;
  const obs::Clock::Time start_;
  mutable util::CheckedMutex<util::lockcheck::kRankProgress> mutex_{"ProgressMeter"};
  ProgressSummary acc_ CORELOCATE_GUARDED_BY(mutex_);
  obs::Clock::Time last_emit_ CORELOCATE_GUARDED_BY(mutex_);
  bool final_emitted_ CORELOCATE_GUARDED_BY(mutex_) = false;
};

}  // namespace corelocate::fleet
