#include "fleet/progress.hpp"

#include <iomanip>
#include <sstream>

#include "util/log.hpp"

namespace corelocate::fleet {

namespace {
constexpr std::uint64_t kEmitIntervalNs = 500'000'000;  // 500 ms
}  // namespace

ProgressMeter::ProgressMeter(int total, bool emit, std::string label)
    : total_(total), emit_(emit), label_(std::move(label)), start_(obs::Clock::now()) {
  acc_.total = total;
  last_emit_.ns = start_.ns >= kEmitIntervalNs ? start_.ns - kEmitIntervalNs : 0;
}

void ProgressMeter::note_resumed(int count) {
  util::LockGuard lock(mutex_);
  acc_.done += count;
  acc_.resumed += count;
  // A resume can complete the survey outright (everything checkpointed).
  if (emit_ && acc_.done == total_ && total_ > 0) emit_final_locked();
}

void ProgressMeter::instance_done(double wall_s) {
  util::LockGuard lock(mutex_);
  ++acc_.done;
  acc_.wall_hist.add(wall_s);
  if (!emit_) return;
  if (acc_.done == total_) {
    emit_final_locked();
    return;
  }
  const obs::Clock::Time now = obs::Clock::now();
  if (now.ns - last_emit_.ns < kEmitIntervalNs) return;
  last_emit_ = now;
  emit_line_locked();
}

ProgressSummary ProgressMeter::snapshot_locked() const
    CORELOCATE_REQUIRES(mutex_) {
  ProgressSummary snap = acc_;
  snap.elapsed_seconds = obs::Clock::seconds_since(start_);
  const int computed = snap.done - snap.resumed;
  if (snap.elapsed_seconds > 0.0 && computed > 0) {
    snap.instances_per_second = computed / snap.elapsed_seconds;
    if (snap.done < snap.total) {
      snap.eta_seconds = (snap.total - snap.done) / snap.instances_per_second;
    }
  }
  return snap;
}

std::string ProgressMeter::prefix_locked() const CORELOCATE_REQUIRES(mutex_) {
  return label_.empty() ? "fleet: " : "fleet[" + label_ + "]: ";
}

void ProgressMeter::emit_line_locked() CORELOCATE_REQUIRES(mutex_) {
  const ProgressSummary s = snapshot_locked();
  std::ostringstream line;
  line << prefix_locked() << s.done << "/" << s.total;
  if (s.resumed > 0) line << " (" << s.resumed << " resumed)";
  line << std::fixed << std::setprecision(1) << " | " << s.instances_per_second
       << " inst/s | eta " << s.eta_seconds << "s | p50 inst "
       << std::setprecision(0) << s.wall_hist.percentile(50.0) * 1e3 << "ms";
  util::log_info() << line.str();
}

void ProgressMeter::emit_final_locked() CORELOCATE_REQUIRES(mutex_) {
  if (final_emitted_) return;
  final_emitted_ = true;
  const ProgressSummary s = snapshot_locked();
  std::ostringstream line;
  line << prefix_locked() << "done " << s.done << "/" << s.total;
  if (s.resumed > 0) line << " (" << s.resumed << " resumed)";
  line << std::fixed << std::setprecision(1) << " in " << s.elapsed_seconds
       << "s | " << s.instances_per_second << " inst/s | p50 inst "
       << std::setprecision(0) << s.wall_hist.percentile(50.0) * 1e3 << "ms";
  util::log_info() << line.str();
}

ProgressSummary ProgressMeter::summary() const {
  util::LockGuard lock(mutex_);
  return snapshot_locked();
}

}  // namespace corelocate::fleet
