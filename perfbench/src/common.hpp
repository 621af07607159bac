#pragma once
// Shared pieces of the corelocate benchmark: timing, the tail-percentile
// rule, result digests, the metric/JSON output contract and a minimal
// span tracer that folds into per-name self times.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// The clock every benchmark time is read from: this process's CPU time
/// (CLOCK_PROCESS_CPUTIME_ID). The workloads run one thread that never
/// waits, so on a machine of its own this equals wall time. On a shared VM
/// it leaves out the time the host runs someone else on our CPU (steal),
/// which comes in bursts and moved wall-clock tails by half (NOTES.md).
/// main.cpp prints the run's wall time and voluntary context switches
/// beside it, so a change that makes the program wait still shows.
struct CpuClock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<CpuClock>;
  static constexpr bool is_steady = true;
  static time_point now() noexcept;
};
using Clock = CpuClock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Nearest-rank percentile `permille / 10` of `values`.
double percentile(std::vector<double> values, int permille);

/// Highest percentile (in permille) of a fixed ladder — 99.9, 99, 95,
/// 90, 75 — that leaves at least ten of `independent_samples` beyond it.
/// Falls back to the median (500) below forty samples.
int tail_permille(std::uint64_t independent_samples);

/// "p99", "p99.9", ... for a permille from tail_permille.
std::string percentile_label(int permille);

/// The tail of `samples` at the percentile tail_permille picks for
/// `independent` samples — the wave count when a wave's responses share
/// one fate — with a label naming the percentile and both counts.
struct Tail {
  int permille = 500;
  double value = 0.0;
  std::string label;
};
Tail tail_of(const std::vector<double>& samples, std::uint64_t independent,
             const std::string& unit_of_independence);

/// "round rates 1/s: min .., median .., max .. (n rounds)", for the notes.
std::string rates_note(const std::vector<double>& rates);

/// Metric names follow [A-Za-z0-9_.-]+, start with a letter or digit
/// and are at most 64 characters long.
bool valid_metric_name(std::string_view name);

/// FNV-1a 64 over a byte stream; the same hash as serve::ResponseLog's
/// checksum, so a round's digest can be checked against the Service's.
class Fnv64 {
 public:
  Fnv64& add(std::string_view bytes) noexcept;
  std::uint64_t value() const noexcept { return state_; }

 private:
  std::uint64_t state_ = 0xCBF29CE484222325ULL;
};

std::uint64_t fnv_file(const std::string& path);
std::string hex64(std::uint64_t value);

/// Pins the calling thread to the next CPU it may run on, taking them in
/// turn; a no-op when only one is allowed. A shared host slows each CPU by
/// its own amount, which changes over seconds to minutes. Calling this
/// before every wave or instance makes a run's times an average over all
/// the CPUs instead of the one the scheduler happened to keep the driver
/// thread on (NOTES.md has the measurement).
void next_cpu();

/// Peak resident set size of this process, in MiB.
double peak_rss_mib();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark invocation reports. `notes` are printed as
/// human-readable lines before the final JSON line.
struct RunResult {
  std::vector<std::string> errors;  ///< any entry makes the run incorrect
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit);
  void error(std::string message) { errors.push_back(std::move(message)); }
  bool correct() const noexcept { return errors.empty(); }
};

/// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
/// Throws std::invalid_argument on a bad metric name, a duplicate name or
/// a non-finite value.
std::string result_json(const RunResult& result);

/// Span tracer that keeps only per-name aggregates: every closed span adds
/// its duration to its name's total and to its parent's child time, so a
/// name's self time is its total minus the time its child spans cover.
class Trace {
 public:
  struct Row {
    std::uint64_t calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  class Span {
   public:
    Span(Trace& trace, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Trace& trace_;
  };

  Row row(const std::string& name) const;
  /// Mean time per call of `name`, in seconds (0 when never called).
  double mean_s(const std::string& name) const;

  /// Self-time table, one line per span name, largest self time first.
  std::vector<std::string> table(const std::string& title) const;

 private:
  struct Open {
    const char* name;
    Clock::time_point start;
    double child_s;
  };

  std::vector<Open> stack_;
  std::map<std::string, Row> rows_;
};

}  // namespace perfbench
