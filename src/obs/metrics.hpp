#pragma once
// Metrics registry: counters, gauges, exact stats, histograms.
//
// Each fleet worker owns a private Registry and the survey merges them at
// the join barrier — the same jobs-N == jobs-1 determinism contract as
// fleet::Aggregator. Every merge is an integer fold (counter sums,
// histogram bin sums, ExactStats quantized sums) or an order-independent
// double fold (gauge max), so the merged registry is bit-identical
// regardless of how instances were partitioned across workers.
//
// ExactStats is the piece that makes timing statistics mergeable exactly:
// samples are quantized to an integer number of quanta (1 ns by default)
// at add() time and accumulated as integers; mean/variance are derived
// from the integer sums only at read time. A floating-point Welford/Chan
// merge cannot give that guarantee — its result depends on merge
// grouping.
//
// Registries are intentionally NOT thread-safe: one registry per worker,
// merge single-threaded. Like spans, metrics are observability channels,
// not result sinks — never read survey outputs back out of a registry.

#include <cstdint>
#include <map>
#include <string>

#include "obs/json.hpp"
#include "util/stats.hpp"

namespace corelocate::obs {

class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept { value_ += delta; }
  std::uint64_t value() const noexcept { return value_; }
  void merge(const Counter& other) noexcept { value_ += other.value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time reading; merge keeps the maximum, the only fold that is
/// order-independent without a timestamp.
class Gauge {
 public:
  void set(double value) noexcept;
  double value() const noexcept { return value_; }
  bool has_value() const noexcept { return has_value_; }
  void merge(const Gauge& other) noexcept;

 private:
  double value_ = 0.0;
  bool has_value_ = false;
};

/// Exactly mergeable streaming statistics over quantized samples.
class ExactStats {
 public:
#if defined(__SIZEOF_INT128__)
  using WideUint = unsigned __int128;
#else
  // Wrap-around 64-bit fallback: variance may saturate nonsense on huge
  // streams but the merge stays bit-deterministic, which is the contract.
  using WideUint = std::uint64_t;
#endif

  /// `quantum` is the sample resolution, e.g. 1e-9 for nanosecond-exact
  /// seconds. Samples are rounded to the nearest quantum.
  explicit ExactStats(double quantum = 1e-9) noexcept : quantum_(quantum) {}

  void add(double sample) noexcept;
  void merge(const ExactStats& other);

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept;
  double mean() const noexcept;
  double variance() const noexcept;  // population variance
  double stddev() const noexcept;
  double min() const noexcept;
  double max() const noexcept;
  double quantum() const noexcept { return quantum_; }

 private:
  double quantum_;
  std::uint64_t count_ = 0;
  std::int64_t sum_q_ = 0;
  WideUint sum_sq_q_ = 0;
  std::int64_t min_q_ = 0;
  std::int64_t max_q_ = 0;
};

/// util::Histogram plus the shape metadata needed to merge and serialize.
class Hist {
 public:
  Hist(double lo, double hi, std::size_t bins);

  void add(double x) noexcept { hist_.add(x); }
  void merge(const Hist& other);

  double percentile(double q) const noexcept { return hist_.percentile(q); }
  std::size_t total() const noexcept { return hist_.total(); }
  double lo() const noexcept { return lo_; }
  double hi() const noexcept { return hi_; }
  const util::Histogram& histogram() const noexcept { return hist_; }

 private:
  double lo_;
  double hi_;
  util::Histogram hist_;
};

class Registry {
 public:
  /// Lookups create the instrument on first use. A histogram's shape is
  /// fixed by the first call; later calls ignore lo/hi/bins (and merge
  /// still demands matching shapes across registries).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  ExactStats& stat(const std::string& name, double quantum = 1e-9);
  Hist& histogram(const std::string& name, double lo, double hi, std::size_t bins);

  const Counter* find_counter(const std::string& name) const noexcept;
  const Gauge* find_gauge(const std::string& name) const noexcept;
  const ExactStats* find_stat(const std::string& name) const noexcept;
  const Hist* find_histogram(const std::string& name) const noexcept;

  /// Folds `other` in. Deterministic: merging worker registries in any
  /// grouping yields bit-identical state.
  void merge(const Registry& other);

  bool empty() const noexcept;

  /// {"counters": {...}, "gauges": {...}, "stats": {...},
  ///  "histograms": {...}} with derived doubles (mean/stddev/percentiles)
  /// computed from the exact integer state.
  Json to_json() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, ExactStats> stats_;
  std::map<std::string, Hist> histograms_;
};

}  // namespace corelocate::obs
