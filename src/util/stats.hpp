#pragma once
// Small statistics helpers used by the benchmark harnesses and tests.

#include <cstddef>
#include <span>
#include <vector>

namespace corelocate::util {

double mean(std::span<const double> values);
double variance(std::span<const double> values);   // population variance
double stddev(std::span<const double> values);
double median(std::span<const double> values);

/// Linear-interpolated percentile; q in [0, 100].
double percentile(std::span<const double> values, double q);

double min_of(std::span<const double> values);
double max_of(std::span<const double> values);

/// Simple fixed-width histogram over [lo, hi).
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);
  /// Counts `x` in its bin; below `lo` in the first bin, at or above `hi`
  /// in the last. A NaN is not a sample and is dropped.
  void add(double x) noexcept;

  /// Bin-wise sum. Both histograms must share [lo, hi) and bin count.
  void merge(const Histogram& other);

  /// Linear-interpolated percentile estimate from bin midpoints; q in
  /// [0, 100]. Returns 0 for an empty histogram.
  double percentile(double q) const noexcept;
  std::size_t bin_count() const noexcept { return counts_.size(); }
  std::size_t count_in(std::size_t bin) const { return counts_.at(bin); }
  std::size_t total() const noexcept { return total_; }
  double bin_low(std::size_t bin) const;
  double bin_high(std::size_t bin) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace corelocate::util
