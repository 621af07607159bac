#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace corelocate::util {

double mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double variance(std::span<const double> values) {
  if (values.size() < 2) return 0.0;
  const double m = mean(values);
  double acc = 0.0;
  for (double v : values) acc += (v - m) * (v - m);
  return acc / static_cast<double>(values.size());
}

double stddev(std::span<const double> values) { return std::sqrt(variance(values)); }

double median(std::span<const double> values) { return percentile(values, 50.0); }

double percentile(std::span<const double> values, double q) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::clamp(q, 0.0, 100.0);
  const double pos = clamped / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lower = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lower);
  if (lower + 1 >= sorted.size()) return sorted.back();
  return sorted[lower] * (1.0 - frac) + sorted[lower + 1] * frac;
}

double min_of(std::span<const double> values) {
  if (values.empty()) return 0.0;
  return *std::min_element(values.begin(), values.end());
}

double max_of(std::span<const double> values) {
  if (values.empty()) return 0.0;
  return *std::max_element(values.begin(), values.end());
}

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo), hi_(hi) {
  if (!(hi > lo) || bins == 0) throw std::invalid_argument("Histogram: bad range/bins");
  counts_.assign(bins, 0);
}

void Histogram::add(double x) noexcept {
  if (std::isnan(x)) return;
  // A sample outside [lo, hi) counts in the edge bin on its side, so the
  // tail percentiles see the tail and total() sees every sample.
  std::size_t bin = 0;
  if (x >= hi_) {
    bin = counts_.size() - 1;
  } else if (x > lo_) {
    const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
    bin = std::min(static_cast<std::size_t>((x - lo_) / width), counts_.size() - 1);
  }
  ++counts_[bin];
  ++total_;
}

void Histogram::merge(const Histogram& other) {
  if (other.lo_ != lo_ || other.hi_ != hi_ || other.counts_.size() != counts_.size()) {
    throw std::invalid_argument("Histogram::merge: mismatched shape");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

double Histogram::percentile(double q) const noexcept {
  if (total_ == 0) return 0.0;
  const double clamped = std::clamp(q, 0.0, 100.0);
  const double target = clamped / 100.0 * static_cast<double>(total_);
  std::size_t seen = 0;
  for (std::size_t bin = 0; bin < counts_.size(); ++bin) {
    seen += counts_[bin];
    // The empty-bin check matters at q == 0 (target 0): p0 is the lowest
    // *populated* bin, not bin 0. For q > 0 the first crossing bin is
    // necessarily populated, so this changes nothing else.
    if (counts_[bin] != 0 && static_cast<double>(seen) >= target) {
      return (bin_low(bin) + bin_high(bin)) / 2.0;
    }
  }
  return bin_high(counts_.size() - 1);
}

double Histogram::bin_low(std::size_t bin) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(bin);
}

double Histogram::bin_high(std::size_t bin) const {
  return bin_low(bin + 1);
}

}  // namespace corelocate::util
