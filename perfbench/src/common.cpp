#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <ctime>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <stdexcept>

#include "util/stats.hpp"

namespace perfbench {

double percentile(std::vector<double> values, int permille) {
  if (values.empty()) throw std::invalid_argument("percentile of no values");
  if (permille < 1 || permille > 1000) throw std::invalid_argument("bad permille");
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least permille/1000 of the
  // samples at or below it.
  const std::uint64_t n = values.size();
  const std::uint64_t rank = (n * static_cast<std::uint64_t>(permille) + 999) / 1000;
  return values[static_cast<std::size_t>(std::max<std::uint64_t>(rank, 1) - 1)];
}

int tail_permille(std::uint64_t independent_samples) {
  for (const int permille : {999, 990, 950, 900, 750}) {
    // Samples beyond the percentile: n * (1000 - permille) / 1000 >= 10.
    if (independent_samples * static_cast<std::uint64_t>(1000 - permille) >= 10000) {
      return permille;
    }
  }
  return 500;
}

std::string percentile_label(int permille) {
  char label[16];
  if (permille % 10) {
    std::snprintf(label, sizeof label, "p%d.%d", permille / 10, permille % 10);
  } else {
    std::snprintf(label, sizeof label, "p%d", permille / 10);
  }
  return label;
}

Tail tail_of(const std::vector<double>& samples, std::uint64_t independent,
             const std::string& unit_of_independence) {
  Tail tail;
  tail.permille = tail_permille(independent);
  tail.value = percentile(samples, tail.permille);
  tail.label = percentile_label(tail.permille) + " of " + std::to_string(samples.size()) +
               " samples, chosen from " + std::to_string(independent) + " " +
               unit_of_independence;
  return tail;
}

std::string rates_note(const std::vector<double>& rates) {
  char text[160];
  std::snprintf(text, sizeof text,
                "round rates 1/s: min %.6g, median %.6g, max %.6g (%zu rounds)",
                *std::min_element(rates.begin(), rates.end()),
                corelocate::util::median(rates),
                *std::max_element(rates.begin(), rates.end()), rates.size());
  return text;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

Fnv64& Fnv64::add(std::string_view bytes) noexcept {
  for (const char c : bytes) {
    state_ ^= static_cast<unsigned char>(c);
    state_ *= 0x100000001B3ULL;
  }
  return *this;
}

std::uint64_t fnv_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  Fnv64 digest;
  char buffer[1 << 14];
  while (in.read(buffer, sizeof buffer) || in.gcount() > 0) {
    digest.add(std::string_view(buffer, static_cast<std::size_t>(in.gcount())));
  }
  return digest.value();
}

std::string hex64(std::uint64_t value) {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx", static_cast<unsigned long long>(value));
  return text;
}

CpuClock::time_point CpuClock::now() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return time_point(std::chrono::seconds(ts.tv_sec) +
                    std::chrono::nanoseconds(ts.tv_nsec));
}

void next_cpu() {
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) allowed.push_back(cpu);
      }
    }
    return allowed;
  }();
  static std::size_t turn = 0;
  if (cpus.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[turn++ % cpus.size()], &set);
  sched_setaffinity(0, sizeof set, &set);  // best effort: a refusal only skips a turn
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void RunResult::add(std::string name, double value, std::string unit) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

namespace {

std::string number(double value) {
  if (!std::isfinite(value)) throw std::invalid_argument("non-finite metric value");
  char text[64];
  const auto [end, ec] = std::to_chars(text, text + sizeof text, value);
  if (ec != std::errc()) throw std::invalid_argument("unprintable metric value");
  return std::string(text, end);
}

}  // namespace

std::string result_json(const RunResult& result) {
  std::set<std::string> seen;
  std::string metrics;
  for (const Metric& metric : result.metrics) {
    if (!valid_metric_name(metric.name)) {
      throw std::invalid_argument("bad metric name '" + metric.name + "'");
    }
    if (!seen.insert(metric.name).second) {
      throw std::invalid_argument("duplicate metric '" + metric.name + "'");
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + metric.name + "\": {\"value\": " + number(metric.value) +
               ", \"unit\": \"" + metric.unit + "\"}";
  }
  return std::string("{\"correct\": ") + (result.correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(result.attempted) +
         ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": {" + metrics +
         "}}";
}

Trace::Span::Span(Trace& trace, const char* name) : trace_(trace) {
  trace_.stack_.push_back(Open{name, Clock::now(), 0.0});
}

Trace::Span::~Span() {
  const Clock::time_point end = Clock::now();
  const Open open = trace_.stack_.back();
  trace_.stack_.pop_back();
  const double duration = seconds_between(open.start, end);
  Row& row = trace_.rows_[open.name];
  ++row.calls;
  row.total_s += duration;
  row.self_s += duration - open.child_s;
  if (!trace_.stack_.empty()) trace_.stack_.back().child_s += duration;
}

Trace::Row Trace::row(const std::string& name) const {
  const auto it = rows_.find(name);
  return it == rows_.end() ? Row{} : it->second;
}

double Trace::mean_s(const std::string& name) const {
  const Row found = row(name);
  return found.calls ? found.total_s / static_cast<double>(found.calls) : 0.0;
}

std::vector<std::string> Trace::table(const std::string& title) const {
  std::vector<std::pair<std::string, Row>> sorted(rows_.begin(), rows_.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_s > b.second.self_s;
  });
  double self_total = 0.0;
  for (const auto& entry : sorted) self_total += entry.second.self_s;
  std::vector<std::string> lines;
  char line[160];
  lines.push_back(title);
  std::snprintf(line, sizeof line, "  %-22s %10s %12s %12s %12s %7s", "span", "calls",
                "total_ms", "self_ms", "mean_us", "self%");
  lines.emplace_back(line);
  for (const auto& [name, row] : sorted) {
    std::snprintf(line, sizeof line, "  %-22s %10llu %12.3f %12.3f %12.3f %6.1f%%",
                  name.c_str(), static_cast<unsigned long long>(row.calls),
                  row.total_s * 1e3, row.self_s * 1e3,
                  row.calls ? row.total_s * 1e6 / static_cast<double>(row.calls) : 0.0,
                  self_total > 0 ? 100.0 * row.self_s / self_total : 0.0);
    lines.emplace_back(line);
  }
  return lines;
}

}  // namespace perfbench
