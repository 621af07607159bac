#pragma once
// Shared helpers for the reproduction benches. Every bench binary prints
// the paper-expected numbers next to the measured ones so the comparison
// in EXPERIMENTS.md can be regenerated by just running the binary.

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "covert/multi.hpp"
#include "fleet/shard.hpp"
#include "fleet/survey.hpp"
#include "obs/obs.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace corelocate::bench {

/// Fleet seed used by every bench: fixes the simulated "cloud population".
constexpr std::uint64_t kFleetSeed = 0xC10DDA7EULL;

/// Cloud-like thermal environment used by the covert-channel benches
/// (co-tenant random-walk load on non-participating cores).
inline thermal::ThermalParams cloud_thermal_params() {
  thermal::ThermalParams params;
  params.tenant_walk_w = 2.2;
  return params;
}

/// Marks every live core tile of the machine that is not participating in
/// `specs` as co-tenant load. Uses the machine's *true* topology: the
/// tenant workloads run wherever the real cores are.
inline void mark_tenants(thermal::ThermalModel& model, const sim::InstanceConfig& machine,
                         const std::vector<covert::ChannelSpec>& specs) {
  for (int os = 0; os < machine.os_core_count(); ++os) {
    const mesh::Coord pos = machine.tile_of_os_core(os);
    bool participant = false;
    for (const covert::ChannelSpec& spec : specs) {
      participant = participant || pos == spec.receiver_tile;
      for (const mesh::Coord& tile : spec.sender_tiles) {
        participant = participant || pos == tile;
      }
    }
    if (!participant) model.set_tenant(pos, true);
  }
}

/// Runs the full locating pipeline on a fresh instance of `model`. The
/// seeding contract lives in the fleet engine now (fleet/survey.hpp);
/// this alias keeps the historical bench spelling working.
using LocatedInstance = fleet::LocatedInstance;

inline LocatedInstance locate_instance(sim::XeonModel model, std::uint64_t seed,
                                       const sim::InstanceFactory& factory) {
  return fleet::locate_instance(model, seed, factory);
}

/// Flags every fleet-scale bench accepts; splice into validate() lists.
inline std::vector<std::string> fleet_flag_names() {
  return {"jobs", "checkpoint", "resume", "progress"};
}

/// Registers the standard fleet flags on a FlagSpec (the declarative
/// sibling of fleet_flag_names(); binaries using handle_help() get the
/// allowlist and the --help rows from the same registration).
inline util::FlagSpec& add_fleet_flags(util::FlagSpec& spec) {
  return spec.add("jobs", "N", "worker threads (1 = serial reference)")
      .add("checkpoint", "DIR", "persist completed instances under DIR")
      .add("resume", "", "skip instances already in the checkpoint")
      .add("progress", "", "emit instances/sec + ETA lines on stderr");
}

/// Builds SurveyOptions from the standard fleet flags:
///   --jobs N        worker threads (1 = serial reference)
///   --checkpoint D  persist completed instances as the segment
///                   D[/subdir]/shard-0-of-1 (a bench surveying several
///                   models passes the model name as `subdir`)
///   --resume        skip instances already in the checkpoint
///   --progress      emit instances/sec + ETA lines on stderr
inline fleet::SurveyOptions survey_options_from_flags(const util::CliFlags& flags,
                                                      int instances,
                                                      std::uint64_t base_seed,
                                                      const std::string& subdir = "") {
  fleet::SurveyOptions options;
  options.instances = instances;
  options.jobs = static_cast<int>(flags.get_int("jobs", 1));
  options.base_seed = base_seed;
  const std::string checkpoint = flags.get("checkpoint", "");
  if (!checkpoint.empty()) {
    options.checkpoint_dir =
        fleet::shard_stem(subdir.empty() ? checkpoint : checkpoint + "/" + subdir, 0, 1);
  }
  options.resume = flags.get_bool("resume");
  options.progress = flags.get_bool("progress");
  if (options.progress && util::log_level() > util::LogLevel::kInfo) {
    util::set_log_level(util::LogLevel::kInfo);
  }
  return options;
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::cout << "=============================================================\n"
            << title << "\n"
            << "(reproduces " << paper_ref << " of Cho, DATE 2022)\n"
            << "=============================================================\n";
}

/// Flags every bench accepts for machine-readable perf output; splice
/// into validate() lists next to fleet_flag_names():
///   --report=json       emit a schema-checked BENCH_<name>.json
///   --report-file=PATH  override the report output path
///   --trace=PATH        record spans, write a Chrome trace-event JSON
inline std::vector<std::string> report_flag_names() {
  return {"report", "report-file", "trace"};
}

/// Registers the standard report flags on a FlagSpec.
inline util::FlagSpec& add_report_flags(util::FlagSpec& spec) {
  return spec.add("report", "json", "emit a schema-checked BENCH_<name>.json")
      .add("report-file", "PATH", "override the report output path")
      .add("trace", "PATH", "record spans, write a Chrome trace-event JSON");
}

/// The paper-expected-vs-measured comparison every bench ends with, as
/// one helper: collects rows, prints them as a table, and feeds the JSON
/// perf report. Replaces the free-form "paper: ... / measured: ..." cout
/// lines that used to be copied across the bench binaries.
class ExpectedActual {
 public:
  ExpectedActual& add(const std::string& metric, double expected, double measured,
                      const std::string& unit = "") {
    rows_.push_back(Row{metric, expected, measured, unit});
    return *this;
  }

  bool empty() const noexcept { return rows_.empty(); }

  /// Prints the comparison table (paper value next to measured value).
  void print(std::ostream& out) const {
    if (rows_.empty()) return;
    util::TablePrinter table({"metric", "paper", "measured", "unit"});
    for (const Row& row : rows_) {
      table.add_row({row.metric, format_value(row.expected),
                     format_value(row.measured), row.unit});
    }
    out << "\npaper-expected vs measured:\n";
    table.print(out);
  }

  void feed(obs::PerfReport& report) const {
    for (const Row& row : rows_) {
      report.add_expected(row.metric, row.expected, row.measured, row.unit);
    }
  }

 private:
  struct Row {
    std::string metric;
    double expected = 0.0;
    double measured = 0.0;
    std::string unit;
  };

  static std::string format_value(double v) {
    // Integral values print bare; everything else keeps 4 significant
    // decimals, plenty for BER/throughput comparisons.
    if (v == static_cast<double>(static_cast<long long>(v))) {
      return std::to_string(static_cast<long long>(v));
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.4g", v);
    return std::string(buf);
  }

  std::vector<Row> rows_;
};

/// One per bench main(): owns the run's obs::PerfReport, turns the tracer
/// on when --trace is given, and writes the schema-validated report/trace
/// in finish(). Constructing it is cheap when neither flag is passed.
class BenchReporter {
 public:
  BenchReporter(std::string bench_name, const util::CliFlags& flags)
      : report_(std::move(bench_name)), start_(obs::Clock::now()) {
    const std::string mode = flags.get("report", "");
    if (mode == "json") {
      report_enabled_ = true;
    } else if (!mode.empty()) {
      throw std::invalid_argument("--report supports only 'json', got '" + mode + "'");
    }
    report_path_ = flags.get("report-file", "");
    trace_path_ = flags.get("trace", "");
    for (const auto& [name, value] : flags.flags()) report_.set_arg(name, value);
    if (!trace_path_.empty()) obs::Tracer::global().set_enabled(true);
  }

  bool enabled() const noexcept { return report_enabled_; }
  obs::PerfReport& report() noexcept { return report_; }

  void add_stage(const std::string& name, double seconds) {
    report_.add_stage(name, seconds);
  }

  /// Folds a survey's merged worker registries into the report.
  void merge_registry(const obs::Registry& registry) {
    report_.registry().merge(registry);
  }

  /// Prints the comparison table (always) and writes report/trace files
  /// (when requested). Call once at the end of main().
  void finish(const ExpectedActual& comparison) {
    comparison.print(std::cout);
    comparison.feed(report_);
    finish();
  }

  void finish() {
    if (finished_) return;
    finished_ = true;
    report_.set_wall_seconds(obs::Clock::seconds_since(start_));
    if (report_enabled_) {
      const std::string path =
          report_path_.empty() ? report_.default_path() : report_path_;
      report_.write_file(path);
      std::cerr << "report: wrote " << path << "\n";
    }
    if (!trace_path_.empty()) {
      obs::Tracer::global().write_chrome_trace(trace_path_);
      std::cerr << "trace: wrote " << trace_path_ << "\n";
    }
  }

 private:
  obs::PerfReport report_;
  obs::Clock::Time start_;
  bool report_enabled_ = false;
  bool finished_ = false;
  std::string report_path_;
  std::string trace_path_;
};

}  // namespace corelocate::bench
