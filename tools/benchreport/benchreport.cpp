// benchreport — CLI for the machine-readable bench reports.
//
//   benchreport validate <report.json>...
//       Parses each file and checks it against the corelocate
//       bench-report schema (obs::validate_report). Exit 1 on the first
//       invalid report.
//
//   benchreport compare <current.json> <baseline.json>
//                       [<current2.json> <baseline2.json> ...]
//                       [--max-regress F] [--metric NAME,NAME,...]
//       Validates every report, then fails (exit 1) if any current wall
//       time regressed by more than F (default 0.25 = +25%) over its
//       baseline. A pair whose current or baseline report is missing,
//       fails the schema, or carries a zero baseline wall time fails the
//       invocation outright — compare never reports "ok" on a gate it
//       could not evaluate. Multiple pairs print as one summary table,
//       so a CI job gates a whole bench suite in a single invocation.
//       Expected-vs-measured rows are printed for context but never
//       gate: result quality is the test suite's job.
//
//       --metric additionally gates the named registry counters (e.g.
//       B&B nodes explored, LP iterations) with the same budget:
//       current <= baseline * (1 + F). Every named counter must be
//       present in BOTH reports of EVERY pair — a missing counter fails
//       that pair loudly rather than skipping the gate, so a renamed or
//       dropped counter cannot silently disarm CI. Counter gates are
//       one-sided like the wall gate: shrinking is always fine.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/report.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace corelocate;

obs::Json load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("benchreport: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return obs::Json::parse(buffer.str());
}

/// Returns true when the report at `path` parses and passes the schema.
bool validate_file(const std::string& path) {
  obs::Json report;
  try {
    report = load(path);
  } catch (const std::exception& e) {
    std::cerr << path << ": " << e.what() << "\n";
    return false;
  }
  const std::vector<std::string> errors = obs::validate_report(report);
  if (!errors.empty()) {
    std::cerr << path << ": schema violations:\n";
    for (const std::string& error : errors) std::cerr << "  - " << error << "\n";
    return false;
  }
  std::cout << path << ": valid (bench '" << report.at("bench").as_string()
            << "', schema v" << report.at("schema_version").as_int() << ")\n";
  return true;
}

int run_validate(const std::vector<std::string>& paths) {
  if (paths.empty()) {
    std::cerr << "benchreport validate: no report files given\n";
    return 2;
  }
  for (const std::string& path : paths) {
    if (!validate_file(path)) return 1;
  }
  return 0;
}

std::string fmt_seconds(double seconds) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds);
  return std::string(buf);
}

/// Splits a --metric value on commas, dropping empty segments (so a
/// trailing comma is not a silent empty metric name).
std::vector<std::string> split_metric_names(const std::string& value) {
  std::vector<std::string> names;
  std::string::size_type begin = 0;
  while (begin <= value.size()) {
    const std::string::size_type comma = value.find(',', begin);
    const std::string::size_type end = comma == std::string::npos ? value.size() : comma;
    if (end > begin) names.push_back(value.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return names;
}

/// Fetches `metrics.counters.<name>` from a report, or returns false.
bool lookup_counter(const obs::Json& report, const std::string& name, double* value) {
  if (!report.contains("metrics")) return false;
  const obs::Json& metrics = report.at("metrics");
  if (!metrics.contains("counters") || !metrics.at("counters").contains(name)) {
    return false;
  }
  *value = metrics.at("counters").at(name).as_number();
  return true;
}

std::string fmt_count(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.0f", value);
  return std::string(buf);
}

int run_compare(const std::vector<std::string>& paths, double max_regress,
                const std::vector<std::string>& metric_names) {
  if (paths.size() < 2 || paths.size() % 2 != 0) {
    std::cerr << "benchreport compare: expected <current.json> <baseline.json>"
                 " pairs (got " << paths.size() << " paths)\n";
    return 2;
  }
  // Check every pair up front and name the broken ones: a missing or
  // schema-invalid report in ANY pair fails the invocation. Compare must
  // never print an "ok" verdict it could not actually establish.
  int unusable = 0;
  for (std::size_t pair = 0; pair < paths.size(); pair += 2) {
    const std::size_t n = pair / 2 + 1;
    if (!validate_file(paths[pair])) {
      std::cerr << "benchreport compare: pair " << n << ": current report '"
                << paths[pair] << "' is missing or fails the schema\n";
      ++unusable;
      continue;  // its baseline may be fine; the pair is dead either way
    }
    if (!validate_file(paths[pair + 1])) {
      std::cerr << "benchreport compare: pair " << n << ": baseline report '"
                << paths[pair + 1] << "' is missing or fails the schema\n";
      ++unusable;
    }
  }
  if (unusable > 0) {
    std::cerr << "benchreport compare: " << unusable
              << " pair(s) unusable — no wall-time verdict possible\n";
    return 1;
  }

  util::TablePrinter table({"bench", "current s", "baseline s", "budget s", "verdict"});
  util::TablePrinter metric_table(
      {"metric", "current", "baseline", "budget", "verdict"});
  int regressions = 0;
  int missing_metrics = 0;
  for (std::size_t pair = 0; pair < paths.size(); pair += 2) {
    const obs::Json current = load(paths[pair]);
    const obs::Json baseline = load(paths[pair + 1]);
    if (current.at("bench").as_string() != baseline.at("bench").as_string()) {
      std::cerr << "benchreport compare: reports are for different benches ('"
                << current.at("bench").as_string() << "' vs '"
                << baseline.at("bench").as_string() << "')\n";
      return 1;
    }

    const double current_wall = current.at("wall_seconds").as_number();
    const double baseline_wall = baseline.at("wall_seconds").as_number();
    if (!(baseline_wall > 0.0)) {
      // A zero baseline would make every budget zero-or-nothing; the old
      // behaviour of silently skipping the gate hid stale baselines.
      std::cerr << "benchreport compare: baseline '" << paths[pair + 1]
                << "' has wall_seconds " << baseline_wall
                << " — a zero baseline gates nothing; regenerate it\n";
      return 1;
    }
    const double budget = baseline_wall * (1.0 + max_regress);
    const bool regressed = current_wall > budget;
    regressions += regressed ? 1 : 0;
    table.add_row({current.at("bench").as_string(), fmt_seconds(current_wall),
                   fmt_seconds(baseline_wall), fmt_seconds(budget),
                   regressed ? "REGRESSED" : "ok"});

    for (const obs::Json& row : current.at("expected").as_array()) {
      std::cout << "  " << current.at("bench").as_string() << "/"
                << row.at("metric").as_string() << ": expected "
                << row.at("expected").as_number() << ", measured "
                << row.at("measured").as_number() << "\n";
    }

    // Counter gates: every requested metric must resolve in both reports
    // of this pair. A missing counter is a loud per-pair failure, never a
    // silently skipped gate.
    const std::size_t pair_number = pair / 2 + 1;
    for (const std::string& name : metric_names) {
      double current_value = 0.0;
      double baseline_value = 0.0;
      const bool in_current = lookup_counter(current, name, &current_value);
      const bool in_baseline = lookup_counter(baseline, name, &baseline_value);
      if (!in_current || !in_baseline) {
        std::cerr << "benchreport compare: pair " << pair_number << ": metric '"
                  << name << "' missing from "
                  << (!in_current ? paths[pair] : paths[pair + 1])
                  << " — cannot gate it; fix the counter name or refresh the "
                     "report\n";
        ++missing_metrics;
        continue;
      }
      const double metric_budget = baseline_value * (1.0 + max_regress);
      const bool metric_regressed = current_value > metric_budget;
      regressions += metric_regressed ? 1 : 0;
      metric_table.add_row({name, fmt_count(current_value),
                            fmt_count(baseline_value), fmt_count(metric_budget),
                            metric_regressed ? "REGRESSED" : "ok"});
    }
  }

  std::cout << "\nwall-time budget: +" << max_regress * 100.0 << "% over baseline\n";
  table.print(std::cout);
  if (!metric_names.empty() && missing_metrics == 0) metric_table.print(std::cout);
  if (missing_metrics > 0) {
    std::cerr << "benchreport compare: " << missing_metrics
              << " metric gate(s) could not be evaluated\n";
    return 1;
  }
  if (regressions > 0) {
    std::cerr << "benchreport compare: " << regressions
              << " gate(s) regressed (wall time or counters)\n";
    return 1;
  }
  std::cout << "compare: OK (" << paths.size() / 2 << " pair(s)";
  if (!metric_names.empty()) {
    std::cout << ", " << metric_names.size() << " counter metric(s) per pair";
  }
  std::cout << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::FlagSpec spec("benchreport validate|compare <report.json>...",
                        "Validate corelocate bench reports against the schema, or "
                        "compare current/baseline report pairs and gate on "
                        "wall-time regressions.");
    spec.add("max-regress", "F", "wall-time regression budget (default 0.25 = +25%)");
    spec.add("metric", "NAMES",
             "comma-separated registry counter names to gate with the same "
             "budget (compare only); each must exist in every compared report");
    const util::CliFlags flags(argc, argv);
    if (flags.handle_help(spec, std::cout)) return 0;
    const double max_regress = flags.get_double("max-regress", 0.25);
    const std::vector<std::string> metric_names =
        split_metric_names(flags.get("metric", ""));
    const std::vector<std::string>& args = flags.positional();
    if (args.empty()) {
      std::cerr << spec.usage();
      return 2;
    }
    const std::string& command = args.front();
    const std::vector<std::string> rest(args.begin() + 1, args.end());
    if (command == "validate") return run_validate(rest);
    if (command == "compare") return run_compare(rest, max_regress, metric_names);
    std::cerr << "benchreport: unknown command '" << command << "'\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "benchreport: " << e.what() << "\n";
    return 2;
  }
}
