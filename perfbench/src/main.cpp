// perfbench_workload --workload NAME --seed N --seconds S --trace 0|1
//                    --work-dir DIR
//
// Runs one benchmark workload and prints human-readable notes followed by
// one JSON line: {"correct", "attempted", "failed", "metrics"}. Exits 1
// when a check fails (digest mismatch, malformed map), 2 on bad usage or
// an internal error, in which case no JSON line is printed.

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "workloads.hpp"

namespace {

std::map<std::string, std::string> parse(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --flag value pairs, got '" + key + "'");
    }
    flags[key.substr(2)] = argv[i + 1];
  }
  for (const auto& [key, value] : flags) {
    if (key != "workload" && key != "seed" && key != "seconds" && key != "trace" &&
        key != "work-dir") {
      throw std::invalid_argument("unknown flag --" + key);
    }
  }
  return flags;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto flags = parse(argc, argv);
    const auto get = [&](const char* key, const char* fallback) {
      const auto it = flags.find(key);
      return it == flags.end() ? std::string(fallback) : it->second;
    };
    const std::string workload = get("workload", "");
    perfbench::RunContext context;
    context.seed = std::stoull(get("seed", "1"));
    context.trace = get("trace", "0") == "1";
    context.work_dir = get("work-dir", ".");
    const perfbench::Plan plan =
        perfbench::plan_for(workload, std::stoi(get("seconds", "25")), context.trace);

    // Benchmark times are process CPU time (common.hpp). The wall clock and
    // the voluntary context switches are printed beside them: a gap between
    // the two clocks is the host's (steal) or the program's own waiting.
    const auto wall_start = std::chrono::steady_clock::now();
    const perfbench::Clock::time_point cpu_start = perfbench::Clock::now();
    perfbench::RunResult result;
    if (workload == "fleet_survey") {
      result = perfbench::run_fleet_survey(context, plan);
    } else if (workload == "serve_hot") {
      result = perfbench::run_serve_hot(context, plan);
    } else {
      result = perfbench::run_serve_cold(context, plan);
    }
    std::cout << "workload " << workload << " seed " << context.seed << ": "
              << plan.rounds
              << (context.trace ? " untraced+traced round pairs" : " rounds") << " of "
              << plan.ops_per_round << " ops\n";
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall_start)
                              .count();
    const double cpu_s = perfbench::seconds_between(cpu_start, perfbench::Clock::now());
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    char clocks[200];
    std::snprintf(clocks, sizeof clocks,
                  "clocks: %.3f s CPU over %.3f s wall (not running %.1f%% of it), "
                  "%ld voluntary context switches",
                  cpu_s, wall_s, 100.0 * (1.0 - cpu_s / wall_s), usage.ru_nvcsw);
    result.notes.push_back(clocks);
    for (const std::string& note : result.notes) std::cout << note << "\n";
    for (const std::string& error : result.errors) {
      std::cout << "ERROR: " << error << "\n";
    }
    for (const perfbench::Metric& metric : result.metrics) {
      std::cout << "  " << metric.name << " = " << metric.value << " " << metric.unit
                << "\n";
    }
    std::cout << perfbench::result_json(result) << std::endl;
    return result.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_workload: " << e.what() << "\n";
    return 2;
  }
}
