#pragma once
// Shared value types of the fleet engine: the unit of work handed to a
// worker and the per-instance outcome that flows into the aggregator and
// the checkpoint. Kept free of scheduler/pool dependencies.

#include <cstdint>
#include <map>
#include <string>

#include "core/pattern_stats.hpp"
#include "core/pipeline.hpp"
#include "sim/instance_factory.hpp"

namespace corelocate::fleet {

/// One unit of survey work. `seed` derives from the survey base seed and
/// `index` only — never from worker identity.
struct InstanceTask {
  int index = 0;
  std::uint64_t seed = 0;
  sim::XeonModel model{};
  const sim::InstanceFactory* factory = nullptr;
};

/// Ground truth plus pipeline output for one located instance.
struct LocatedInstance {
  sim::InstanceConfig config;
  core::LocateResult result;
};

/// Per-instance outcome: everything aggregation and the checkpoint need.
struct InstanceRecord {
  int index = -1;
  std::uint64_t seed = 0;
  bool success = false;
  bool from_checkpoint = false;  ///< loaded, not recomputed
  std::string message;           ///< failure reason when !success
  core::CoreMap map;             ///< valid when success
  // Measured stage durations. These are the only nondeterministic fields
  // of the record: they never enter a segment, a manifest or any
  // reproduced table, only throughput reporting. A resumed record has
  // none (all zero).
  double step1_seconds = 0.0;  // corelint: non-deterministic
  double step2_seconds = 0.0;  // corelint: non-deterministic
  double step3_seconds = 0.0;  // corelint: non-deterministic
  double wall_seconds = 0.0;   // corelint: non-deterministic
  /// Workload-specific counters (e.g. "exact" = map matched ground
  /// truth). Keys must be non-empty and free of ';' (the segment joins
  /// them with ';'; encode_survey_record throws on a bad key).
  std::map<std::string, double> metrics;
};

}  // namespace corelocate::fleet
