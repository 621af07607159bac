#pragma once
// End-to-end core locating pipeline (paper Sec. II):
//   1. OS core ID <-> CHA ID mapping        (ChaMapper)
//   2. inter-core traffic generation/probing (TrafficProber)
//   3. core-map reconstruction               (MapSolver: ILP, decomposed
//                                             or refined engine)
// plus the PPIN read that identifies the CPU instance.

#include "core/cha_mapper.hpp"
#include "core/core_map.hpp"
#include "core/map_solver.hpp"
#include "core/traffic_probe.hpp"

namespace corelocate::core {

struct LocateOptions {
  SolverEngine engine = SolverEngine::kDecomposed;
  /// Assumed tile-grid dimensions (T_h x T_w). The attacker knows the die
  /// family; generous defaults still work, they just loosen the bounds.
  int grid_rows = 8;
  int grid_cols = 8;
  ChaMapperOptions mapper;
  TrafficProbeOptions probe;
  /// Engine tuning handed to MapSolver, which overrides their grid
  /// dimensions with the ones above.
  IlpMapSolverOptions ilp;
  DecomposedSolverOptions decomposed;
  /// Optional cross-instance solution cache, consulted by every engine
  /// (MapSolver::solve). Not owned; not thread-safe.
  ilp::SolutionCache* solution_cache = nullptr;
};

/// Fills grid dimensions from a model spec (what a real attacker reads
/// off the CPU family datasheet).
LocateOptions options_for(const sim::ModelSpec& spec);

struct LocateResult {
  bool success = false;
  std::string message;
  CoreMap map;
  ChaMappingResult cha_mapping;
  ObservationSet observations;
  double step1_seconds = 0.0;
  double step2_seconds = 0.0;
  double step3_seconds = 0.0;
  /// Solver work counters (branch & bound nodes, simplex pivots across
  /// all LP solves, nodes pruned by constraint propagation, LP solves
  /// avoided). Deterministic, unlike the wall times above.
  std::int64_t solver_nodes = 0;
  std::int64_t solver_lp_iterations = 0;
  std::int64_t solver_nodes_pruned = 0;
  std::int64_t solver_lp_solves_avoided = 0;
  /// True when the map came out of the solution cache (observability
  /// only — never recorded into survey data).
  bool cache_hit = false;
};

/// Runs the full pipeline against a (virtual) machine.
LocateResult locate_cores(sim::VirtualXeon& cpu, util::Rng& rng,
                          const LocateOptions& options = {});

}  // namespace corelocate::core
