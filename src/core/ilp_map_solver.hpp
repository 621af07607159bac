#pragma once
// Step 3, faithful formulation: reconstruct the core map with the ILP of
// paper Sec. II-C, solved by our own branch & bound (src/ilp).
//
// Variables
//   R_i, C_i            integer tile indices per CHA
//   NE_p, NW_p          per horizontal path: direction-selector binaries
//                       (big-M nullification, NE_p + NW_p = 1)
//   OHR_{i,r}, OHC_{i,c} one-hot row/column encodings        (paper obj.)
//   RI_r, CI_c          row/column occupancy indicators       (paper obj.)
// Constraints
//   vertical ingress at k:  C_k = C_s and R_s > R_k >= R_e (up; mirrored
//                           for down)
//   horizontal ingress at k: R_k = R_e and the eastbound/westbound
//                           bounding boxes (2)/(3) gated by NE_p/NW_p
//   endpoints of a horizontal path: C_s != C_e via the same gating (the
//                           sink's own ingress proves a horizontal hop)
// Objective
//   minimize sum_r (r+1)*RI_r + sum_c (c+1)*CI_c — the tightest packing —
//   or, as an ablation, the compact sum(R_i + C_i) without indicators.

#include <string>

#include "core/observation.hpp"
#include "ilp/branch_and_bound.hpp"
#include "ilp/model_check.hpp"
#include "mesh/grid.hpp"

namespace corelocate::core {

enum class IlpObjective {
  kPaperIndicators,  ///< the paper's weighted occupancy indicators
  kCompactSum,       ///< ablation: minimize sum(R_i + C_i), no indicators
};

struct MapSolveResult {
  bool success = false;
  std::string message;
  std::vector<mesh::Coord> cha_position;  ///< by CHA id, when success
  std::int64_t nodes = 0;
  std::int64_t lp_iterations = 0;
  /// Search-size diagnostics from branch & bound (zero for engines that
  /// never enter it). A solution-cache hit replays the cold solve's
  /// values, so the struct is byte-identical either way but for the two
  /// observability fields below.
  std::int64_t nodes_pruned = 0;
  std::int64_t lp_solves_avoided = 0;
  /// True when the result came out of the solution cache without a
  /// solve. Observability only — never recorded into survey data, where
  /// it would depend on work partitioning.
  bool cache_hit = false;
  /// Refinement trials this call ran: set by the refined engine, zero
  /// for the others and for a cache hit, which runs none. Observability
  /// only, like cache_hit, and never stored in the cache.
  std::int64_t refine_trials = 0;
};

struct IlpMapSolverOptions {
  int grid_rows = 5;  ///< T_h
  int grid_cols = 6;  ///< T_w
  IlpObjective objective = IlpObjective::kPaperIndicators;
  /// Replace the literal big-M indicator link (sum OHR <= b*RI) with the
  /// per-variable form (OHR_{i,r} <= RI_r): same integral solutions,
  /// a far tighter LP relaxation.
  bool disaggregated_indicators = true;
  /// Cap on observations fed to the ILP (0 = all). Smaller keeps the
  /// tableau tractable on full-size instances.
  int max_observations = 0;
  /// Run the static model validator (ilp/model_check.hpp) before the
  /// solve: structural defects throw std::logic_error, proven
  /// infeasibility returns failure without entering branch & bound.
  /// Defaults on in debug builds, off under NDEBUG.
  bool validate_model = ilp::kValidateModelsByDefault;
  ilp::MilpOptions milp;
};

class IlpMapSolver {
 public:
  explicit IlpMapSolver(IlpMapSolverOptions options = {});

  MapSolveResult solve(const ObservationSet& observations, int cha_count) const;

  /// Builds the MILP without solving (exposed for tests / size reporting).
  ilp::Model build_model(const ObservationSet& observations, int cha_count) const;

 private:
  /// Observation subset the model is built from (max_observations cap).
  std::vector<const PathObservation*> select_observations(
      const ObservationSet& observations, int cha_count) const;
  IlpMapSolverOptions options_;
};

}  // namespace corelocate::core
