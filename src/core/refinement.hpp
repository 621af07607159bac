#pragma once
// Negative-information refinement — an extension beyond the paper.
//
// The paper's formulation (Sec. II-C) uses only *positive* observations:
// which counters fired. On sparse dies (many fused-off tiles, e.g. Ice
// Lake) that leaves the map underdetermined and the tightest packing
// compresses it — the failure mode the paper acknowledges in Sec. II-D.
//
// The unused signal is *negative*: a live CHA whose counters stayed quiet
// during a probe was NOT on that probe's route. A candidate map that
// places a quiet CHA on a route is refutable. This module repairs such
// maps iteratively:
//
//   solve -> re-route every probe on the candidate map -> find a quiet
//   CHA the map puts on a route -> the exclusion is a disjunction (the
//   CHA lies above/below the vertical leg, or left/right of it) -> try
//   each disjunct as a difference-constraint cut, keep the one whose
//   re-solve explains the observations best -> repeat.
//
// Each cut is one edge in the decomposed solver's native difference
// systems, and a trial costs that one edge, not a re-solve: the
// DecomposedSystem is built once per call, a row cut relaxes the
// committed row fixpoint from the new edge (the columns cannot move), a
// column cut re-runs only the direction search (the rows cannot move),
// and the trial's map is scored by counting violations, not listing
// them. Every trial equals a cold DecomposedSystem::solve with the cut
// among its extra edges.

#include "core/decomposed_map_solver.hpp"
#include "core/observation.hpp"

namespace corelocate::core {

struct RefinementOptions {
  int grid_rows = 5;
  int grid_cols = 6;
  /// Max refinement iterations (each resolves >= 1 violated probe).
  int max_iterations = 128;
};

struct RefinementResult {
  MapSolveResult solved;       ///< final (possibly partially refined) map
  int iterations = 0;          ///< refinement rounds performed
  int cuts_added = 0;          ///< committed exclusion constraints
  int trials = 0;              ///< candidate cuts tried (feasible or not)
  int initial_violations = 0;  ///< negative violations before refinement
  int final_violations = 0;    ///< negative violations after refinement
};

/// Refinement's violation scans over one observation set. A violation is
/// a quiet CHA a candidate map places on a probe's route: implied
/// ingress at a CHA other than the probe's endpoints that reported no
/// activation. Any activation at the CHA counts: a label mismatch is a
/// parity artifact of the candidate placement, not evidence the tile was
/// quiet. Which CHAs each observation excuses is tabulated once, at
/// construction. The observations must be valid and outlive the scan.
class ViolationScan {
 public:
  ViolationScan(const ObservationSet& observations, int cha_count,
                const RefinementOptions& options);

  /// The violations of `positions`, in implied-ingress walk order.
  std::vector<ImpliedIngress> list(const std::vector<mesh::Coord>& positions) const;

  /// list(positions).size(), without building the list: a trial needs
  /// only the count.
  std::size_t count(const std::vector<mesh::Coord>& positions) const;

 private:
  void excuse(std::size_t observation, int cha) {
    excused_[observation * cha_count_ + static_cast<std::size_t>(cha)] = 1;
  }
  bool excused(std::size_t observation, int cha) const {
    return excused_[observation * cha_count_ + static_cast<std::size_t>(cha)] != 0;
  }

  const ObservationSet& observations_;
  std::size_t cha_count_;
  int grid_rows_;
  int grid_cols_;
  std::vector<unsigned char> excused_;  ///< observations x CHAs
};

/// Solves with the decomposed engine, then applies negative-information
/// refinement until the map explains the observations exactly or options
/// are exhausted.
RefinementResult solve_with_refinement(const ObservationSet& observations,
                                       int cha_count,
                                       const RefinementOptions& options = {});

}  // namespace corelocate::core
