#pragma once
// Branch & bound MILP solver over the simplex LP relaxation.
//
// Depth-first search with incumbent pruning. Branching picks the highest
// branch-priority integer variable with a fractional relaxation value
// (ties: most fractional), which lets the map solver steer the search
// toward the structural NE/NW direction binaries before the one-hot
// bookkeeping variables.
//
// Two speed layers sit on top of the plain search:
//
//   * presolve (MilpOptions::presolve): interval-propagation reductions
//     from ilp/presolve.hpp run first and the search works the reduced
//     model; solutions are mapped back through the invertible
//     Presolved mapping, so callers see original-model values.
//   * one-hot bitset propagation (always on): the one-hot rows of the
//     model become bitset blocks, and every popped node propagates its
//     branching decisions through them to a fixpoint — siblings of an
//     assigned binary drop to zero, last-available members snap to one,
//     and contradictions prune the node with no LP solve at all.

#include <cstdint>
#include <vector>

#include "ilp/model.hpp"
#include "ilp/simplex.hpp"

namespace corelocate::obs {
class Registry;
}  // namespace corelocate::obs

namespace corelocate::ilp {

enum class MilpStatus {
  kOptimal,
  kInfeasible,
  kNodeLimit,   ///< search truncated; `values` holds the incumbent if any
  kNoSolution,  ///< truncated with no incumbent found
};

const char* to_string(MilpStatus status);

struct MilpSolution {
  MilpStatus status = MilpStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> values;
  std::int64_t nodes_explored = 0;
  std::int64_t lp_iterations = 0;
  /// Nodes discarded by one-hot propagation before any LP solve.
  std::int64_t nodes_pruned = 0;
  /// LP solves skipped: propagation prunes plus fully-fixed nodes
  /// resolved by direct evaluation.
  std::int64_t lp_solves_avoided = 0;
};

struct MilpOptions {
  std::int64_t max_nodes = 200000;
  double int_tol = 1e-6;
  double gap_tol = 1e-9;  // prune nodes within this of the incumbent
  SimplexOptions lp;
  /// Run ilp::presolve reductions before the search.
  bool presolve = false;
  /// Optional metrics sink: ilp.bnb.* and ilp.presolve.* counters.
  obs::Registry* registry = nullptr;
};

class BranchAndBoundSolver {
 public:
  explicit BranchAndBoundSolver(MilpOptions options = {}) : options_(std::move(options)) {}

  MilpSolution solve(const Model& model) const;

 private:
  MilpOptions options_;
};

/// Convenience: solve `model` with default options.
MilpSolution solve_milp(const Model& model, MilpOptions options = {});

}  // namespace corelocate::ilp
