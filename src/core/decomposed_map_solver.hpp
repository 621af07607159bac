#pragma once
// Step 3, scalable engine: the same mathematical program as the faithful
// ILP, decomposed along the structure dimension-order routing imposes.
//
//   Rows.   Vertical channel labels reveal the true direction, so every
//           vertical/horizontal observation reduces to a *difference
//           constraint* on row indices (R_a - R_b >= w, w in {0,1}, plus
//           equalities). The elementwise-minimal feasible assignment — the
//           tightest packing — is the longest-path fixpoint of the
//           constraint graph; a positive cycle means inconsistent input.
//
//   Columns. Vertical ingress pins intermediates to the source column
//           (union-find into column classes). Horizontal observations are
//           direction-ambiguous: each path contributes an eastbound OR a
//           westbound bundle of difference constraints between column
//           classes. A DPLL-style search assigns directions, with unit
//           propagation (a bundle whose opposite direction is infeasible
//           is forced) and structural dedup (paths with identical bundles
//           share one decision). The first bundle is fixed eastbound to
//           break the global mirror symmetry the observations cannot
//           resolve.
//
// Equivalent to the ILP on every instance (cross-checked in tests), but
// polynomial outside the direction search — fleet-scale fast.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/ilp_map_solver.hpp"
#include "core/observation.hpp"

namespace corelocate::core {

/// An additional difference constraint between two CHAs' row or column
/// indices: index(to) >= index(from) + weight. Used by the
/// negative-information refinement (core/refinement.hpp) to inject cuts.
struct ExtraEdge {
  int from_cha = -1;
  int to_cha = -1;
  int weight = 0;
};

struct DecomposedSolverOptions {
  int grid_rows = 5;   ///< T_h
  int grid_cols = 6;   ///< T_w
  std::int64_t max_nodes = 1000000;  ///< direction-search node budget
  /// Debug cross-check: mirror the row difference system as an
  /// ilp::Model, run the static validator (ilp/model_check.hpp) on it,
  /// and require the validator and the longest-path fixpoint to agree
  /// (a validator infeasibility proof with a feasible fixpoint — or a
  /// structural defect — is a generator bug and throws
  /// std::logic_error). Defaults on in debug builds, off under NDEBUG.
  bool validate_model = ilp::kValidateModelsByDefault;
};

/// The part of a decomposed solve that depends only on the observations,
/// the CHA count and the grid, built once: the validated observations,
/// the deduplicated row edge table, the column classes, and the direction
/// groups with their west mirrors. solve() runs it under extra row and
/// column edges; refinement trials call its two halves directly —
/// settle_rows_after() for one more row edge, search_columns() for a new
/// column edge set — and reuse the committed other half, which a row edge
/// or a column edge cannot change.
class DecomposedSystem {
 public:
  /// `options` supplies the grid, the node budget and validate_model.
  DecomposedSystem(const ObservationSet& observations, int cha_count,
                   const DecomposedSolverOptions& options);
  ~DecomposedSystem();

  std::size_t direction_group_count() const noexcept;

  /// The whole solve under `extra_row_edges` and `extra_col_edges`.
  /// Observations validate_observations refuses fail here, with its
  /// diagnostic; the two halves below require valid observations. An
  /// extra edge naming an unknown CHA throws std::invalid_argument.
  MapSolveResult solve(const std::vector<ExtraEdge>& extra_row_edges,
                       const std::vector<ExtraEdge>& extra_col_edges) const;

  /// Incremental rows: `rows` holds the least row fixpoint under every
  /// edge of `extra_row_edges` but its last. Raises it to the least
  /// fixpoint under all of them by relaxing from the last edge only;
  /// returns false (leaving `rows` unspecified) when that system is
  /// infeasible. Same answer and same `grid_rows - 1` cap as a cold
  /// settle, and the same validate_model cross-check.
  bool settle_rows_after(const std::vector<ExtraEdge>& extra_row_edges,
                         std::vector<int>& rows) const;

  /// The direction search under `extra_col_edges`: per-CHA columns, or
  /// none when the column system is infeasible or the node budget ran out.
  struct ColumnSearch {
    std::optional<std::vector<int>> columns;
    std::int64_t nodes = 0;
    bool budget_exceeded = false;
  };
  ColumnSearch search_columns(const std::vector<ExtraEdge>& extra_col_edges) const;

 private:
  struct Impl;
  std::unique_ptr<const Impl> impl_;
};

class DecomposedMapSolver {
 public:
  explicit DecomposedMapSolver(DecomposedSolverOptions options = {});

  /// Builds a DecomposedSystem and solves it with no extra edges.
  MapSolveResult solve(const ObservationSet& observations, int cha_count) const;

 private:
  DecomposedSolverOptions options_;
};

}  // namespace corelocate::core
