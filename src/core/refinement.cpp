#include "core/refinement.hpp"

#include <algorithm>
#include <limits>
#include <optional>

namespace corelocate::core {

namespace {

/// The quiet CHAs the candidate map places on a probe's route: implied
/// ingress at a CHA other than the probe's endpoints that reported no
/// activation. Any activation at the CHA counts: a label mismatch is a
/// parity artifact of the candidate placement, not evidence the tile was
/// quiet.
std::vector<ImpliedIngress> find_violations(const std::vector<mesh::Coord>& positions,
                                            const ObservationSet& observations,
                                            const RefinementOptions& options) {
  std::vector<ImpliedIngress> violations = implied_ingress(
      positions, observations, options.grid_rows, options.grid_cols);
  std::erase_if(violations, [&observations](const ImpliedIngress& implied) {
    const PathObservation& obs = observations[implied.observation];
    return implied.cha == obs.source_cha || implied.cha == obs.sink_cha ||
           std::any_of(obs.activations.begin(), obs.activations.end(),
                       [&implied](const ChannelActivation& act) {
                         return act.cha == implied.cha;
                       });
  });
  return violations;
}

/// The candidate cuts excluding `v.cha` from the offending leg. Each cut
/// is one difference edge in the row or column system.
struct Cut {
  bool row_system = false;
  ExtraEdge edge;
};

std::vector<Cut> cuts_for(const ImpliedIngress& v, const ObservationSet& observations,
                          const std::vector<mesh::Coord>& positions) {
  const PathObservation& obs = observations[v.observation];
  const int s = obs.source_cha;
  const int e = obs.sink_cha;
  const int k = v.cha;
  const mesh::Coord sp = positions[static_cast<std::size_t>(s)];
  const mesh::Coord ep = positions[static_cast<std::size_t>(e)];
  std::vector<Cut> cuts;
  if (mesh::is_vertical(v.label)) {
    const bool up = ep.row < sp.row;
    if (up) {
      // Leg rows are [R_e, R_s - 1] on the source column.
      cuts.push_back({true, {s, k, 0}});   // R_k >= R_s
      cuts.push_back({true, {k, e, 1}});   // R_k <= R_e - 1
    } else {
      // Down: leg rows are [R_s + 1, R_e].
      cuts.push_back({true, {k, s, 0}});   // R_k <= R_s
      cuts.push_back({true, {e, k, 1}});   // R_k >= R_e + 1
    }
    cuts.push_back({false, {s, k, 1}});    // C_k >= C_s + 1 (off the column)
    cuts.push_back({false, {k, s, 1}});    // C_k <= C_s - 1
  } else {
    const bool east = ep.col > sp.col;
    if (east) {
      // Leg columns are [C_s + 1, C_e] on the sink row.
      cuts.push_back({false, {k, s, 0}});  // C_k <= C_s
      cuts.push_back({false, {e, k, 1}});  // C_k >= C_e + 1
    } else {
      cuts.push_back({false, {s, k, 0}});  // C_k >= C_s
      cuts.push_back({false, {k, e, 1}});  // C_k <= C_e - 1
    }
    cuts.push_back({true, {e, k, 1}});     // R_k >= R_e + 1 (off the row)
    cuts.push_back({true, {k, e, 1}});     // R_k <= R_e - 1
  }
  return cuts;
}

}  // namespace

RefinementResult solve_with_refinement(const ObservationSet& observations,
                                       int cha_count,
                                       const RefinementOptions& options) {
  RefinementResult result;
  DecomposedSolverOptions solver_options;
  solver_options.grid_rows = options.grid_rows;
  solver_options.grid_cols = options.grid_cols;

  result.solved = DecomposedMapSolver(solver_options).solve(observations, cha_count);
  if (!result.solved.success) return result;
  std::vector<ImpliedIngress> violations =
      find_violations(result.solved.cha_position, observations, options);
  result.initial_violations = static_cast<int>(violations.size());
  result.final_violations = result.initial_violations;

  // How many of the current violations to consider per round. Each
  // committed cut permanently excludes its (path, CHA, leg) placement, so
  // the loop terminates by the iteration budget even when the global
  // violation count temporarily plateaus.
  constexpr std::size_t kScanWidth = 16;

  while (!violations.empty() && result.iterations < options.max_iterations) {
    ++result.iterations;
    std::optional<MapSolveResult> best_solved;
    std::size_t best_violation_count = std::numeric_limits<std::size_t>::max();
    Cut best_cut{};
    const std::size_t scan = std::min(kScanWidth, violations.size());
    for (std::size_t v = 0; v < scan; ++v) {
      for (const Cut& cut :
           cuts_for(violations[v], observations, result.solved.cha_position)) {
        DecomposedSolverOptions trial = solver_options;
        // The copy's vectors have no slack; size the one-edge append.
        trial.extra_row_edges.reserve(trial.extra_row_edges.size() + 1);
        trial.extra_col_edges.reserve(trial.extra_col_edges.size() + 1);
        if (cut.row_system) {
          trial.extra_row_edges.push_back(cut.edge);
        } else {
          trial.extra_col_edges.push_back(cut.edge);
        }
        const MapSolveResult solved =
            DecomposedMapSolver(trial).solve(observations, cha_count);
        if (!solved.success) continue;
        const std::size_t count =
            find_violations(solved.cha_position, observations, options).size();
        if (count < best_violation_count) {
          best_violation_count = count;
          best_solved = solved;
          best_cut = cut;
        }
      }
    }
    if (!best_solved.has_value()) break;  // every candidate cut infeasible
    if (best_violation_count >= violations.size() &&
        result.iterations > options.max_iterations / 2) {
      break;  // plateauing late: stop rather than churn the budget
    }
    if (best_cut.row_system) {
      solver_options.extra_row_edges.push_back(best_cut.edge);
    } else {
      solver_options.extra_col_edges.push_back(best_cut.edge);
    }
    ++result.cuts_added;
    result.solved = std::move(*best_solved);
    violations = find_violations(result.solved.cha_position, observations, options);
    result.final_violations = static_cast<int>(violations.size());
  }
  return result;
}

}  // namespace corelocate::core
