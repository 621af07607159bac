#include "core/refinement.hpp"

#include <algorithm>
#include <limits>

namespace corelocate::core {

namespace {

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

ViolationScan::ViolationScan(const ObservationSet& observations, int cha_count,
                             const RefinementOptions& options)
    : observations_(observations),
      cha_count_(static_cast<std::size_t>(cha_count)),
      grid_rows_(options.grid_rows),
      grid_cols_(options.grid_cols),
      excused_(observations.size() * cha_count_, 0) {
  for (std::size_t p = 0; p < observations.size(); ++p) {
    const PathObservation& obs = observations[p];
    excuse(p, obs.source_cha);
    excuse(p, obs.sink_cha);
    for (const ChannelActivation& act : obs.activations) excuse(p, act.cha);
  }
}

std::vector<ImpliedIngress> ViolationScan::list(
    const std::vector<mesh::Coord>& positions) const {
  std::vector<ImpliedIngress> violations;
  for_each_implied_ingress(positions, observations_, grid_rows_, grid_cols_,
                           [&](std::size_t p, int cha, mesh::ChannelLabel label) {
                             if (!excused(p, cha)) {
                               violations.push_back(ImpliedIngress{p, cha, label});
                             }
                           });
  return violations;
}

std::size_t ViolationScan::count(const std::vector<mesh::Coord>& positions) const {
  std::size_t violations = 0;
  for_each_implied_ingress(positions, observations_, grid_rows_, grid_cols_,
                           [&](std::size_t p, int cha, mesh::ChannelLabel) {
                             violations += !excused(p, cha);
                           });
  return violations;
}

RefinementResult solve_with_refinement(const ObservationSet& observations,
                                       int cha_count,
                                       const RefinementOptions& options) {
  RefinementResult result;
  DecomposedSolverOptions solver_options;
  solver_options.grid_rows = options.grid_rows;
  solver_options.grid_cols = options.grid_cols;
  const DecomposedSystem system(observations, cha_count, solver_options);
  // Committed cuts per system, plus room for the one a trial appends.
  std::vector<ExtraEdge> row_edges;
  std::vector<ExtraEdge> col_edges;
  const auto edge_room =
      static_cast<std::size_t>(std::max(options.max_iterations, 0)) + 1;
  row_edges.reserve(edge_room);
  col_edges.reserve(edge_room);

  result.solved = system.solve(row_edges, col_edges);
  if (!result.solved.success) return result;
  const ViolationScan scan(observations, cha_count, options);
  std::vector<ImpliedIngress> violations = scan.list(result.solved.cha_position);
  result.initial_violations = static_cast<int>(violations.size());
  result.final_violations = result.initial_violations;

  // How many of the current violations to consider per round. Each
  // committed cut permanently excludes its (path, CHA, leg) placement, so
  // the loop terminates by the iteration budget even when the global
  // violation count temporarily plateaus.
  constexpr std::size_t kScanWidth = 16;

  // A trial's map equals a full solve with the cut added: a row edge
  // cannot change the direction search (columns and nodes stay the
  // committed ones), and a column edge cannot change the row fixpoint.
  const auto n = static_cast<std::size_t>(cha_count);
  std::vector<int> rows(n);
  std::vector<mesh::Coord> trial(n);
  std::vector<mesh::Coord> best_positions(n);
  while (!violations.empty() && result.iterations < options.max_iterations) {
    ++result.iterations;
    const std::vector<mesh::Coord>& committed = result.solved.cha_position;
    bool found = false;
    std::size_t best_violation_count = std::numeric_limits<std::size_t>::max();
    std::int64_t best_nodes = 0;
    Cut best_cut{};
    const std::size_t scan_width = std::min(kScanWidth, violations.size());
    for (std::size_t v = 0; v < scan_width; ++v) {
      for (const Cut& cut : cuts_for(violations[v], observations, committed)) {
        ++result.trials;
        std::int64_t nodes = result.solved.nodes;
        if (cut.row_system) {
          for (std::size_t cha = 0; cha < n; ++cha) rows[cha] = committed[cha].row;
          row_edges.push_back(cut.edge);
          const bool feasible = system.settle_rows_after(row_edges, rows);
          row_edges.pop_back();
          if (!feasible) continue;
          for (std::size_t cha = 0; cha < n; ++cha) {
            trial[cha] = mesh::Coord{rows[cha], committed[cha].col};
          }
        } else {
          col_edges.push_back(cut.edge);
          const DecomposedSystem::ColumnSearch search = system.search_columns(col_edges);
          col_edges.pop_back();
          if (!search.columns.has_value()) continue;
          for (std::size_t cha = 0; cha < n; ++cha) {
            trial[cha] = mesh::Coord{committed[cha].row, (*search.columns)[cha]};
          }
          nodes = search.nodes;
        }
        const std::size_t count = scan.count(trial);
        if (count < best_violation_count) {
          best_violation_count = count;
          best_positions = trial;
          best_nodes = nodes;
          best_cut = cut;
          found = true;
        }
      }
    }
    if (!found) break;  // every candidate cut infeasible
    if (best_violation_count >= violations.size() &&
        result.iterations > options.max_iterations / 2) {
      break;  // plateauing late: stop rather than churn the budget
    }
    (best_cut.row_system ? row_edges : col_edges).push_back(best_cut.edge);
    ++result.cuts_added;
    result.solved.cha_position.swap(best_positions);
    result.solved.nodes = best_nodes;
    violations = scan.list(result.solved.cha_position);
    result.final_violations = static_cast<int>(violations.size());
  }
  return result;
}

}  // namespace corelocate::core
