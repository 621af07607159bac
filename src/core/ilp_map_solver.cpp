#include "core/ilp_map_solver.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/trace.hpp"

namespace corelocate::core {

using ilp::LinExpr;
using ilp::Model;
using ilp::Sense;
using ilp::Variable;

IlpMapSolver::IlpMapSolver(IlpMapSolverOptions options) : options_(std::move(options)) {
  if (options_.grid_rows <= 0 || options_.grid_cols <= 0) {
    throw std::invalid_argument("IlpMapSolver: non-positive grid dimensions");
  }
}

// Observation selection: with a cap, greedily pick probes that spread
// coverage across CHAs (a plain prefix would constrain only the first
// couple of source cores).
std::vector<const PathObservation*> IlpMapSolver::select_observations(
    const ObservationSet& observations, int cha_count) const {
  std::vector<const PathObservation*> selected;
  selected.reserve(observations.size());
  if (options_.max_observations <= 0 ||
      static_cast<std::size_t>(options_.max_observations) >= observations.size()) {
    for (const PathObservation& obs : observations) selected.push_back(&obs);
  } else {
    std::vector<int> uses(static_cast<std::size_t>(cha_count), 0);
    std::vector<char> taken(observations.size(), 0);
    for (int pick = 0; pick < options_.max_observations; ++pick) {
      int best = -1;
      int best_score = 0;
      for (std::size_t p = 0; p < observations.size(); ++p) {
        if (taken[p]) continue;
        const int score = uses[static_cast<std::size_t>(observations[p].source_cha)] +
                          uses[static_cast<std::size_t>(observations[p].sink_cha)];
        if (best < 0 || score < best_score) {
          best = static_cast<int>(p);
          best_score = score;
        }
      }
      if (best < 0) break;
      taken[static_cast<std::size_t>(best)] = 1;
      selected.push_back(&observations[static_cast<std::size_t>(best)]);
      ++uses[static_cast<std::size_t>(observations[static_cast<std::size_t>(best)].source_cha)];
      ++uses[static_cast<std::size_t>(observations[static_cast<std::size_t>(best)].sink_cha)];
    }
  }
  return selected;
}

Model IlpMapSolver::build_model(const ObservationSet& observations, int cha_count) const {
  const int th = options_.grid_rows;
  const int tw = options_.grid_cols;
  const double big_m_cols = static_cast<double>(tw);

  Model model;
  std::vector<Variable> row_var;
  std::vector<Variable> col_var;
  row_var.reserve(static_cast<std::size_t>(cha_count));
  col_var.reserve(static_cast<std::size_t>(cha_count));
  for (int i = 0; i < cha_count; ++i) {
    Variable r = model.add_integer(0, th - 1, "R" + std::to_string(i));
    Variable c = model.add_integer(0, tw - 1, "C" + std::to_string(i));
    model.set_branch_priority(r, 50);
    model.set_branch_priority(c, 50);
    row_var.push_back(r);
    col_var.push_back(c);
  }

  const std::vector<const PathObservation*> selected =
      select_observations(observations, cha_count);

  for (std::size_t p = 0; p < selected.size(); ++p) {
    const PathObservation& obs = *selected[p];
    const Variable rs = row_var[static_cast<std::size_t>(obs.source_cha)];
    const Variable re = row_var[static_cast<std::size_t>(obs.sink_cha)];
    const Variable cs = col_var[static_cast<std::size_t>(obs.source_cha)];
    const Variable ce = col_var[static_cast<std::size_t>(obs.sink_cha)];
    const std::string tag = std::to_string(p);

    Variable ne{};
    Variable nw{};
    if (obs.has_horizontal()) {
      ne = model.add_binary("NE" + tag);
      nw = model.add_binary("NW" + tag);
      model.set_branch_priority(ne, 100);
      model.set_branch_priority(nw, 100);
      model.add_constraint(LinExpr(ne) + LinExpr(nw), Sense::kEqual, 1.0,
                           "dir" + tag);
      // The sink's own horizontal ingress proves C_s != C_e:
      //   eastbound: C_s <= C_e - 1 (void when NE=1)
      //   westbound: C_s >= C_e + 1 (void when NW=1)
      model.add_constraint(LinExpr(cs) - LinExpr(ce) - big_m_cols * LinExpr(ne),
                           Sense::kLessEq, -1.0, "endE" + tag);
      model.add_constraint(LinExpr(ce) - LinExpr(cs) - big_m_cols * LinExpr(nw),
                           Sense::kLessEq, -1.0, "endW" + tag);
    }

    for (const ChannelActivation& act : obs.activations) {
      const Variable rk = row_var[static_cast<std::size_t>(act.cha)];
      const Variable ck = col_var[static_cast<std::size_t>(act.cha)];
      switch (act.label) {
        case mesh::ChannelLabel::kUp:
          // Travelling upwards: R_s > R_k >= R_e, on the source column.
          model.add_constraint(LinExpr(ck) - LinExpr(cs), Sense::kEqual, 0.0);
          model.add_constraint(LinExpr(rs) - LinExpr(rk), Sense::kGreaterEq, 1.0);
          model.add_constraint(LinExpr(rk) - LinExpr(re), Sense::kGreaterEq, 0.0);
          break;
        case mesh::ChannelLabel::kDown:
          model.add_constraint(LinExpr(ck) - LinExpr(cs), Sense::kEqual, 0.0);
          model.add_constraint(LinExpr(rk) - LinExpr(rs), Sense::kGreaterEq, 1.0);
          model.add_constraint(LinExpr(re) - LinExpr(rk), Sense::kGreaterEq, 0.0);
          break;
        case mesh::ChannelLabel::kLeft:
        case mesh::ChannelLabel::kRight: {
          // Horizontal ingress: on the sink row; the label itself does not
          // reveal the direction (odd columns are flipped), hence the
          // NE/NW-gated bounding boxes (paper constraints (2)/(3)).
          if (act.cha == obs.sink_cha) break;  // covered by endpoint pair
          model.add_constraint(LinExpr(rk) - LinExpr(re), Sense::kEqual, 0.0);
          // Eastbound box: C_s <= C_k and C_k <= C_e - 1.
          model.add_constraint(LinExpr(cs) - LinExpr(ck) - big_m_cols * LinExpr(ne),
                               Sense::kLessEq, 0.0);
          model.add_constraint(LinExpr(ck) - LinExpr(ce) - big_m_cols * LinExpr(ne),
                               Sense::kLessEq, -1.0);
          // Westbound box: C_s >= C_k and C_k >= C_e + 1.
          model.add_constraint(LinExpr(ck) - LinExpr(cs) - big_m_cols * LinExpr(nw),
                               Sense::kLessEq, 0.0);
          model.add_constraint(LinExpr(ce) - LinExpr(ck) - big_m_cols * LinExpr(nw),
                               Sense::kLessEq, -1.0);
          break;
        }
      }
    }
  }

  if (options_.objective == IlpObjective::kCompactSum) {
    LinExpr objective;
    for (int i = 0; i < cha_count; ++i) {
      objective += LinExpr(row_var[static_cast<std::size_t>(i)]);
      objective += LinExpr(col_var[static_cast<std::size_t>(i)]);
    }
    model.minimize(objective);
    return model;
  }

  // Paper objective: one-hot encodings + occupancy indicators.
  std::vector<std::vector<Variable>> ohr(static_cast<std::size_t>(cha_count));
  std::vector<std::vector<Variable>> ohc(static_cast<std::size_t>(cha_count));
  for (int i = 0; i < cha_count; ++i) {
    LinExpr one_sum_r;
    LinExpr link_r;
    for (int r = 0; r < th; ++r) {
      Variable v = model.add_binary("OHR" + std::to_string(i) + "_" + std::to_string(r));
      ohr[static_cast<std::size_t>(i)].push_back(v);
      one_sum_r += LinExpr(v);
      link_r += static_cast<double>(r) * LinExpr(v);
    }
    model.add_constraint(one_sum_r, Sense::kEqual, 1.0);
    model.add_constraint(link_r - LinExpr(row_var[static_cast<std::size_t>(i)]),
                         Sense::kEqual, 0.0);
    LinExpr one_sum_c;
    LinExpr link_c;
    for (int c = 0; c < tw; ++c) {
      Variable v = model.add_binary("OHC" + std::to_string(i) + "_" + std::to_string(c));
      ohc[static_cast<std::size_t>(i)].push_back(v);
      one_sum_c += LinExpr(v);
      link_c += static_cast<double>(c) * LinExpr(v);
    }
    model.add_constraint(one_sum_c, Sense::kEqual, 1.0);
    model.add_constraint(link_c - LinExpr(col_var[static_cast<std::size_t>(i)]),
                         Sense::kEqual, 0.0);
  }

  LinExpr objective;
  const double big_m_count = static_cast<double>(cha_count);
  for (int r = 0; r < th; ++r) {
    Variable ri = model.add_binary("RI" + std::to_string(r));
    LinExpr occupancy;
    for (int i = 0; i < cha_count; ++i) {
      occupancy += LinExpr(ohr[static_cast<std::size_t>(i)][static_cast<std::size_t>(r)]);
      if (options_.disaggregated_indicators) {
        model.add_constraint(
            LinExpr(ohr[static_cast<std::size_t>(i)][static_cast<std::size_t>(r)]) -
                LinExpr(ri),
            Sense::kLessEq, 0.0);
      }
    }
    // RI_r <= sum OHR (cannot claim an empty row) ...
    model.add_constraint(LinExpr(ri) - occupancy, Sense::kLessEq, 0.0);
    if (!options_.disaggregated_indicators) {
      // ... and sum OHR <= b * RI_r (must claim an occupied row).
      model.add_constraint(occupancy - big_m_count * LinExpr(ri), Sense::kLessEq, 0.0);
    }
    objective += static_cast<double>(r + 1) * LinExpr(ri);
  }
  for (int c = 0; c < tw; ++c) {
    Variable ci = model.add_binary("CI" + std::to_string(c));
    LinExpr occupancy;
    for (int i = 0; i < cha_count; ++i) {
      occupancy += LinExpr(ohc[static_cast<std::size_t>(i)][static_cast<std::size_t>(c)]);
      if (options_.disaggregated_indicators) {
        model.add_constraint(
            LinExpr(ohc[static_cast<std::size_t>(i)][static_cast<std::size_t>(c)]) -
                LinExpr(ci),
            Sense::kLessEq, 0.0);
      }
    }
    model.add_constraint(LinExpr(ci) - occupancy, Sense::kLessEq, 0.0);
    if (!options_.disaggregated_indicators) {
      model.add_constraint(occupancy - big_m_count * LinExpr(ci), Sense::kLessEq, 0.0);
    }
    objective += static_cast<double>(c + 1) * LinExpr(ci);
  }
  model.minimize(objective);
  return model;
}

MapSolveResult IlpMapSolver::solve(const ObservationSet& observations,
                                   int cha_count) const {
  obs::Span span("ilp_map_solve", "core");
  MapSolveResult result;
  if (const std::string err = validate_observations(observations, cha_count);
      !err.empty()) {
    result.message = "invalid observations: " + err;
    return result;
  }

  obs::Span build_span("build_model", "core");
  const Model model = build_model(observations, cha_count);
  build_span.arg("variables", obs::Json(model.variable_count()));
  build_span.stop();
  if (options_.validate_model) {
    const ilp::ModelCheckReport report = ilp::check_model(model);
    if (report.structural()) {
      throw std::logic_error("IlpMapSolver: malformed model: " + report.summary());
    }
    if (report.infeasible()) {
      result.message = "model validation: " + report.summary();
      return result;
    }
  }

  const ilp::MilpSolution solution = ilp::solve_milp(model, options_.milp);
  result.nodes = solution.nodes_explored;
  result.lp_iterations = solution.lp_iterations;
  result.nodes_pruned = solution.nodes_pruned;
  result.lp_solves_avoided = solution.lp_solves_avoided;
  if (solution.status != ilp::MilpStatus::kOptimal &&
      solution.status != ilp::MilpStatus::kNodeLimit) {
    result.message = std::string("MILP ") + ilp::to_string(solution.status);
  } else if (solution.values.empty()) {
    result.message = "MILP returned no assignment";
  } else {
    result.success = true;
    result.message = ilp::to_string(solution.status);
    result.cha_position.resize(static_cast<std::size_t>(cha_count));
    for (int i = 0; i < cha_count; ++i) {
      // R_i and C_i are the first two variables per CHA, in order.
      const double r = solution.values[static_cast<std::size_t>(2 * i)];
      const double c = solution.values[static_cast<std::size_t>(2 * i + 1)];
      result.cha_position[static_cast<std::size_t>(i)] =
          mesh::Coord{static_cast<int>(std::lround(r)), static_cast<int>(std::lround(c))};
    }
  }
  return result;
}

}  // namespace corelocate::core
