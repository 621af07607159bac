#include "ilp/branch_and_bound.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "ilp/presolve.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/hotpath.hpp"

namespace corelocate::ilp {

const char* to_string(MilpStatus status) {
  switch (status) {
    case MilpStatus::kOptimal: return "optimal";
    case MilpStatus::kInfeasible: return "infeasible";
    case MilpStatus::kNodeLimit: return "node-limit";
    case MilpStatus::kNoSolution: return "no-solution";
  }
  return "?";
}

namespace {

struct Node {
  std::vector<double> lower;
  std::vector<double> upper;
};

/// Picks the branching variable: highest priority among fractional integer
/// variables, then most fractional. Returns -1 when all are integral.
int pick_branch_var(const Model& model, const std::vector<double>& values, double tol) {
  int best = -1;
  int best_priority = 0;
  double best_frac_score = -1.0;
  for (int j = 0; j < model.variable_count(); ++j) {
    const VarInfo& info = model.variable(j);
    if (info.type == VarType::kContinuous) continue;
    const double v = values[static_cast<std::size_t>(j)];
    const double frac = v - std::floor(v);
    const double dist = std::min(frac, 1.0 - frac);
    if (dist <= tol) continue;
    if (best < 0 || info.branch_priority > best_priority ||
        (info.branch_priority == best_priority && dist > best_frac_score)) {
      best = j;
      best_priority = info.branch_priority;
      best_frac_score = dist;
    }
  }
  return best;
}

// ------------------------------------------------ one-hot bitset system
//
// The map models spend most of their rows on one-hot blocks (OHR/OHC
// assignment bits per CHA). Branching a member to 1 logically zeroes its
// siblings and branching the second-to-last member to 0 forces the last
// one — facts the LP only rediscovers through simplex pivots. The
// blocks are compiled once per solve into bit masks over the member
// variables; each node then replays its bound decisions through the
// masks to a fixpoint, in a few words of popcount each.

struct OneHotSystem {
  int bit_count = 0;
  std::vector<int> var_of_bit;                     ///< bit -> model variable
  std::vector<std::vector<std::uint64_t>> masks;   ///< per block, over bit words
  std::size_t words = 0;

  bool empty() const noexcept { return masks.empty(); }
};

OneHotSystem build_one_hot_system(const Model& model, double tol) {
  OneHotSystem sys;
  std::vector<int> bit_of_var(static_cast<std::size_t>(model.variable_count()), -1);
  sys.var_of_bit.reserve(static_cast<std::size_t>(model.variable_count()));
  std::vector<std::vector<int>> blocks;
  blocks.reserve(model.constraints().size());
  for (const ConstraintInfo& row : model.constraints()) {
    if (row.sense != Sense::kEqual) continue;
    if (row.expr.terms().size() < 2) continue;
    if (std::abs(row.rhs - 1.0) > tol) continue;
    bool one_hot = true;
    for (const auto& [index, coefficient] : row.expr.terms()) {
      if (std::abs(coefficient - 1.0) > tol ||
          model.variable(index).type != VarType::kBinary) {
        one_hot = false;
        break;
      }
    }
    if (!one_hot) continue;
    std::vector<int> members;
    members.reserve(row.expr.terms().size());
    for (const auto& [index, coefficient] : row.expr.terms()) {
      (void)coefficient;
      int& bit = bit_of_var[static_cast<std::size_t>(index)];
      if (bit < 0) {
        bit = sys.bit_count++;
        sys.var_of_bit.push_back(index);
      }
      members.push_back(bit);
    }
    blocks.push_back(std::move(members));
  }
  sys.words = static_cast<std::size_t>(sys.bit_count + 63) / 64;
  sys.masks.reserve(blocks.size());
  for (const std::vector<int>& members : blocks) {
    std::vector<std::uint64_t> mask(sys.words, 0);
    for (const int bit : members) {
      mask[static_cast<std::size_t>(bit) >> 6] |=
          std::uint64_t{1} << (static_cast<std::size_t>(bit) & 63);
    }
    sys.masks.push_back(std::move(mask));
  }
  return sys;
}

int popcount_masked(const std::vector<std::uint64_t>& bits,
                    const std::vector<std::uint64_t>& mask) {
  int count = 0;
  for (std::size_t w = 0; w < mask.size(); ++w) {
    std::uint64_t word = bits[w] & mask[w];
    while (word != 0) {
      word &= word - 1;
      ++count;
    }
  }
  return count;
}

/// Propagates the node's binary decisions through the one-hot blocks to
/// a fixpoint, tightening `node` in place. Returns false when the node
/// is infeasible (two members at 1, or a block with no member left).
/// `fixed_one`/`available` are scratch, reused across nodes.
bool propagate_one_hot(const OneHotSystem& sys, Node& node,
                       std::vector<std::uint64_t>& fixed_one,
                       std::vector<std::uint64_t>& available) {
  fixed_one.assign(sys.words, 0);
  available.assign(sys.words, 0);
  for (int bit = 0; bit < sys.bit_count; ++bit) {
    const std::size_t var = static_cast<std::size_t>(sys.var_of_bit[static_cast<std::size_t>(bit)]);
    const bool at_one = node.lower[var] >= 0.5;
    const bool open = node.upper[var] >= 0.5;
    if (at_one && !open) return false;  // crossed bounds from branching
    const std::uint64_t word_bit = std::uint64_t{1} << (static_cast<std::size_t>(bit) & 63);
    if (at_one) fixed_one[static_cast<std::size_t>(bit) >> 6] |= word_bit;
    if (open) available[static_cast<std::size_t>(bit) >> 6] |= word_bit;
  }

  bool changed = true;
  // Runs once per B&B node: a span here would spend two clock reads on
  // the prune fast path this function exists to make cheap. The caller's
  // milp_solve span attributes the whole search, nodes included.
  // corelint: disable(perf-span-missing)
  CORELOCATE_HOT_LOOP;
  while (changed) {
    changed = false;
    for (const std::vector<std::uint64_t>& mask : sys.masks) {
      const int ones = popcount_masked(fixed_one, mask);
      if (ones > 1) return false;
      if (ones == 1) {
        // The winner is decided: every other open member drops to zero.
        for (std::size_t w = 0; w < sys.words; ++w) {
          std::uint64_t to_clear = available[w] & mask[w] & ~fixed_one[w];
          if (to_clear == 0) continue;
          available[w] &= ~to_clear;
          changed = true;
          while (to_clear != 0) {
            const int bit = static_cast<int>(w) * 64 +
                            static_cast<int>(__builtin_ctzll(to_clear));
            to_clear &= to_clear - 1;
            node.upper[static_cast<std::size_t>(
                sys.var_of_bit[static_cast<std::size_t>(bit)])] = 0.0;
          }
        }
        continue;
      }
      const int open = popcount_masked(available, mask);
      if (open == 0) return false;
      if (open == 1) {
        // Exactly one member left: it must take the 1.
        for (std::size_t w = 0; w < sys.words; ++w) {
          std::uint64_t last = available[w] & mask[w];
          if (last == 0) continue;
          const int bit = static_cast<int>(w) * 64 +
                          static_cast<int>(__builtin_ctzll(last));
          fixed_one[w] |= last;
          node.lower[static_cast<std::size_t>(
              sys.var_of_bit[static_cast<std::size_t>(bit)])] = 1.0;
          changed = true;
          break;
        }
      }
    }
  }
  return true;
}

/// True when every variable's node interval is a single point.
bool fully_fixed(const Node& node) {
  for (std::size_t j = 0; j < node.lower.size(); ++j) {
    if (node.lower[j] != node.upper[j]) return false;
  }
  return true;
}

/// Exact feasibility of a fully-fixed assignment against the rows (the
/// bounds hold by construction). Mirrors the LP's feasibility tolerance.
bool rows_feasible(const Model& model, const std::vector<double>& values,
                   double tol) {
  for (const ConstraintInfo& row : model.constraints()) {
    double lhs = 0.0;
    for (const auto& [index, coefficient] : row.expr.terms()) {
      lhs += coefficient * values[static_cast<std::size_t>(index)];
    }
    switch (row.sense) {
      case Sense::kLessEq:
        if (lhs > row.rhs + tol) return false;
        break;
      case Sense::kGreaterEq:
        if (lhs < row.rhs - tol) return false;
        break;
      case Sense::kEqual:
        if (std::abs(lhs - row.rhs) > tol) return false;
        break;
    }
  }
  return true;
}

/// The depth-first search itself, over whichever model survived
/// presolve. Kept free of presolve/span concerns so `solve` composes
/// the layers without nesting spans.
MilpSolution run_search(const Model& model, const MilpOptions& options) {
  MilpSolution result;
  const double sense_sign = model.is_minimization() ? 1.0 : -1.0;

  Node root;
  root.lower.resize(static_cast<std::size_t>(model.variable_count()));
  root.upper.resize(static_cast<std::size_t>(model.variable_count()));
  for (int j = 0; j < model.variable_count(); ++j) {
    const VarInfo& info = model.variable(j);
    // Integer bounds can be tightened to the integral hull immediately.
    if (info.type == VarType::kContinuous) {
      root.lower[static_cast<std::size_t>(j)] = info.lower;
      root.upper[static_cast<std::size_t>(j)] = info.upper;
    } else {
      root.lower[static_cast<std::size_t>(j)] = std::ceil(info.lower - options.int_tol);
      root.upper[static_cast<std::size_t>(j)] =
          info.upper >= kInfinity ? info.upper : std::floor(info.upper + options.int_tol);
    }
  }

  std::vector<Node> stack;
  // DFS holds at most one sibling per branching level; variable count
  // bounds the usual depth, and growing past the hint stays correct.
  stack.reserve(static_cast<std::size_t>(model.variable_count()) * 2 + 1);
  stack.push_back(std::move(root));

  bool have_incumbent = false;
  double incumbent_obj = 0.0;  // in minimization space
  std::vector<double> incumbent;
  bool truncated = false;

  // The objective and constraint rows do not depend on the node — only
  // the variable bounds do. Build the relaxation once and copy-assign
  // the bound vectors per node instead of re-copying every constraint
  // row on every node.
  LpProblem lp = relax(model, nullptr, nullptr);

  const OneHotSystem one_hot = build_one_hot_system(model, options.int_tol);
  std::vector<std::uint64_t> scratch_ones;
  std::vector<std::uint64_t> scratch_avail;

  // solve() wraps this function one-to-one in the milp_solve span; a
  // second span here would double-count the search in perf reports.
  // corelint: disable(perf-span-missing)
  CORELOCATE_HOT_LOOP;
  while (!stack.empty()) {
    if (result.nodes_explored >= options.max_nodes) {
      truncated = true;
      break;
    }
    Node node = std::move(stack.back());
    stack.pop_back();

    if (!one_hot.empty() &&
        !propagate_one_hot(one_hot, node, scratch_ones, scratch_avail)) {
      ++result.nodes_pruned;
      ++result.lp_solves_avoided;
      continue;
    }
    ++result.nodes_explored;

    double node_obj = 0.0;
    std::vector<double> node_values;
    if (fully_fixed(node)) {
      // Propagation pinned everything: the LP would only echo the point
      // back, so evaluate it directly.
      ++result.lp_solves_avoided;
      if (!rows_feasible(model, node.lower, options.lp.feas_tol)) continue;
      node_values = node.lower;
      for (int j = 0; j < model.variable_count(); ++j) {
        node_obj += lp.objective[static_cast<std::size_t>(j)] *
                    node_values[static_cast<std::size_t>(j)];
      }
    } else {
      lp.lower = node.lower;
      lp.upper = node.upper;
      const LpSolution rel = solve_lp(lp, options.lp);
      result.lp_iterations += rel.iterations;
      if (rel.status == LpStatus::kInfeasible) continue;
      if (rel.status == LpStatus::kIterLimit) {
        truncated = true;
        continue;
      }
      if (rel.status == LpStatus::kUnbounded) {
        // An unbounded relaxation of a bounded-variable MILP means the user
        // left a continuous direction open; surface it loudly.
        throw std::runtime_error("solve_milp: LP relaxation unbounded");
      }
      node_obj = rel.objective;
      node_values = rel.values;
    }

    if (have_incumbent && node_obj >= incumbent_obj - options.gap_tol) {
      continue;  // bound: cannot improve on the incumbent
    }

    const int branch_var = pick_branch_var(model, node_values, options.int_tol);
    if (branch_var < 0) {
      // Integral: new incumbent.
      if (!have_incumbent || node_obj < incumbent_obj) {
        have_incumbent = true;
        incumbent_obj = node_obj;
        incumbent = node_values;
        for (int j = 0; j < model.variable_count(); ++j) {
          if (model.variable(j).type != VarType::kContinuous) {
            incumbent[static_cast<std::size_t>(j)] =
                std::round(incumbent[static_cast<std::size_t>(j)]);
          }
        }
      }
      continue;
    }

    const double v = node_values[static_cast<std::size_t>(branch_var)];
    // Down branch (x <= floor(v)) and up branch (x >= ceil(v)); push the
    // branch whose bound is nearer the relaxation value last so DFS dives
    // into it first.
    Node down = node;
    down.upper[static_cast<std::size_t>(branch_var)] = std::floor(v);
    Node up = std::move(node);
    up.lower[static_cast<std::size_t>(branch_var)] = std::ceil(v);
    const bool prefer_down = (v - std::floor(v)) < 0.5;
    if (prefer_down) {
      stack.push_back(std::move(up));
      stack.push_back(std::move(down));
    } else {
      stack.push_back(std::move(down));
      stack.push_back(std::move(up));
    }
  }

  if (have_incumbent) {
    result.status = truncated ? MilpStatus::kNodeLimit : MilpStatus::kOptimal;
    result.values = std::move(incumbent);
    result.objective = sense_sign * incumbent_obj;
  } else {
    result.status = truncated ? MilpStatus::kNoSolution : MilpStatus::kInfeasible;
  }
  return result;
}

}  // namespace

MilpSolution BranchAndBoundSolver::solve(const Model& model) const {
  obs::Span span("milp_solve", "ilp");
  MilpSolution result;

  if (options_.presolve) {
    const Presolved pre = presolve(model);
    if (options_.registry != nullptr) {
      options_.registry->counter("ilp.presolve.fixed_vars")
          .add(static_cast<std::uint64_t>(pre.stats.fixed_variables));
      options_.registry->counter("ilp.presolve.dropped_rows")
          .add(static_cast<std::uint64_t>(pre.stats.dropped_rows));
    }
    if (pre.infeasible) {
      result.status = MilpStatus::kInfeasible;
    } else {
      MilpOptions reduced_options = options_;
      reduced_options.presolve = false;
      result = run_search(pre.reduced, reduced_options);
      if (!result.values.empty()) {
        result.values = pre.restore(result.values);
      }
      if (result.status == MilpStatus::kOptimal ||
          result.status == MilpStatus::kNodeLimit) {
        result.objective += pre.objective_offset;
      }
    }
  } else {
    result = run_search(model, options_);
  }

  if (options_.registry != nullptr) {
    options_.registry->counter("ilp.bnb.nodes_explored")
        .add(static_cast<std::uint64_t>(result.nodes_explored));
    options_.registry->counter("ilp.bnb.nodes_pruned")
        .add(static_cast<std::uint64_t>(result.nodes_pruned));
    options_.registry->counter("ilp.bnb.lp_solves_avoided")
        .add(static_cast<std::uint64_t>(result.lp_solves_avoided));
  }
  span.arg("variables", obs::Json(model.variable_count()));
  span.arg("nodes", obs::Json(result.nodes_explored));
  span.arg("lp_iterations", obs::Json(result.lp_iterations));
  span.arg("nodes_pruned", obs::Json(result.nodes_pruned));
  span.arg("lp_solves_avoided", obs::Json(result.lp_solves_avoided));
  span.arg("status", obs::Json(to_string(result.status)));
  return result;
}

MilpSolution solve_milp(const Model& model, MilpOptions options) {
  return BranchAndBoundSolver(std::move(options)).solve(model);
}

}  // namespace corelocate::ilp
