#include "core/decomposed_map_solver.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <unordered_map>

#include "obs/trace.hpp"

namespace corelocate::core {

namespace {

/// Union-find over CHA ids for column classes.
class UnionFind {
 public:
  explicit UnionFind(int n) : parent_(static_cast<std::size_t>(n)) {
    for (int i = 0; i < n; ++i) parent_[static_cast<std::size_t>(i)] = i;
  }
  int find(int x) {
    while (parent_[static_cast<std::size_t>(x)] != x) {
      parent_[static_cast<std::size_t>(x)] =
          parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(x)])];
      x = parent_[static_cast<std::size_t>(x)];
    }
    return x;
  }
  void unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[static_cast<std::size_t>(std::max(a, b))] = std::min(a, b);
  }

 private:
  std::vector<int> parent_;
};

struct DirEdge {
  int from;
  int to;
  int weight;
  friend bool operator<(const DirEdge& a, const DirEdge& b) {
    return std::tie(a.from, a.to, a.weight) < std::tie(b.from, b.to, b.weight);
  }
  friend bool operator==(const DirEdge&, const DirEdge&) = default;
};

/// One horizontal path's direction choice: the east bundle and its
/// precomputed mirror (the DFS probes both at every node — recomputing
/// the mirror there used to allocate and sort per probe).
struct DirectionGroup {
  std::vector<DirEdge> east;
  std::vector<DirEdge> west;  // exact mirror of east (edges reversed)
};

std::vector<DirEdge> mirrored(const std::vector<DirEdge>& east) {
  std::vector<DirEdge> west;
  west.reserve(east.size());
  for (const DirEdge& e : east) west.push_back(DirEdge{e.to, e.from, e.weight});
  std::sort(west.begin(), west.end());
  return west;
}

/// Incremental longest-path state over committed edges. Values are
/// bounded by `max_value`, so each node can rise at most max_value times
/// in total — tests and commits are near-constant-time.
///
/// test() relaxes into a reusable scratch vector instead of returning a
/// fresh one, and walks the candidate edges in place (they arrive sorted
/// by `from`, so a node's extra out-edges are one lower_bound away) — the
/// steady-state probe allocates nothing. commit_scratch()/undo() give the
/// search an undo trail so backtracking no longer deep-copies the whole
/// adjacency structure per child.
class IncrementalDiff {
 public:
  IncrementalDiff(int variables, int max_value)
      : max_value_(max_value),
        adj_(static_cast<std::size_t>(variables)),
        dist_(static_cast<std::size_t>(variables), 0),
        scratch_(static_cast<std::size_t>(variables), 0) {}

  /// Tries `extra` (sorted by DirEdge order, hence by `from`) on top of
  /// the committed set. On success the relaxed distances are left in the
  /// scratch vector for an immediate commit_scratch(); committed state is
  /// never mutated. Each call overwrites the previous scratch.
  bool test(const std::vector<DirEdge>& extra) const {
    scratch_ = dist_;
    work_.clear();
    work_.reserve(scratch_.size() + extra.size());
    for (const DirEdge& e : extra) {
      if (relax(e)) {
        if (scratch_[static_cast<std::size_t>(e.to)] > max_value_) return false;
        work_.push_back(e.to);
      }
    }
    while (!work_.empty()) {
      const int node = work_.back();
      work_.pop_back();
      for (const DirEdge& e : adj_[static_cast<std::size_t>(node)]) {
        if (relax(e)) {
          if (scratch_[static_cast<std::size_t>(e.to)] > max_value_) return false;
          work_.push_back(e.to);
        }
      }
      auto it = std::lower_bound(
          extra.begin(), extra.end(), node,
          [](const DirEdge& e, int from) { return e.from < from; });
      for (; it != extra.end() && it->from == node; ++it) {
        if (relax(*it)) {
          if (scratch_[static_cast<std::size_t>(it->to)] > max_value_) return false;
          work_.push_back(it->to);
        }
      }
    }
    return true;
  }

  /// Commits the edges a successful test() just proved feasible (no other
  /// test may intervene — it would clobber the scratch distances).
  /// Returns the previous distance vector for undo().
  std::vector<int> commit_scratch(const std::vector<DirEdge>& edges) {
    for (const DirEdge& e : edges) adj_[static_cast<std::size_t>(e.from)].push_back(e);
    std::vector<int> prev(dist_);
    dist_.swap(scratch_);
    return prev;
  }

  /// Reverts one commit_scratch(): `edges` must be the exact vector that
  /// was committed (its edges are popped off the adjacency lists) and
  /// `prev_dist` the vector that commit returned.
  void undo(const std::vector<DirEdge>& edges, std::vector<int>&& prev_dist) {
    for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
      adj_[static_cast<std::size_t>(it->from)].pop_back();
    }
    dist_ = std::move(prev_dist);
  }

  const std::vector<int>& dist() const noexcept { return dist_; }

 private:
  bool relax(const DirEdge& e) const {
    const int candidate = scratch_[static_cast<std::size_t>(e.from)] + e.weight;
    if (candidate > scratch_[static_cast<std::size_t>(e.to)]) {
      scratch_[static_cast<std::size_t>(e.to)] = candidate;
      return true;
    }
    return false;
  }

  int max_value_;
  std::vector<std::vector<DirEdge>> adj_;
  std::vector<int> dist_;
  mutable std::vector<int> scratch_;  // test()'s relaxation target
  mutable std::vector<int> work_;     // test()'s worklist
};

/// DFS with unit propagation over per-group direction choices. One shared
/// IncrementalDiff, mutated along the current branch and unwound via an
/// undo trail on backtrack.
class DirectionSearch {
 public:
  DirectionSearch(const std::vector<DirectionGroup>& groups, int cha_count, int max_col,
                  std::int64_t max_nodes, std::vector<DirEdge> base_edges = {})
      : groups_(groups),
        cha_count_(cha_count),
        max_col_(max_col),
        max_nodes_(max_nodes),
        base_edges_(std::move(base_edges)) {
    // test() scans candidate edges by sorted `from`.
    std::sort(base_edges_.begin(), base_edges_.end());
  }

  /// Returns the final per-CHA-class column values, or nullopt.
  std::optional<std::vector<int>> run(std::int64_t& nodes_out) {
    nodes_ = 0;
    assignment_.assign(groups_.size(), 0);
    IncrementalDiff state(cha_count_, max_col_);
    if (!base_edges_.empty()) {
      if (!state.test(base_edges_)) {
        nodes_out = 0;
        return std::nullopt;  // the injected cuts alone are infeasible
      }
      state.commit_scratch(base_edges_);
    }
    std::optional<std::vector<int>> result;
    if (groups_.empty()) {
      result = state.dist();
    } else {
      // Break the global mirror symmetry: group 0 eastbound.
      if (state.test(groups_[0].east)) {
        std::vector<int> prev = state.commit_scratch(groups_[0].east);
        assignment_[0] = 1;
        result = dfs(state);
        assignment_[0] = 0;
        state.undo(groups_[0].east, std::move(prev));
      }
      if (!result.has_value() && nodes_ <= max_nodes_) {
        // Fallback (kept for robustness; mirror symmetry should make the
        // eastbound seeding sufficient).
        if (state.test(groups_[0].west)) {
          state.commit_scratch(groups_[0].west);
          assignment_[0] = 2;
          result = dfs(state);
        }
      }
    }
    nodes_out = nodes_;
    return result;
  }

  bool budget_exceeded() const noexcept { return nodes_ > max_nodes_; }

 private:
  /// One propagation/branch commit this DFS node must revert on exit.
  struct TrailEntry {
    std::size_t group;
    const std::vector<DirEdge>* edges;
    std::vector<int> prev_dist;
  };

  std::optional<std::vector<int>> dfs(IncrementalDiff& state) {
    if (++nodes_ > max_nodes_) return std::nullopt;
    std::vector<TrailEntry> trail;
    trail.reserve(groups_.size());
    const auto unwind = [&]() {
      for (auto it = trail.rbegin(); it != trail.rend(); ++it) {
        assignment_[it->group] = 0;
        state.undo(*it->edges, std::move(it->prev_dist));
      }
    };
    // Unit propagation to fixpoint: commit every forced group.
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t g = 0; g < groups_.size(); ++g) {
        if (assignment_[g] != 0) continue;
        if (!state.test(groups_[g].east)) {
          if (!state.test(groups_[g].west)) {
            unwind();
            return std::nullopt;
          }
          trail.push_back({g, &groups_[g].west, state.commit_scratch(groups_[g].west)});
          assignment_[g] = 2;
          changed = true;
        } else if (!state.test(groups_[g].west)) {
          // The west probe clobbered east's scratch distances; recompute.
          state.test(groups_[g].east);
          trail.push_back({g, &groups_[g].east, state.commit_scratch(groups_[g].east)});
          assignment_[g] = 1;
          changed = true;
        }
      }
    }
    std::size_t undecided = groups_.size();
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      if (assignment_[g] == 0) {
        undecided = g;
        break;
      }
    }
    if (undecided == groups_.size()) {
      std::optional<std::vector<int>> solved(state.dist());
      unwind();
      return solved;
    }
    for (int dir : {1, 2}) {
      const std::vector<DirEdge>& edges =
          (dir == 1) ? groups_[undecided].east : groups_[undecided].west;
      if (!state.test(edges)) continue;
      std::vector<int> prev = state.commit_scratch(edges);
      assignment_[undecided] = dir;
      std::optional<std::vector<int>> solved = dfs(state);
      assignment_[undecided] = 0;
      state.undo(edges, std::move(prev));
      if (solved.has_value() || nodes_ > max_nodes_) {
        unwind();
        return solved.has_value() ? solved : std::nullopt;
      }
    }
    unwind();
    return std::nullopt;
  }

  const std::vector<DirectionGroup>& groups_;
  int cha_count_;
  int max_col_;
  std::int64_t max_nodes_;
  std::vector<DirEdge> base_edges_;
  std::vector<int> assignment_;  // 0 undecided, 1 east, 2 west
  std::int64_t nodes_ = 0;
};

}  // namespace

struct DecomposedSystem::Impl {
  int cha_count = 0;
  int grid_rows = 0;
  int grid_cols = 0;
  std::int64_t max_nodes = 0;
  bool validate_model = false;
  std::string invalid_reason;

  // Rows: edges a->b with weight w encode R_b >= R_a + w. Paths sharing
  // activations emit the same edge many times over, and a (from, to)
  // pair is dominated by its largest weight, so only the maximal edge per
  // pair is kept — same unique least solution, a fraction of the
  // relaxation work. CSR by `from` (then `to`), so a node's out-edges
  // are one contiguous scan.
  std::vector<int> row_offsets;
  std::vector<ExtraEdge> row_edges;

  // Columns: each CHA's column class (vertical ingress pins it to the
  // source column), and one direction group per distinct horizontal
  // bundle, over class ids.
  std::vector<int> column_class;
  std::vector<DirectionGroup> groups;

  void build_rows(const ObservationSet& observations);
  void build_columns(const ObservationSet& observations);

  /// Worklist relaxation of `rows` over the row edges plus `extra`, from
  /// the nodes already on `work` (each flagged in `queued`). Values are
  /// integers that only rise and are capped at grid_rows - 1, so a node
  /// re-enters the list at most grid_rows times and a positive cycle
  /// necessarily winds some value past the cap. Starting from any
  /// assignment at or below the least fixpoint, it reaches exactly that
  /// fixpoint or reports (false) that none fits under the cap.
  bool relax_rows(std::vector<int>& rows, const std::vector<ExtraEdge>& extra,
                  std::vector<int>& work, std::vector<char>& queued) const;

  /// Least row fixpoint under `extra` from all-zero rows.
  bool settle_rows(const std::vector<ExtraEdge>& extra, std::vector<int>& rows) const;

  /// Debug cross-check (validate_model): mirror the row system as an
  /// ilp::Model and require the static validator and the fixpoint's
  /// verdict `rows_feasible` to agree.
  void cross_check_rows(const std::vector<ExtraEdge>& extra, bool rows_feasible) const;

  void check_extra_edges(const std::vector<ExtraEdge>& extra) const;
};

void DecomposedSystem::Impl::build_rows(const ObservationSet& observations) {
  constexpr int kNoEdge = std::numeric_limits<int>::min();
  const auto n = static_cast<std::size_t>(cha_count);
  std::vector<int> best_weight(n * n, kNoEdge);
  const auto add = [&](int from, int to, int weight) {
    int& cell =
        best_weight[static_cast<std::size_t>(from) * n + static_cast<std::size_t>(to)];
    if (weight > cell) cell = weight;
  };
  for (const PathObservation& obs : observations) {
    for (const ChannelActivation& act : obs.activations) {
      switch (act.label) {
        case mesh::ChannelLabel::kUp:
          add(act.cha, obs.source_cha, 1);  // R_s >= R_k + 1
          add(obs.sink_cha, act.cha, 0);    // R_k >= R_e
          break;
        case mesh::ChannelLabel::kDown:
          add(obs.source_cha, act.cha, 1);  // R_k >= R_s + 1
          add(act.cha, obs.sink_cha, 0);    // R_e >= R_k
          break;
        case mesh::ChannelLabel::kLeft:
        case mesh::ChannelLabel::kRight:
          add(act.cha, obs.sink_cha, 0);  // R_k = R_e
          add(obs.sink_cha, act.cha, 0);
          break;
      }
    }
  }
  row_offsets.assign(n + 1, 0);
  row_edges.reserve(static_cast<std::size_t>(
      std::count_if(best_weight.begin(), best_weight.end(),
                    [](int weight) { return weight != kNoEdge; })));
  for (int from = 0; from < cha_count; ++from) {
    for (int to = 0; to < cha_count; ++to) {
      const int weight =
          best_weight[static_cast<std::size_t>(from) * n + static_cast<std::size_t>(to)];
      if (weight != kNoEdge) row_edges.push_back(ExtraEdge{from, to, weight});
    }
    row_offsets[static_cast<std::size_t>(from) + 1] = static_cast<int>(row_edges.size());
  }
}

void DecomposedSystem::Impl::build_columns(const ObservationSet& observations) {
  UnionFind classes(cha_count);
  for (const PathObservation& obs : observations) {
    for (const ChannelActivation& act : obs.activations) {
      if (mesh::is_vertical(act.label)) classes.unite(act.cha, obs.source_cha);
    }
  }
  column_class.resize(static_cast<std::size_t>(cha_count));
  for (int cha = 0; cha < cha_count; ++cha) {
    column_class[static_cast<std::size_t>(cha)] = classes.find(cha);
  }
  const auto cls = [this](int cha) {
    return column_class[static_cast<std::size_t>(cha)];
  };

  // One direction group per distinct horizontal bundle (paths that induce
  // identical constraints share one decision). Hash-consed: buckets key
  // on a hash of the sorted bundle and hold indices into `groups`, so a
  // repeat bundle costs one hash plus one vector compare instead of the
  // lexicographic tree walk a map keyed on the vectors used to do.
  // Group order stays first-encounter, so results are unchanged.
  const auto hash_edges = [](const std::vector<DirEdge>& edges) {
    std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the fields
    for (const DirEdge& e : edges) {
      h = (h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.from))) *
          1099511628211ULL;
      h = (h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.to))) *
          1099511628211ULL;
      h = (h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.weight))) *
          1099511628211ULL;
    }
    return h;
  };
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> group_buckets;
  group_buckets.reserve(observations.size());
  groups.reserve(observations.size());
  std::vector<DirEdge> east;
  for (const PathObservation& obs : observations) {
    if (!obs.has_horizontal()) continue;
    east.clear();
    east.reserve(1 + 2 * obs.activations.size());
    // Endpoint: C_e >= C_s + 1 (eastbound).
    east.push_back(DirEdge{cls(obs.source_cha), cls(obs.sink_cha), 1});
    for (const ChannelActivation& act : obs.activations) {
      if (!mesh::is_horizontal(act.label) || act.cha == obs.sink_cha) continue;
      east.push_back(DirEdge{cls(obs.source_cha), cls(act.cha), 0});  // C_k >= C_s
      east.push_back(DirEdge{cls(act.cha), cls(obs.sink_cha), 1});    // C_e >= C_k+1
    }
    std::sort(east.begin(), east.end());
    east.erase(std::unique(east.begin(), east.end()), east.end());
    std::vector<std::size_t>& bucket = group_buckets[hash_edges(east)];
    const bool seen = std::any_of(bucket.begin(), bucket.end(), [&](std::size_t index) {
      return groups[index].east == east;
    });
    if (!seen) {
      // A bucket holds one index per distinct bundle sharing a hash —
      // almost always exactly one; pre-reserving every bucket would cost
      // more than the rare growth.
      // corelint: disable(perf-alloc-in-hot-loop)
      bucket.push_back(groups.size());
      DirectionGroup group;
      group.east = east;
      group.west = mirrored(east);
      groups.push_back(std::move(group));
    }
  }
}

bool DecomposedSystem::Impl::relax_rows(std::vector<int>& rows,
                                        const std::vector<ExtraEdge>& extra,
                                        std::vector<int>& work,
                                        std::vector<char>& queued) const {
  const int max_value = grid_rows - 1;
  const auto relax = [&](const ExtraEdge& e) {
    const int candidate = rows[static_cast<std::size_t>(e.from_cha)] + e.weight;
    if (candidate <= rows[static_cast<std::size_t>(e.to_cha)]) return true;
    if (candidate > max_value) return false;
    rows[static_cast<std::size_t>(e.to_cha)] = candidate;
    if (!queued[static_cast<std::size_t>(e.to_cha)]) {
      queued[static_cast<std::size_t>(e.to_cha)] = 1;
      work.push_back(e.to_cha);
    }
    return true;
  };
  while (!work.empty()) {
    const int node = work.back();
    work.pop_back();
    queued[static_cast<std::size_t>(node)] = 0;
    for (int k = row_offsets[static_cast<std::size_t>(node)];
         k < row_offsets[static_cast<std::size_t>(node) + 1]; ++k) {
      if (!relax(row_edges[static_cast<std::size_t>(k)])) return false;
    }
    for (const ExtraEdge& e : extra) {
      if (e.from_cha == node && !relax(e)) return false;
    }
  }
  return true;
}

bool DecomposedSystem::Impl::settle_rows(const std::vector<ExtraEdge>& extra,
                                         std::vector<int>& rows) const {
  const auto n = static_cast<std::size_t>(cha_count);
  rows.assign(n, 0);
  std::vector<char> queued(n, 1);
  std::vector<int> work;
  work.reserve(n * 2);
  for (int i = 0; i < cha_count; ++i) work.push_back(i);
  const bool feasible = relax_rows(rows, extra, work, queued);
  cross_check_rows(extra, feasible);
  return feasible;
}

void DecomposedSystem::Impl::cross_check_rows(const std::vector<ExtraEdge>& extra,
                                              bool rows_feasible) const {
  if (!validate_model) return;
  // The validator's infeasibility proofs must never contradict a
  // feasible fixpoint. Dropping dominated duplicate edges cannot change
  // feasibility, so the mirror takes the deduplicated table.
  ilp::Model mirror;
  std::vector<ilp::Variable> row_vars;
  row_vars.reserve(static_cast<std::size_t>(cha_count));
  for (int i = 0; i < cha_count; ++i) {
    row_vars.push_back(mirror.add_integer(0, grid_rows - 1, "R" + std::to_string(i)));
  }
  const auto add = [&](const ExtraEdge& edge) {
    mirror.add_constraint(
        ilp::LinExpr(row_vars[static_cast<std::size_t>(edge.to_cha)]) -
            ilp::LinExpr(row_vars[static_cast<std::size_t>(edge.from_cha)]),
        ilp::Sense::kGreaterEq, static_cast<double>(edge.weight));
  };
  for (const ExtraEdge& edge : row_edges) add(edge);
  for (const ExtraEdge& edge : extra) add(edge);
  ilp::ModelCheckOptions check_options;
  // Bound propagation needs enough sweeps to walk the longest chain /
  // wind a positive cycle past the grid bound.
  check_options.propagation_rounds = cha_count + grid_rows + 2;
  const ilp::ModelCheckReport report = ilp::check_model(mirror, check_options);
  if (report.structural()) {
    throw std::logic_error("DecomposedMapSolver: malformed row mirror model: " +
                           report.summary());
  }
  if (report.infeasible() && rows_feasible) {
    throw std::logic_error(
        "DecomposedMapSolver: model validator proves the row system "
        "infeasible but the longest-path fixpoint found a solution: " +
        report.summary());
  }
}

void DecomposedSystem::Impl::check_extra_edges(
    const std::vector<ExtraEdge>& extra) const {
  for (const ExtraEdge& edge : extra) {
    if (edge.from_cha < 0 || edge.from_cha >= cha_count || edge.to_cha < 0 ||
        edge.to_cha >= cha_count) {
      throw std::invalid_argument("DecomposedMapSolver: extra edge names an unknown CHA");
    }
  }
}

DecomposedSystem::DecomposedSystem(const ObservationSet& observations, int cha_count,
                                   const DecomposedSolverOptions& options) {
  auto impl = std::make_unique<Impl>();
  impl->cha_count = cha_count;
  impl->grid_rows = options.grid_rows;
  impl->grid_cols = options.grid_cols;
  impl->max_nodes = options.max_nodes;
  impl->validate_model = options.validate_model;
  impl->invalid_reason = validate_observations(observations, cha_count);
  if (impl->invalid_reason.empty()) {
    impl->build_rows(observations);
    impl->build_columns(observations);
  }
  impl_ = std::move(impl);
}

DecomposedSystem::~DecomposedSystem() = default;

std::size_t DecomposedSystem::direction_group_count() const noexcept {
  return impl_->groups.size();
}

bool DecomposedSystem::settle_rows_after(const std::vector<ExtraEdge>& extra_row_edges,
                                         std::vector<int>& rows) const {
  if (extra_row_edges.empty()) {
    throw std::invalid_argument("DecomposedSystem::settle_rows_after: no new edge");
  }
  impl_->check_extra_edges(extra_row_edges);
  // Every other edge is already satisfied, so only the new edge can move
  // a value: relax it, then whatever it raised.
  const auto n = static_cast<std::size_t>(impl_->cha_count);
  std::vector<char> queued(n, 0);
  std::vector<int> work;
  const ExtraEdge& added = extra_row_edges.back();
  const int candidate = rows[static_cast<std::size_t>(added.from_cha)] + added.weight;
  bool feasible = true;
  if (candidate > rows[static_cast<std::size_t>(added.to_cha)]) {
    if (candidate > impl_->grid_rows - 1) {
      feasible = false;
    } else {
      rows[static_cast<std::size_t>(added.to_cha)] = candidate;
      queued[static_cast<std::size_t>(added.to_cha)] = 1;
      work.push_back(added.to_cha);
      feasible = impl_->relax_rows(rows, extra_row_edges, work, queued);
    }
  }
  impl_->cross_check_rows(extra_row_edges, feasible);
  return feasible;
}

DecomposedSystem::ColumnSearch DecomposedSystem::search_columns(
    const std::vector<ExtraEdge>& extra_col_edges) const {
  impl_->check_extra_edges(extra_col_edges);
  const auto cls = [this](int cha) {
    return impl_->column_class[static_cast<std::size_t>(cha)];
  };
  std::vector<DirEdge> base_edges;
  base_edges.reserve(extra_col_edges.size());
  for (const ExtraEdge& edge : extra_col_edges) {
    base_edges.push_back(DirEdge{cls(edge.from_cha), cls(edge.to_cha), edge.weight});
  }
  DirectionSearch search(impl_->groups, impl_->cha_count, impl_->grid_cols - 1,
                         impl_->max_nodes, std::move(base_edges));
  ColumnSearch out;
  const std::optional<std::vector<int>> class_columns = search.run(out.nodes);
  out.budget_exceeded = search.budget_exceeded();
  if (class_columns.has_value()) {
    std::vector<int>& columns =
        out.columns.emplace(static_cast<std::size_t>(impl_->cha_count));
    for (int cha = 0; cha < impl_->cha_count; ++cha) {
      columns[static_cast<std::size_t>(cha)] =
          (*class_columns)[static_cast<std::size_t>(cls(cha))];
    }
  }
  return out;
}

MapSolveResult DecomposedSystem::solve(
    const std::vector<ExtraEdge>& extra_row_edges,
    const std::vector<ExtraEdge>& extra_col_edges) const {
  MapSolveResult result;
  if (!impl_->invalid_reason.empty()) {
    result.message = "invalid observations: " + impl_->invalid_reason;
    return result;
  }
  impl_->check_extra_edges(extra_row_edges);
  std::vector<int> rows;
  if (!impl_->settle_rows(extra_row_edges, rows)) {
    result.message = "row constraints inconsistent (positive cycle or overflow)";
    return result;
  }
  ColumnSearch columns = search_columns(extra_col_edges);
  result.nodes = columns.nodes;
  if (!columns.columns.has_value()) {
    result.message = columns.budget_exceeded ? "direction search node budget exceeded"
                                             : "column constraints inconsistent";
    return result;
  }
  result.success = true;
  result.message = "decomposed";
  result.cha_position.resize(static_cast<std::size_t>(impl_->cha_count));
  for (int cha = 0; cha < impl_->cha_count; ++cha) {
    result.cha_position[static_cast<std::size_t>(cha)] =
        mesh::Coord{rows[static_cast<std::size_t>(cha)],
                    (*columns.columns)[static_cast<std::size_t>(cha)]};
  }
  return result;
}

DecomposedMapSolver::DecomposedMapSolver(DecomposedSolverOptions options)
    : options_(options) {
  if (options_.grid_rows <= 0 || options_.grid_cols <= 0) {
    throw std::invalid_argument("DecomposedMapSolver: non-positive grid dimensions");
  }
}

MapSolveResult DecomposedMapSolver::solve(const ObservationSet& observations,
                                          int cha_count) const {
  obs::Span span("decomposed_solve", "core");
  const DecomposedSystem system(observations, cha_count, options_);
  MapSolveResult result = system.solve({}, {});
  span.arg("nodes", obs::Json(result.nodes));
  span.arg("direction_groups", obs::Json(system.direction_group_count()));
  return result;
}

}  // namespace corelocate::core
