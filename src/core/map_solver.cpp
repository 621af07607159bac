#include "core/map_solver.hpp"

#include <stdexcept>
#include <string>

#include "core/refinement.hpp"
#include "ilp/signature.hpp"

namespace corelocate::core {

namespace {

/// Lifts a cached solve back into solver-result terms (`cache_hit` set):
/// the inverse of to_cached_solution, so a hit replays a cold solve byte
/// for byte.
MapSolveResult replay_cached_solution(const ilp::CachedSolution& hit) {
  MapSolveResult result;
  result.success = hit.success;
  result.message = hit.message;
  result.nodes = hit.nodes_explored;
  result.lp_iterations = hit.lp_iterations;
  result.nodes_pruned = hit.nodes_pruned;
  result.lp_solves_avoided = hit.lp_solves_avoided;
  result.cache_hit = true;
  result.cha_position.reserve(hit.positions.size());
  for (const auto& [row, col] : hit.positions) {
    result.cha_position.push_back(mesh::Coord{row, col});
  }
  return result;
}

/// Flattens a finished solve for storage (the `cache_hit` flag is not
/// stored — replays recreate it).
ilp::CachedSolution to_cached_solution(const MapSolveResult& result) {
  ilp::CachedSolution cached;
  cached.success = result.success;
  cached.message = result.message;
  cached.nodes_explored = result.nodes;
  cached.lp_iterations = result.lp_iterations;
  cached.nodes_pruned = result.nodes_pruned;
  cached.lp_solves_avoided = result.lp_solves_avoided;
  cached.positions.reserve(result.cha_position.size());
  for (const mesh::Coord& pos : result.cha_position) {
    cached.positions.emplace_back(pos.row, pos.col);
  }
  return cached;
}

}  // namespace

const char* engine_token(SolverEngine engine) {
  switch (engine) {
    case SolverEngine::kDecomposed: return "decomposed";
    case SolverEngine::kIlp: return "ilp";
    case SolverEngine::kRefined: return "refined";
  }
  return "?";
}

bool parse_engine_token(const std::string& token, SolverEngine& engine) {
  for (const SolverEngine candidate : kSolverEngines) {
    if (token == engine_token(candidate)) {
      engine = candidate;
      return true;
    }
  }
  return false;
}

std::string engine_tokens() {
  std::string tokens;
  for (const SolverEngine engine : kSolverEngines) {
    if (!tokens.empty()) tokens += '|';
    tokens += engine_token(engine);
  }
  return tokens;
}

MapSolver::MapSolver(SolverEngine engine, int grid_rows, int grid_cols,
                     IlpMapSolverOptions ilp, DecomposedSolverOptions decomposed)
    : engine_(engine), ilp_(std::move(ilp)), decomposed_(std::move(decomposed)) {
  ilp_.grid_rows = grid_rows;
  ilp_.grid_cols = grid_cols;
  decomposed_.grid_rows = grid_rows;
  decomposed_.grid_cols = grid_cols;
}

MapSolveResult MapSolver::solve(const ObservationSet& observations, int cha_count,
                                ilp::SolutionCache* cache) const {
  MapSolveResult result;
  if (cache != nullptr && probe_cache(observations, cha_count, *cache, result)) {
    return result;
  }
  if (engine_ == SolverEngine::kIlp) {
    result = IlpMapSolver(ilp_).solve(observations, cha_count);
  } else if (engine_ == SolverEngine::kDecomposed) {
    result = DecomposedMapSolver(decomposed_).solve(observations, cha_count);
  } else {
    RefinementOptions options;
    options.grid_rows = decomposed_.grid_rows;
    options.grid_cols = decomposed_.grid_cols;
    RefinementResult refined = solve_with_refinement(observations, cha_count, options);
    result = std::move(refined.solved);
    result.refine_trials = refined.trials;
    if (result.success) {
      result.message +=
          " (+" + std::to_string(refined.cuts_added) + " negative-information cuts)";
    }
  }
  if (cache != nullptr) store_cache(observations, cha_count, *cache, result);
  return result;
}

bool MapSolver::probe_cache(const ObservationSet& observations, int cha_count,
                            const ilp::SolutionCache& cache, MapSolveResult& out) const {
  const ilp::CachedSolution* hit = cache.find(cache_key(observations, cha_count));
  if (hit == nullptr) return false;
  // The key hashes cha_count and the grid, so only a crafted or foreign
  // cache file can hold a map that does not fit this request.
  if (hit->success) {
    bool fits = hit->positions.size() == static_cast<std::size_t>(cha_count);
    for (const auto& [row, col] : hit->positions) {
      fits = fits && row >= 0 && row < ilp_.grid_rows && col >= 0 && col < ilp_.grid_cols;
    }
    if (!fits) {
      throw std::runtime_error("MapSolver: a cached map does not fit " +
                               std::to_string(cha_count) + " CHAs on this grid");
    }
  }
  out = replay_cached_solution(*hit);
  return true;
}

void MapSolver::store_cache(const ObservationSet& observations, int cha_count,
                            ilp::SolutionCache& cache,
                            const MapSolveResult& result) const {
  cache.insert(cache_key(observations, cha_count), to_cached_solution(result));
}

std::uint64_t MapSolver::cache_key(const ObservationSet& observations,
                                   int cha_count) const {
  // Engine salt, observation signature, then every option that can change
  // the answer. Salts and field order are load-bearing: saved caches must
  // keep matching. presolve never changes an answer, so entries are
  // shared across presolve modes.
  const std::uint64_t signature = observation_signature(observations);
  if (engine_ == SolverEngine::kIlp) {
    ilp::SignatureBuilder builder(0x11F5A9C3D02B71E4ULL);
    builder.add(signature)
        .add_int(cha_count)
        .add_int(ilp_.grid_rows)
        .add_int(ilp_.grid_cols)
        .add_int(static_cast<int>(ilp_.objective))
        .add_int(ilp_.disaggregated_indicators ? 1 : 0)
        .add_int(ilp_.max_observations)
        .add_int(ilp_.validate_model ? 1 : 0)
        .add_int(ilp_.milp.max_nodes);
    return builder.digest();
  }
  if (engine_ == SolverEngine::kRefined) {
    // Trial solves are never cached, so no cut set enters the key.
    ilp::SignatureBuilder builder(0x4EF14ED5A17C0DE5ULL);
    builder.add(signature)
        .add_int(cha_count)
        .add_int(decomposed_.grid_rows)
        .add_int(decomposed_.grid_cols)
        .add_int(RefinementOptions{}.max_iterations)
        .add(static_cast<std::uint64_t>(DecomposedSolverOptions{}.max_nodes));
    return builder.digest();
  }
  ilp::SignatureBuilder builder(0xD3C0A11EB5F17A02ULL);
  builder.add(signature)
      .add_int(cha_count)
      .add_int(decomposed_.grid_rows)
      .add_int(decomposed_.grid_cols)
      .add(static_cast<std::uint64_t>(decomposed_.max_nodes))
      .add_int(decomposed_.validate_model ? 1 : 0);
  // Two zero lengths where the retired extra row and column edge lists
  // were hashed, so saved solution-cache files keep matching.
  builder.add(std::uint64_t{0}).add(std::uint64_t{0});
  return builder.digest();
}

}  // namespace corelocate::core
