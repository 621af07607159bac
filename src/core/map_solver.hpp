#pragma once
// Step 3 behind one facade: the one place that knows how a map-solver
// engine is chosen, configured and cached.
//
//   Dispatch.  A SolverEngine value picks the decomposed solver, the
//              faithful ILP or decomposed + negative-information
//              refinement.
//   Grid.      The facade's grid dimensions override the engine options'.
//   Message.   A refined success reports its committed cuts:
//              "... (+N negative-information cuts)".
//   Cache.     One rule for every engine: probe the solution cache on
//              entry, store the outcome on exit, under an engine-salted
//              key of the observation signature plus every option that
//              can change the answer. The refined engine caches only its
//              final result, never its trial solves.

#include <array>
#include <string>

#include "core/decomposed_map_solver.hpp"
#include "core/ilp_map_solver.hpp"
#include "ilp/solution_cache.hpp"

namespace corelocate::core {

enum class SolverEngine {
  kDecomposed,  ///< the paper's method, decomposed (fleet-scale default)
  kIlp,         ///< the paper's method, faithful MILP
  kRefined,     ///< extension: decomposed + negative-information cuts
};

/// Every engine, in the order CLIs list them.
inline constexpr std::array<SolverEngine, 3> kSolverEngines = {
    SolverEngine::kDecomposed, SolverEngine::kIlp, SolverEngine::kRefined};

/// CLI token of an engine ("decomposed", "ilp", "refined").
const char* engine_token(SolverEngine engine);

/// Inverse of engine_token. Returns false on an unknown token.
bool parse_engine_token(const std::string& token, SolverEngine& engine);

/// Every engine token, '|'-separated, for help and error text.
std::string engine_tokens();

class MapSolver {
 public:
  /// `ilp` and `decomposed` tune their engine (the grid comes from here).
  /// The refined engine runs default decomposed solves.
  MapSolver(SolverEngine engine, int grid_rows, int grid_cols,
            IlpMapSolverOptions ilp = {}, DecomposedSolverOptions decomposed = {});

  /// Solves with the chosen engine. With a cache, an exact hit replays a
  /// cold solve byte for byte (`cache_hit` set) and a miss stores its
  /// outcome. The cache is not owned and not thread-safe.
  MapSolveResult solve(const ObservationSet& observations, int cha_count,
                       ilp::SolutionCache* cache = nullptr) const;

  /// The two halves of solve()'s cache rule, for callers whose parallel
  /// solves run cache-free and touch the cache only in serial phases
  /// (serve's batcher). A hit that claims success with a position count
  /// other than `cha_count`, or with a position off the grid, throws
  /// std::runtime_error (solve() too): only a crafted or foreign cache
  /// file can hold one.
  bool probe_cache(const ObservationSet& observations, int cha_count,
                   const ilp::SolutionCache& cache, MapSolveResult& out) const;
  void store_cache(const ObservationSet& observations, int cha_count,
                   ilp::SolutionCache& cache, const MapSolveResult& result) const;

 private:
  std::uint64_t cache_key(const ObservationSet& observations, int cha_count) const;

  SolverEngine engine_;
  IlpMapSolverOptions ilp_;
  DecomposedSolverOptions decomposed_;
};

}  // namespace corelocate::core
