#pragma once
// Cross-instance solution cache for the map solvers.
//
// The paper's fleet data is the motivation: 8124M/8175M present one
// identical OS<->CHA map across 100 instances and 8259CL only 7
// variants, so almost every fleet solve re-derives a known answer. The
// cache keys on the canonical observation signature (signature.hpp) and
// stores the *complete* solve outcome — positions, message, node and
// iteration counts — so a hit replays the cold solve byte for byte
// regardless of which worker or batch produced it. That exact replay is
// the whole mechanism: a miss solves cold, so the stored outcome of a
// key depends only on that key's input, never on what else is cached.
//
// Determinism contract: storage is an ordered map, `merge` is
// insert-if-absent in key order, and lookups never mutate. Merging
// per-worker caches at aggregation therefore yields the same cache for
// any worker count. The class is not thread-safe: use one instance per
// worker, or confine a shared instance to serial phases (serve's
// batcher does the latter).

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace corelocate::ilp {

/// A finished solve, in solver-agnostic terms: grid positions per CHA
/// plus the diagnostics a replay must reproduce exactly.
struct CachedSolution {
  bool success = true;
  std::vector<std::pair<int, int>> positions;  ///< CHA -> (row, column)
  std::string message;
  std::int64_t nodes_explored = 0;
  std::int64_t lp_iterations = 0;
  std::int64_t nodes_pruned = 0;
  std::int64_t lp_solves_avoided = 0;
};

class SolutionCache {
 public:
  /// `capacity` of 0 means unbounded. A full cache refuses further
  /// inserts instead of evicting: any deterministic eviction order would
  /// still make hit patterns depend on insertion history, and the fleet
  /// data says the working set is tiny anyway.
  explicit SolutionCache(std::size_t capacity = 0) : capacity_(capacity) {}

  /// Exact-signature lookup; nullptr on miss. Never mutates.
  const CachedSolution* find(std::uint64_t signature) const;

  /// Stores a solve under its signature. First write wins: an existing
  /// entry is never replaced (the same signature always describes the
  /// same input, so replays must not depend on arrival order).
  void insert(std::uint64_t signature, CachedSolution solution);

  /// Insert-if-absent union, in `other`'s key order. Deterministic: the
  /// merged contents do not depend on how work was partitioned.
  void merge(const SolutionCache& other);

  /// Writes every entry, in key order, to a recordio segment at `path`.
  /// Because storage is an ordered map and merge is order-independent,
  /// the bytes are a pure function of the cache *contents* — two caches
  /// built from the same solves save identical files, whatever the
  /// worker count or insertion history. The segment is staged at
  /// `<path>.tmp` and renamed over `path`, so a failed save leaves the
  /// previous file as it was.
  void save(const std::string& path) const;

  /// Insert-if-absent load of a segment written by save(), under the
  /// same first-write-wins and capacity rules as insert(). Returns the
  /// number of entries inserted; 0 with no error when `path` does not
  /// exist (a cold cache file is not a failure). Damage is loud and
  /// throws std::runtime_error naming the file, leaving the cache
  /// unchanged: the recordio CRCs catch
  /// corruption, the schema check refuses other layouts (including the
  /// older one with a `sketch` column), and each row must hold a
  /// `success` of 0 or 1, coordinates in [0, INT_MAX] and counters no
  /// larger than INT64_MAX.
  std::size_t load(const std::string& path);

  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }

 private:
  std::size_t capacity_ = 0;
  std::map<std::uint64_t, CachedSolution> entries_;
};

}  // namespace corelocate::ilp
