#pragma once
// Static concurrency analysis (corelint v3; see docs/ANALYSIS.md).
//
// Builds a cross-TU lock graph from CheckedMutex<Rank> declarations and
// RAII acquisitions (std::lock_guard / std::unique_lock / std::scoped_lock
// / util::LockGuard), propagates may-acquire summaries over the shared
// (name, arity) call graph (symbols.hpp), and checks four rules:
//
//   conc-rank-inversion   a static path acquires a rank not strictly
//                         above every held rank (or re-acquires a held
//                         mutex) — the deadlock the runtime lockcheck
//                         would only catch on a schedule that runs it
//   conc-unguarded-access a field annotated CORELOCATE_GUARDED_BY(m) is
//                         touched on a path whose static lockset lacks m
//                         (CORELOCATE_REQUIRES(m) on the enclosing
//                         function counts as holding m)
//   conc-phase-escape     a CORELOCATE_SERIAL_PHASE function is
//                         reachable from a callable handed to
//                         ThreadPool::submit/submit_on
//   conc-ref-capture      a task submitted to the pool captures stack
//                         locals by reference and the submitting frame
//                         never joins (implicit [&] always fires),
//                         including lambdas that escape through helper
//                         functions into the pool

#include <string>
#include <vector>

#include "symbols.hpp"

namespace corelint {

/// One static lock-held region inside a function body: from the
/// acquisition token to the '}' closing its scope (RAII guards), to the
/// matching `x.unlock()` (manual locks), or the whole body
/// (CORELOCATE_REQUIRES entry locks). Shared with the hot-path pass
/// (perf-lock-in-hot-loop composes these regions with hot loops).
struct LockRegion {
  std::string mutex;      ///< base identifier of the locked expression
  int rank = -1;          ///< resolved CheckedMutex rank, -1 unknown
  std::size_t begin = 0;  ///< token index of the acquisition
  std::size_t end = 0;    ///< first token index past the region
  std::size_t line = 0;   ///< 0-based line of the acquisition
  bool entry = false;     ///< held on entry (REQUIRES), not acquired here
};

/// Static lock-held regions of one function body: RAII guards
/// (lock_guard/unique_lock/scoped_lock/LockGuard), manual lock()/unlock()
/// pairs and CORELOCATE_REQUIRES entry locks.
std::vector<LockRegion> find_lock_regions(const LockDecls& decls,
                                          const std::string& stem,
                                          const TranslationUnit& unit,
                                          const FunctionDef& fn);

/// Runs the concurrency passes over the whole corpus. Suppression
/// comments apply as for every other rule.
void run_conc(const Corpus& corpus, Reporter& report);

}  // namespace corelint
