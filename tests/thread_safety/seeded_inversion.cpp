// Deliberately broken TU: seeds one lock-rank inversion and one
// unguarded field write against the real util::CheckedMutex /
// annotation macros. It lives outside the linted tree (src/, bench/,
// examples/) and outside every build target; two checkers must both
// reject it:
//
//   * ctest `corelint_canaries` runs corelint over this directory
//     (plus tests/hotpath/, and src/ for the rank registry) and expects
//     conc-rank-inversion and conc-unguarded-access findings;
//   * the CI thread-safety job compiles it with clang
//     -DCORELOCATE_THREAD_SAFETY=1 -Wthread-safety -Wthread-safety-beta
//     -Werror and expects the build to FAIL.
//
// If either checker ever passes this file, that checker has gone blind.
#include "util/lockcheck.hpp"
#include "util/lockranks.hpp"

namespace corelocate {

struct SeededEngine {
  util::CheckedMutex<util::lockcheck::kRankPoolDeque> deque_mutex;
  util::CheckedMutex<util::lockcheck::kRankPoolIdle> idle_mutex
      CORELOCATE_ACQUIRED_AFTER(deque_mutex);
  int jobs_done CORELOCATE_GUARDED_BY(deque_mutex) = 0;
};

/// Seed 1: acquires rank 10 while rank 20 is held — downward, the exact
/// order the rank table forbids. clang needs -Wthread-safety-beta for
/// acquired_after; corelint resolves the ranks statically.
int seeded_inversion(SeededEngine& engine) {
  util::LockGuard idle(engine.idle_mutex);
  util::LockGuard deque(engine.deque_mutex);
  return engine.jobs_done;
}

/// Seed 2: writes a CORELOCATE_GUARDED_BY(deque_mutex) field with no
/// lock held at all.
void seeded_unguarded(SeededEngine& engine) {
  engine.jobs_done += 1;
}

}  // namespace corelocate
