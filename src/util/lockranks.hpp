#pragma once
// Central registry of lock-order ranks (satellite of corelint v3).
//
// Every CheckedMutex in the tree names its rank from this table — never
// an inline integer literal — so the whole acquisition order is visible
// in one place and corelint's conc-* rules can resolve
// `CheckedMutex<kRank...>` declarations to concrete ranks when it builds
// the static lock graph. A thread may only acquire strictly upward in
// rank (see lockcheck.hpp for the runtime checker that enforces the same
// order dynamically).
//
// Layering (gaps left for future layers):
//   10..19  fleet::ThreadPool internals (deques below idle accounting)
//   20..24  fleet::ThreadPool idle/pending accounting
//   25..29  fleet::OrderedSink — the reorder buffer drains into the
//           checkpoint segment from inside its emit callback, so the
//           sink must rank below every lock the drain can take
//   40..49  fleet::ProgressMeter
//   50..59  obs::Tracer (registry below per-thread buffers)
// The obs ranks sit above every fleet rank on purpose: spans are taken
// inside fleet critical sections (sink drain, progress emit), so
// tracer locks must always be acquirable while fleet locks are held,
// never the other way around.

namespace corelocate::util::lockcheck {

inline constexpr int kRankPoolDeque = 10;
inline constexpr int kRankPoolIdle = 20;
inline constexpr int kRankRecordSink = 25;
inline constexpr int kRankProgress = 40;
inline constexpr int kRankObsTracer = 50;
inline constexpr int kRankObsTraceBuffer = 52;

namespace detail {

inline constexpr int kAllRanks[] = {
    kRankPoolDeque, kRankPoolIdle,  kRankRecordSink,
    kRankProgress,  kRankObsTracer, kRankObsTraceBuffer,
};

constexpr bool ranks_strictly_increasing() {
  constexpr int n = sizeof(kAllRanks) / sizeof(kAllRanks[0]);
  for (int i = 1; i < n; ++i) {
    if (kAllRanks[i] <= kAllRanks[i - 1]) return false;
  }
  return true;
}

}  // namespace detail

// Listing the table in ascending order doubles as a uniqueness check: a
// duplicated or out-of-place rank fails the build here, not at runtime.
static_assert(detail::ranks_strictly_increasing(),
              "lock ranks must be unique and listed in ascending order");

}  // namespace corelocate::util::lockcheck
