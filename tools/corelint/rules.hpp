#pragma once
// corelint rule set (see docs/ANALYSIS.md for the full contract).
//
// Determinism
//   det-wallclock        no ambient time/randomness sources (std::rand,
//                        std::random_device, time(), *_clock) outside
//                        src/fleet/progress.* or lines tagged
//                        `corelint: non-deterministic`
//   det-std-random       no <random> engines/distributions or
//                        std::shuffle — use util::Rng, whose streams are
//                        stable across platforms and seeds
//   det-rng-default-seed util::Rng must be constructed with an explicit
//                        seed (or passed in by reference), never default-
//                        seeded inside library code
//   det-unordered-iter   no iteration over std::unordered_{map,set} in a
//                        function that also touches a result sink
//                        (MapStore, Aggregator, RecordWriter, TablePrinter,
//                        manifest/serialization helpers)
//
// Concurrency (per-file)
//   conc-guarded-field   data members of fleet classes need a
//                        synchronization story: a mutex/atomic in the
//                        class, or a `corelint: owned-by(...)` annotation
//
// Concurrency (cross-TU, tools/corelint/conc.cpp — the static lock
// graph built from CheckedMutex<Rank> declarations and the annotation
// macros in src/util/lockcheck.hpp)
//   conc-rank-inversion    a static path acquires a rank not strictly
//                          above every held rank, or re-acquires a held
//                          mutex, including paths no test executes
//   conc-unguarded-access  a CORELOCATE_GUARDED_BY(m) field is touched
//                          where the static lockset lacks m
//   conc-phase-escape      a CORELOCATE_SERIAL_PHASE function is
//                          reachable from a pool task
//   conc-ref-capture       tasks handed to ThreadPool::submit/submit_on
//                          must not capture implicitly by reference, and
//                          named by-ref captures require the frame to
//                          join the pool before returning
//
// Hygiene
//   hyg-naked-new        no naked `new` — use std::make_unique/container
//   hyg-narrowing-cast   no C-style arithmetic casts or casts to float in
//                        the ILP solver hot paths (src/ilp/*)
//
// Interprocedural (tools/corelint/taint.cpp)
//   det-taint-flow       a value derived from a nondeterminism source
//                        reaches a result sink, possibly through helper
//                        functions, return values or out-parameters
//
// Hot-path performance + architecture (tools/corelint/hotpath.cpp —
// hotness seeds at CORELOCATE_HOT_LOOP markers and propagates over the
// same cross-TU call graph)
//   perf-alloc-in-hot-loop  allocation in a hot loop: new/make_unique/
//                           make_shared, push_back without a visible
//                           reserve(), or string concatenation
//   perf-copy-in-hot-path   heavy (container/string) parameter taken by
//                           value in a hot function, or a by-value
//                           range-for over heavy elements in a hot loop
//   perf-lock-in-hot-loop   a lock acquired inside a hot loop body —
//                           hoist it or restructure the critical section
//   perf-span-missing       a CORELOCATE_HOT_LOOP function publishes no
//                           obs::Span, so its cost is invisible to perf
//                           reports
//   arch-layering           an #include that violates the subsystem
//                           layering (util → obs/mesh/msr → thermal/
//                           cache/ilp → sim → core → covert/fleet →
//                           serve) or participates in an include cycle

#include <string>
#include <vector>

#include "scanner.hpp"

namespace corelint {

struct Finding {
  std::string path;   ///< real path of the file
  std::size_t line;   ///< 1-based
  std::string rule;
  std::string message;
};

/// One registered rule: the name suppression comments key on, plus the
/// one-line description `--help` prints.
struct RuleInfo {
  const char* name;
  const char* summary;
};

/// Every registered rule with its description, in report order.
/// run_selftest checks that each entry has at least one firing fixture.
const std::vector<RuleInfo>& rule_table();

/// All rule names, in report order (derived from rule_table()).
const std::vector<std::string>& rule_names();

/// Runs every per-file rule over one scanned file (the interprocedural
/// taint pass runs separately, over the whole corpus — see taint.hpp).
std::vector<Finding> run_rules(const SourceFile& file);

/// det-wallclock's detector, shared with the taint pass: the ambient
/// time/entropy token this stripped line uses ("random_device",
/// "time()", ...), or nullptr. Ignores suppression tags — callers check
/// those.
const char* ambient_source_token(const std::string& code);

/// Identifiers declared anywhere in `file` with a std::unordered_*
/// container type (shared between det-unordered-iter and the taint
/// pass's iteration-order source).
std::vector<std::string> unordered_idents(const SourceFile& file);

/// Repo-relative path tail used in reports and SARIF locations: the
/// part starting at the first repo-root marker (src/, tests/, ...), so
/// build trees and checkouts in different locations agree.
std::string report_path(const std::string& path);

}  // namespace corelint
