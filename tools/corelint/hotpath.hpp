#pragma once
// Interprocedural hot-path performance analysis + architecture layering
// gate (corelint v4; see docs/ANALYSIS.md).
//
// Hotness seeds at CORELOCATE_HOT_LOOP markers (src/util/hotpath.hpp):
// a marker standing directly before a for/while/do marks that loop;
// anywhere else it marks the innermost enclosing brace scope (a lambda
// body, or the whole function body). Every function called — or passed
// by name, e.g. into a callback parameter — inside a marked region
// becomes hot, and hotness propagates through the shared cross-TU
// (name, arity) call graph (symbols.hpp) to a Kleene fixpoint. A loop
// is hot when it sits in a marked region or in the body of a hot
// function.
//
// Four performance rules read that closure:
//
//   perf-alloc-in-hot-loop  new / make_unique / make_shared, push_back /
//                           emplace_back on a container with no visible
//                           .reserve() in the same function, or string
//                           concatenation (+ / += with a string operand),
//                           inside a hot loop
//   perf-copy-in-hot-path   a hot function takes a heavy parameter
//                           (std container / std::string / std::function)
//                           by value, or a range-for in a hot loop binds
//                           heavy elements by value
//   perf-lock-in-hot-loop   a lock region (conc.hpp) begins inside a hot
//                           loop body — the acquisition reruns every
//                           iteration
//   perf-span-missing       a function containing a CORELOCATE_HOT_LOOP
//                           marker never opens an obs::Span, so the hot
//                           loop is invisible to perf reports
//
// One architectural rule rides on the include graph the scanner
// captures (symbols.hpp):
//
//   arch-layering           src/ subsystems form a DAG — util(0) →
//                           obs/mesh/msr(1) → thermal/cache/ilp(2) →
//                           sim(3) → core(4) → covert/fleet(5) →
//                           serve(6) → corelocate(7). A quoted #include
//                           must target the same subsystem or a strictly
//                           lower layer, and no include cycle may exist
//                           anywhere in the scanned corpus.

#include "symbols.hpp"

namespace corelint {

/// Runs the hot-path + layering passes over the whole corpus.
/// Suppression comments apply as for every other rule.
void run_hotpath(const Corpus& corpus, Reporter& report);

}  // namespace corelint
