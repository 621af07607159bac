#pragma once
// Interprocedural determinism-taint pass (rule det-taint-flow).
//
// Sources — ambient nondeterminism:
//   * wall-clock / entropy tokens and calls (det-wallclock's detector)
//   * default-seeded util::Rng construction
//   * iteration over std::unordered_* containers (hash order)
//   * std::this_thread::get_id / thread::id values
//
// Sinks — anything that becomes part of a survey result:
//   * SurveyRecord / InstanceRecord variables and their fields
//   * MapStore / Aggregator / RecordWriter objects and their methods
//   * the serialization helpers (add_row, print_csv, serialize_map,
//     manifest)
//
// The pass computes a per-function summary — which parameters flow into
// the return value, into out-parameters, and into sinks — and iterates
// to a global fixed point over the cross-TU call graph (callees resolve
// by (name, arity)). A finding is reported only when a source actually
// reaches a sink, no matter how many helper functions sit in between.
// Lines tagged `corelint: non-deterministic` are not sources; files
// under src/fleet/progress.* are exempt entirely (their job is
// wall-clock).

#include <vector>

#include "rules.hpp"
#include "symbols.hpp"

namespace corelint {

/// Runs the taint pass over a whole corpus of translation units.
/// Findings carry rule "det-taint-flow" and respect per-line/per-file
/// suppression comments like every other rule.
std::vector<Finding> run_taint(const std::vector<TranslationUnit>& units);

}  // namespace corelint
