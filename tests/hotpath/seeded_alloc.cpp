// Deliberately wasteful TU: seeds per-iteration allocations inside a
// marked hot loop against the real CORELOCATE_HOT_LOOP marker and
// obs::Span API. It lives outside the linted tree (src/, bench/,
// examples/) and outside every build target; ctest `corelint_canaries`
// runs corelint over this directory (plus src/ for the real headers) and
// expects perf-alloc-in-hot-loop findings. If the gate ever
// passes this file, the hot-path analysis has gone blind.
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "util/hotpath.hpp"

namespace corelocate {

/// Seed: grows a vector inside the marked loop with no reserve anywhere
/// in the function, and accumulates a string with no capacity.
std::string seeded_alloc(const std::vector<int>& items) {
  obs::Span span("seeded_alloc", "canary");
  std::vector<int> doubled;
  std::string body;
  CORELOCATE_HOT_LOOP;
  for (int item : items) {
    doubled.push_back(item * 2);
    body += "row;";
  }
  return body + std::to_string(doubled.size());
}

}  // namespace corelocate
