// Deliberately wasteful TU: a mock of the one-hot propagation fixpoint
// from src/ilp/branch_and_bound.cpp that collects the variables it
// clears into an unreserved vector INSIDE the marked hot loop — the
// real loop writes bounds in place precisely to avoid per-node growth.
// It lives outside the linted tree and outside every build target;
// ctest `corelint_canaries` runs corelint over this directory (plus
// src/ for the real headers) and expects a perf-alloc-in-hot-loop
// finding against this file. If the gate ever
// passes it, the hot-path analysis has stopped covering the propagation
// loop's shape.
#include <cstdint>
#include <vector>

#include "obs/trace.hpp"
#include "util/hotpath.hpp"

namespace corelocate {

/// Seed: the fixpoint sweep below grows `cleared_bits` every pass with
/// no reserve anywhere in the function.
std::size_t seeded_propagation(
    const std::vector<std::vector<std::uint64_t>>& masks,
    std::vector<std::uint64_t>& available) {
  obs::Span span("seeded_propagation", "canary");
  std::vector<int> cleared_bits;
  bool changed = true;
  CORELOCATE_HOT_LOOP;
  while (changed) {
    changed = false;
    for (const std::vector<std::uint64_t>& mask : masks) {
      for (std::size_t w = 0; w < available.size() && w < mask.size(); ++w) {
        std::uint64_t to_clear = available[w] & mask[w];
        if (to_clear == 0) continue;
        available[w] &= ~to_clear;
        changed = true;
        while (to_clear != 0) {
          const int bit = static_cast<int>(w) * 64 +
                          static_cast<int>(__builtin_ctzll(to_clear));
          to_clear &= to_clear - 1;
          cleared_bits.push_back(bit);
        }
      }
    }
  }
  return cleared_bits.size();
}

}  // namespace corelocate
