#pragma once
// Solve batcher: one ILP solve per unique canonical observation
// signature in a batch of cache-missed mapping requests.
//
// The fleet repetition the paper measures (identical maps across many
// instances of one SKU) means concurrent misses frequently carry the
// same observation content under different PPINs. Grouping by
// (model, cha_count, signature) lets the whole group pay for a single
// solve; members beyond the first are "coalesced". Groups are ordered
// by first appearance in the batch, so dispatch order — and every
// downstream effect — is a pure function of the request stream.

#include <cstdint>
#include <vector>

#include "core/core_map.hpp"
#include "core/ilp_map_solver.hpp"
#include "serve/request.hpp"

namespace corelocate::serve {

/// One cache-missed mapping item awaiting a solve. `batch_index` points
/// back into the caller's batch array.
struct PendingSolve {
  std::size_t batch_index = 0;
  std::uint64_t group_key = 0;  ///< mix of (model, cha_count, signature)
  const MappingRequest* request = nullptr;
};

struct SolveGroup {
  std::uint64_t group_key = 0;
  std::vector<std::size_t> members;  ///< batch indices, ascending
};

/// Solve-dedup key: everything that determines the solve's input.
std::uint64_t solve_group_key(const MappingRequest& request, std::uint64_t signature);

/// Groups pending items by group_key, ordered by first appearance;
/// members keep their batch order within a group.
std::vector<SolveGroup> group_pending(const std::vector<PendingSolve>& pending);

/// Assembles the served CoreMap from a successful solve plus the
/// request's identity fields (mirrors core::locate_cores' final step).
core::CoreMap build_map(const MappingRequest& request, core::MapSolveResult solved);

}  // namespace corelocate::serve
