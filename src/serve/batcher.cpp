#include "serve/batcher.hpp"

#include <map>
#include <stdexcept>

#include "ilp/signature.hpp"

namespace corelocate::serve {

std::uint64_t solve_group_key(const MappingRequest& request, std::uint64_t signature) {
  ilp::SignatureBuilder builder(0xBA7C4E12ULL);
  builder.add(static_cast<std::uint64_t>(request.model))
      .add_int(request.cha_count)
      .add(signature);
  return builder.digest();
}

std::vector<SolveGroup> group_pending(const std::vector<PendingSolve>& pending) {
  std::vector<SolveGroup> groups;
  std::map<std::uint64_t, std::size_t> by_key;  // ordered: deterministic lookup only
  for (const PendingSolve& item : pending) {
    const auto it = by_key.find(item.group_key);
    if (it == by_key.end()) {
      by_key.emplace(item.group_key, groups.size());
      groups.push_back(SolveGroup{item.group_key, {item.batch_index}});
    } else {
      groups[it->second].members.push_back(item.batch_index);
    }
  }
  return groups;
}

core::CoreMap build_map(const MappingRequest& request, core::MapSolveResult solved) {
  if (!solved.success) {
    throw std::logic_error("build_map: called on a failed solve");
  }
  const sim::ModelSpec& spec = sim::spec_for(request.model);
  core::CoreMap map;
  map.rows = spec.die.rows;
  map.cols = spec.die.cols;
  map.ppin = request.ppin;
  map.cha_position = std::move(solved.cha_position);
  map.os_core_to_cha = request.os_core_to_cha;
  map.llc_only_chas = request.llc_only_chas;
  return map;
}

}  // namespace corelocate::serve
