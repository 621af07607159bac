#include "ilp/solution_cache.hpp"

#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "recordio/reader.hpp"
#include "recordio/writer.hpp"

namespace corelocate::ilp {

namespace {

enum Column : std::size_t {
  kSignature = 0,  // map keys ascend, so delta coding packs tightly
  kSuccess,
  kPositions,  // (row, col) interleaved
  kMessage,
  kNodesExplored,
  kLpIterations,
  kNodesPruned,
  kLpSolvesAvoided,
  kColumnCount,
};

const recordio::Schema& cache_schema() {
  using recordio::FieldType;
  static const recordio::Schema schema = {
      {"signature", FieldType::kDeltaU64},
      {"success", FieldType::kU64},
      {"positions", FieldType::kI64List},
      {"message", FieldType::kBytes},
      {"nodes_explored", FieldType::kU64},
      {"lp_iterations", FieldType::kU64},
      {"nodes_pruned", FieldType::kU64},
      {"lp_solves_avoided", FieldType::kU64},
  };
  return schema;
}

[[noreturn]] void refuse(const std::string& path, const std::string& what) {
  throw std::runtime_error("SolutionCache: " + path + ": " + what);
}

int load_coordinate(const std::string& path, std::int64_t value) {
  if (value < 0 || value > std::numeric_limits<int>::max()) {
    refuse(path, "coordinate " + std::to_string(value) + " is outside [0, INT_MAX]");
  }
  return static_cast<int>(value);
}

std::int64_t load_counter(const std::string& path, const recordio::Row& row,
                          Column column) {
  const std::uint64_t value = std::get<std::uint64_t>(row[column]);
  if (value > static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())) {
    refuse(path, cache_schema()[column].name + " exceeds INT64_MAX");
  }
  return static_cast<std::int64_t>(value);
}

}  // namespace

const CachedSolution* SolutionCache::find(std::uint64_t signature) const {
  const auto it = entries_.find(signature);
  return it == entries_.end() ? nullptr : &it->second;
}

void SolutionCache::insert(std::uint64_t signature, CachedSolution solution) {
  if (capacity_ != 0 && entries_.size() >= capacity_ &&
      entries_.find(signature) == entries_.end()) {
    return;
  }
  entries_.emplace(signature, std::move(solution));
}

void SolutionCache::merge(const SolutionCache& other) {
  for (const auto& [signature, solution] : other.entries_) {
    if (capacity_ != 0 && entries_.size() >= capacity_) break;
    entries_.emplace(signature, solution);
  }
}

void SolutionCache::save(const std::string& path) const {
  // Stage and rename, so a crash or a full disk mid-save leaves the
  // previous cache file whole.
  const std::string staging = path + ".tmp";
  {
    recordio::RecordWriter writer(staging, cache_schema());
    for (const auto& [signature, solution] : entries_) {
      recordio::Row row(kColumnCount);
      row[kSignature] = signature;
      row[kSuccess] = static_cast<std::uint64_t>(solution.success ? 1 : 0);
      std::vector<std::int64_t> positions;
      positions.reserve(solution.positions.size() * 2);
      for (const auto& [pos_row, pos_col] : solution.positions) {
        positions.push_back(pos_row);
        positions.push_back(pos_col);
      }
      row[kPositions] = std::move(positions);
      row[kMessage] = solution.message;
      row[kNodesExplored] = static_cast<std::uint64_t>(solution.nodes_explored);
      row[kLpIterations] = static_cast<std::uint64_t>(solution.lp_iterations);
      row[kNodesPruned] = static_cast<std::uint64_t>(solution.nodes_pruned);
      row[kLpSolvesAvoided] = static_cast<std::uint64_t>(solution.lp_solves_avoided);
      writer.append_row(row);
    }
    writer.close();
  }
  std::filesystem::rename(staging, path);
}

std::size_t SolutionCache::load(const std::string& path) {
  if (!std::filesystem::exists(path)) return 0;  // cold start, not an error
  recordio::RecordReader reader(path);
  reader.require_schema(cache_schema());
  // Every row is checked before any lands, so a refused file leaves the
  // cache as it was.
  std::map<std::uint64_t, CachedSolution> rows;
  recordio::Row row;
  while (reader.next(&row)) {
    if (row.size() != kColumnCount) refuse(path, "cache row has wrong column count");
    CachedSolution solution;
    const std::uint64_t success = std::get<std::uint64_t>(row[kSuccess]);
    if (success > 1) refuse(path, "success is neither 0 nor 1");
    solution.success = success == 1;
    const auto& positions = std::get<std::vector<std::int64_t>>(row[kPositions]);
    if (positions.size() % 2 != 0) refuse(path, "cache entry has an odd position list");
    solution.positions.reserve(positions.size() / 2);
    for (std::size_t i = 0; i + 1 < positions.size(); i += 2) {
      solution.positions.emplace_back(load_coordinate(path, positions[i]),
                                      load_coordinate(path, positions[i + 1]));
    }
    solution.message = std::get<std::string>(row[kMessage]);
    solution.nodes_explored = load_counter(path, row, kNodesExplored);
    solution.lp_iterations = load_counter(path, row, kLpIterations);
    solution.nodes_pruned = load_counter(path, row, kNodesPruned);
    solution.lp_solves_avoided = load_counter(path, row, kLpSolvesAvoided);
    rows.emplace(std::get<std::uint64_t>(row[kSignature]), std::move(solution));
  }
  const std::size_t before = entries_.size();
  for (auto& [signature, solution] : rows) insert(signature, std::move(solution));
  return entries_.size() - before;
}

}  // namespace corelocate::ilp
