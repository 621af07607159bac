#include "core/map_store.hpp"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <utility>

#include "recordio/reader.hpp"
#include "recordio/writer.hpp"

namespace corelocate::core {

namespace {

enum MapColumn : std::size_t {
  kRows = 0,
  kCols,
  kPpin,
  kChaPositions,  // (row, col) interleaved
  kOsCoreToCha,
  kLlcOnlyChas,
};

[[noreturn]] void refuse(const std::string& what) {
  throw std::runtime_error("core map: " + what);
}

int load_dimension(const recordio::Row& row, std::size_t first, MapColumn field) {
  const std::uint64_t value = std::get<std::uint64_t>(row[first + field]);
  if (value > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
    refuse(core_map_fields()[field].name + " " + std::to_string(value) +
           " exceeds INT_MAX");
  }
  return static_cast<int>(value);
}

std::vector<std::int64_t> widen(const std::vector<int>& values) {
  return std::vector<std::int64_t>(values.begin(), values.end());
}

/// The CHA ids of `field`, each checked to name one of `cha_count` CHAs.
std::vector<int> load_cha_ids(const recordio::Row& row, std::size_t first,
                              MapColumn field, int cha_count) {
  const auto& values = std::get<std::vector<std::int64_t>>(row[first + field]);
  std::vector<int> ids;
  ids.reserve(values.size());
  for (const std::int64_t cha : values) {
    if (cha < 0 || cha >= cha_count) {
      refuse(core_map_fields()[field].name + " entry " + std::to_string(cha) +
             " names no CHA (the map has " + std::to_string(cha_count) + ")");
    }
    ids.push_back(static_cast<int>(cha));
  }
  return ids;
}

}  // namespace

const recordio::Schema& core_map_fields() {
  using recordio::FieldType;
  static const recordio::Schema fields = {
      {"map_rows", FieldType::kU64},
      {"map_cols", FieldType::kU64},
      {"ppin", FieldType::kU64},
      {"cha_positions", FieldType::kI64List},
      {"os_core_to_cha", FieldType::kI64List},
      {"llc_only_chas", FieldType::kI64List},
  };
  return fields;
}

void encode_core_map(const CoreMap& map, std::size_t first, recordio::Row* row) {
  recordio::Row& cells = *row;
  cells[first + kRows] = static_cast<std::uint64_t>(map.rows);
  cells[first + kCols] = static_cast<std::uint64_t>(map.cols);
  cells[first + kPpin] = map.ppin;
  std::vector<std::int64_t> positions;
  positions.reserve(map.cha_position.size() * 2);
  for (const mesh::Coord& coord : map.cha_position) {
    positions.push_back(coord.row);
    positions.push_back(coord.col);
  }
  cells[first + kChaPositions] = std::move(positions);
  cells[first + kOsCoreToCha] = widen(map.os_core_to_cha);
  cells[first + kLlcOnlyChas] = widen(map.llc_only_chas);
}

CoreMap decode_core_map(const recordio::Row& row, std::size_t first) {
  if (row.size() < first + kCoreMapFieldCount) refuse("row too short for a core map");
  CoreMap map;
  map.rows = load_dimension(row, first, kRows);
  map.cols = load_dimension(row, first, kCols);
  map.ppin = std::get<std::uint64_t>(row[first + kPpin]);

  const auto& positions = std::get<std::vector<std::int64_t>>(row[first + kChaPositions]);
  if (positions.size() % 2 != 0) refuse("odd CHA position list");
  map.cha_position.reserve(positions.size() / 2);
  for (std::size_t i = 0; i + 1 < positions.size(); i += 2) {
    const std::int64_t pos_row = positions[i];
    const std::int64_t pos_col = positions[i + 1];
    if (pos_row < 0 || pos_row >= map.rows || pos_col < 0 || pos_col >= map.cols) {
      refuse("CHA position (" + std::to_string(pos_row) + ", " +
             std::to_string(pos_col) + ") is outside the " + std::to_string(map.rows) +
             "x" + std::to_string(map.cols) + " grid");
    }
    map.cha_position.push_back(
        mesh::Coord{static_cast<int>(pos_row), static_cast<int>(pos_col)});
  }
  map.os_core_to_cha = load_cha_ids(row, first, kOsCoreToCha, map.cha_count());
  map.llc_only_chas = load_cha_ids(row, first, kLlcOnlyChas, map.cha_count());
  return map;
}

void MapStore::put(const CoreMap& map) { maps_[map.ppin] = map; }

std::optional<CoreMap> MapStore::get(std::uint64_t ppin) const {
  const auto it = maps_.find(ppin);
  if (it == maps_.end()) return std::nullopt;
  return it->second;
}

bool MapStore::contains(std::uint64_t ppin) const { return maps_.count(ppin) != 0; }

std::vector<std::uint64_t> MapStore::ppins() const {
  std::vector<std::uint64_t> keys;
  keys.reserve(maps_.size());
  for (const auto& [ppin, map] : maps_) keys.push_back(ppin);
  return keys;
}

void MapStore::save_file(const std::string& path) const {
  // Stage and rename, so a crash or a full disk mid-save leaves the
  // previous database whole.
  const std::string staging = path + ".tmp";
  {
    recordio::RecordWriter writer(staging, core_map_fields());
    recordio::Row row(kCoreMapFieldCount);
    for (const auto& [ppin, map] : maps_) {
      encode_core_map(map, 0, &row);
      writer.append_row(row);
    }
    writer.close();
  }
  std::filesystem::rename(staging, path);
}

MapStore MapStore::load_file(const std::string& path) {
  MapStore store;
  if (!std::filesystem::exists(path)) return store;  // a new database
  recordio::RecordReader reader(path);
  reader.require_schema(core_map_fields());
  recordio::Row row;
  while (reader.next(&row)) {
    CoreMap map;
    try {
      map = decode_core_map(row, 0);
    } catch (const std::runtime_error& error) {
      throw std::runtime_error("MapStore: " + path + ": " + error.what());
    }
    const std::uint64_t ppin = map.ppin;
    if (!store.maps_.emplace(ppin, std::move(map)).second) {
      char hex[32];
      std::snprintf(hex, sizeof hex, "%" PRIx64, ppin);
      throw std::runtime_error("MapStore: " + path + ": PPIN 0x" + hex +
                               " is stored twice");
    }
  }
  return store;
}

}  // namespace corelocate::core
