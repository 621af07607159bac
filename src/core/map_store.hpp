#pragma once
// PPIN-keyed core-map database, and the recordio codec of a CoreMap.
//
// The locating phase needs root (MSR access); the attack phase does not.
// The paper's workflow (Sec. II): map a machine once, key the map by the
// chip's Protected Processor Inventory Number, and recognize the same
// physical CPU whenever it is rented again — "the identified core
// locations are permanent on a CPU instance" (Sec. IV).
//
// MapStore is that database: a recordio segment with one row per PPIN.
// Its columns are exactly the six core_map_fields(), the same columns a
// fleet survey record embeds, so one codec — encode_core_map and
// decode_core_map — lays a CoreMap out in recordio bytes and checks it
// on the way back in for both formats.

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/core_map.hpp"
#include "recordio/schema.hpp"

namespace corelocate::core {

/// Number of recordio columns one CoreMap occupies.
inline constexpr std::size_t kCoreMapFieldCount = 6;

/// The CoreMap columns, in order: map_rows, map_cols and ppin (kU64),
/// then cha_positions (interleaved (row, col) pairs), os_core_to_cha and
/// llc_only_chas (kI64List).
const recordio::Schema& core_map_fields();

/// Writes `map` into the kCoreMapFieldCount cells of `*row` starting at
/// column `first`; the row must already be that long.
void encode_core_map(const CoreMap& map, std::size_t first, recordio::Row* row);

/// Reads the CoreMap stored at columns first, first + 1, ... of `row`.
/// Throws std::runtime_error — never narrows or misplaces a value — on
/// a grid dimension above INT_MAX, an odd position list, a CHA position
/// outside [0, rows) x [0, cols), or an OS-core or LLC-only entry that
/// names no CHA. An empty map (a failed locate) decodes.
CoreMap decode_core_map(const recordio::Row& row, std::size_t first);

class MapStore {
 public:
  MapStore() = default;

  /// Adds or replaces the map for its PPIN.
  void put(const CoreMap& map);

  /// Looks a machine up by PPIN.
  std::optional<CoreMap> get(std::uint64_t ppin) const;

  bool contains(std::uint64_t ppin) const;
  std::size_t size() const noexcept { return maps_.size(); }

  /// All PPINs in the store, ascending.
  std::vector<std::uint64_t> ppins() const;

  /// Writes the store as a recordio segment, one row per PPIN in
  /// ascending order, so equal stores save equal bytes. The segment is
  /// staged at `<path>.tmp` and renamed over `path`, so a failed save
  /// leaves the previous file as it was. Throws std::runtime_error on
  /// I/O failure.
  void save_file(const std::string& path) const;

  /// Reads a segment written by save_file. A missing file is an empty
  /// store (a new database, not an error). Damage, a foreign schema, a
  /// map decode_core_map refuses or a PPIN stored twice throws
  /// std::runtime_error naming the file.
  static MapStore load_file(const std::string& path);

 private:
  std::map<std::uint64_t, CoreMap> maps_;
};

}  // namespace corelocate::core
