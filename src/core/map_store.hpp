#pragma once
// PPIN-keyed core-map database.
//
// The locating phase needs root (MSR access); the attack phase does not.
// The paper's workflow (Sec. II): map a machine once, key the map by the
// chip's Protected Processor Inventory Number, and recognize the same
// physical CPU whenever it is rented again — "the identified core
// locations are permanent on a CPU instance" (Sec. IV).
//
// MapStore is that database: a human-readable text file of CoreMaps keyed
// by PPIN, with round-trip serialization.

#include <iosfwd>
#include <map>
#include <optional>
#include <string>

#include "core/core_map.hpp"

namespace corelocate::core {

/// Serializes one CoreMap to a line-oriented text block.
std::string serialize_map(const CoreMap& map);

/// Parses a serialized CoreMap. Throws std::invalid_argument on malformed
/// input.
CoreMap deserialize_map(const std::string& text);

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

  /// Text round-trip of the whole store.
  void save(std::ostream& out) const;
  static MapStore load(std::istream& in);

  /// File convenience wrappers. Throw std::runtime_error on I/O failure.
  void save_file(const std::string& path) const;
  static MapStore load_file(const std::string& path);

  /// Appends one record to a store file, creating it if missing: O(1)
  /// per record instead of rewriting the whole store (bench/fleet_million
  /// compares it with the recordio writer). The result stays load_file-compatible
  /// (later records for the same PPIN win, matching put()).
  static void append_file(const std::string& path, const CoreMap& map);

 private:
  std::map<std::uint64_t, CoreMap> maps_;
};

}  // namespace corelocate::core
