#include "core/map_store.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/pipeline.hpp"
#include "recordio/writer.hpp"
#include "util/rng.hpp"

namespace corelocate::core {
namespace {

CoreMap sample_map(std::uint64_t ppin = 0xABCDEF0123456789ULL) {
  CoreMap map;
  map.rows = 3;
  map.cols = 3;
  map.ppin = ppin;
  map.cha_position = {{0, 0}, {1, 0}, {0, 2}};
  map.os_core_to_cha = {0, 2};
  map.llc_only_chas = {1};
  return map;
}

/// `map` encoded at column `first` of an otherwise empty row.
recordio::Row encoded(const CoreMap& map, std::size_t first = 0) {
  recordio::Row row(first + kCoreMapFieldCount);
  encode_core_map(map, first, &row);
  return row;
}

/// Column index of the core-map field called `name`.
std::size_t column(const std::string& name) {
  const recordio::Schema& fields = core_map_fields();
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (fields[i].name == name) return i;
  }
  ADD_FAILURE() << "no core-map field " << name;
  return 0;
}

std::vector<std::int64_t>& list(recordio::Row& row, const std::string& name) {
  return std::get<std::vector<std::int64_t>>(row[column(name)]);
}

void expect_same_map(const CoreMap& want, const CoreMap& got,
                     const std::string& where = "") {
  EXPECT_EQ(got.rows, want.rows) << where;
  EXPECT_EQ(got.cols, want.cols) << where;
  EXPECT_EQ(got.ppin, want.ppin) << where;
  EXPECT_EQ(got.cha_position, want.cha_position) << where;
  EXPECT_EQ(got.os_core_to_cha, want.os_core_to_cha) << where;
  EXPECT_EQ(got.llc_only_chas, want.llc_only_chas) << where;
}

/// Expects `what` to throw std::runtime_error whose message holds `needle`.
template <typename Fn>
void expect_refusal(Fn what, const std::string& needle) {
  try {
    what();
    ADD_FAILURE() << "expected a refusal mentioning \"" << needle << "\"";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "corelocate_mapstore_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A map-store segment holding `maps` as rows, in the order given —
/// including orders and contents save_file never writes.
void write_segment(const std::string& path, const std::vector<CoreMap>& maps) {
  recordio::RecordWriter writer(path, core_map_fields());
  for (const CoreMap& map : maps) writer.append_row(encoded(map));
  writer.close();
}

TEST(MapSerialization, RoundTrip) {
  const CoreMap original = sample_map();
  expect_same_map(original, decode_core_map(encoded(original), 0));
  // At an offset, the way a survey record embeds the map columns.
  expect_same_map(original, decode_core_map(encoded(original, 4), 4));
  // A failed locate's empty map is a valid record too.
  CoreMap empty;
  empty.ppin = 9;
  expect_same_map(empty, decode_core_map(encoded(empty), 0));
}

TEST(MapSerialization, RoundTripRealInstance) {
  sim::InstanceFactory factory;
  util::Rng rng(5);
  const CoreMap original =
      truth_map(factory.make_instance(sim::XeonModel::k8259CL, rng));
  const CoreMap restored = decode_core_map(encoded(original), 0);
  expect_same_map(original, restored);
  EXPECT_EQ(restored.pattern_key(), original.pattern_key());
}

TEST(MapSerialization, RejectsGarbage) {
  recordio::Row short_row = encoded(sample_map());
  short_row.pop_back();
  expect_refusal([&] { decode_core_map(short_row, 0); }, "too short");

  // Grid dimensions that an int cannot hold are refused, not narrowed
  // (2^32 would narrow to 0, INT_MAX + 1 to a negative grid).
  const auto too_tall = static_cast<std::uint64_t>(std::numeric_limits<int>::max()) + 1;
  recordio::Row row = encoded(sample_map());
  row[column("map_rows")] = too_tall;
  expect_refusal([&] { decode_core_map(row, 0); }, "map_rows");
  row = encoded(sample_map());
  row[column("map_cols")] = std::uint64_t{1} << 32;
  expect_refusal([&] { decode_core_map(row, 0); }, "map_cols");

  row = encoded(sample_map());
  list(row, "cha_positions").push_back(0);
  expect_refusal([&] { decode_core_map(row, 0); }, "odd CHA position list");
}

TEST(MapSerialization, RejectsInconsistentRecords) {
  // CHA positions outside the declared 3x3 grid, including ones that
  // would narrow back onto it.
  const std::int64_t off_grid[][2] = {
      {5, 0}, {-1, 0}, {0, 3}, {0, -1}, {std::int64_t{1} << 32, 0}};
  for (const auto& pos : off_grid) {
    recordio::Row row = encoded(sample_map());
    list(row, "cha_positions")[2] = pos[0];
    list(row, "cha_positions")[3] = pos[1];
    expect_refusal([&] { decode_core_map(row, 0); }, "outside the 3x3 grid");
  }
  // OS-core and LLC-only entries must name one of the map's 3 CHAs.
  for (const std::string field : {"os_core_to_cha", "llc_only_chas"}) {
    for (const std::int64_t cha : {std::int64_t{3}, std::int64_t{-1},
                                   std::int64_t{1} << 32}) {
      recordio::Row row = encoded(sample_map());
      list(row, field).push_back(cha);
      expect_refusal([&] { decode_core_map(row, 0); }, field + " entry");
    }
  }
  // With no CHAs placed, no OS core can map to one.
  CoreMap no_chas;
  no_chas.os_core_to_cha = {0};
  expect_refusal([&] { decode_core_map(encoded(no_chas), 0); }, "names no CHA");
}

TEST(MapStore, PutGetContains) {
  MapStore store;
  EXPECT_FALSE(store.contains(1));
  store.put(sample_map(1));
  store.put(sample_map(2));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.contains(1));
  ASSERT_TRUE(store.get(2).has_value());
  EXPECT_EQ(store.get(2)->ppin, 2u);
  EXPECT_FALSE(store.get(3).has_value());
  EXPECT_EQ(store.ppins(), (std::vector<std::uint64_t>{1, 2}));
}

TEST(MapStore, PutReplacesByPpin) {
  MapStore store;
  CoreMap first = sample_map(7);
  store.put(first);
  CoreMap second = sample_map(7);
  second.cha_position[0] = {2, 2};
  store.put(second);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.get(7)->cha_position[0], (mesh::Coord{2, 2}));
}

TEST(MapStore, FileRoundTrip) {
  const std::string path = temp_path("roundtrip.rio");
  std::remove(path.c_str());
  // A database that does not exist yet is empty, not an error.
  EXPECT_EQ(MapStore::load_file(path).size(), 0u);

  MapStore store;
  store.put(sample_map(42));
  store.put(sample_map(7));
  store.save_file(path);
  const MapStore restored = MapStore::load_file(path);
  EXPECT_EQ(restored.ppins(), (std::vector<std::uint64_t>{7, 42}));
  expect_same_map(sample_map(42), *restored.get(42));

  // Equal stores save equal bytes, whatever order the maps arrived in.
  MapStore reversed;
  reversed.put(sample_map(7));
  reversed.put(sample_map(42));
  const std::string other = temp_path("roundtrip_reversed.rio");
  reversed.save_file(other);
  EXPECT_EQ(read_file(path), read_file(other));
  std::remove(path.c_str());
  std::remove(other.c_str());
}

TEST(MapStore, SaveLeavesNoStagingFile) {
  const std::string path = temp_path("staged.rio");
  MapStore store;
  store.put(sample_map(42));
  store.save_file(path);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(MapStore::load_file(path).size(), 1u);
  std::remove(path.c_str());
}

TEST(MapStore, FailedSaveKeepsThePreviousFile) {
  // The save stages at <path>.tmp; a directory there makes it fail
  // before the database is touched.
  const std::string path = temp_path("kept.rio");
  std::filesystem::remove_all(path + ".tmp");
  MapStore store;
  store.put(sample_map(42));
  store.save_file(path);
  const std::string before = read_file(path);
  std::filesystem::create_directory(path + ".tmp");
  store.put(sample_map(7));
  EXPECT_THROW(store.save_file(path), std::runtime_error);
  EXPECT_EQ(read_file(path), before);
  std::filesystem::remove(path + ".tmp");
  std::remove(path.c_str());
}

TEST(MapStore, LocatedMapsOfEverySkuRoundTrip) {
  sim::InstanceFactory factory;
  MapStore store;
  std::vector<CoreMap> located;
  for (const sim::XeonModel model : sim::all_models()) {
    // The PPIN comes from the instance seed, so each SKU gets its own.
    util::Rng rng(17 + located.size());
    const sim::InstanceConfig machine = factory.make_instance(model, rng);
    sim::VirtualXeon cpu(machine);
    util::Rng tool_rng(18);
    const LocateResult result =
        locate_cores(cpu, tool_rng, options_for(sim::spec_for(model)));
    ASSERT_TRUE(result.success) << sim::to_string(model) << ": " << result.message;
    store.put(result.map);
    located.push_back(result.map);
  }
  const std::string path = temp_path("located.rio");
  store.save_file(path);
  const MapStore restored = MapStore::load_file(path);
  EXPECT_EQ(restored.size(), located.size());
  for (const CoreMap& map : located) {
    const auto back = restored.get(map.ppin);
    ASSERT_TRUE(back.has_value());
    expect_same_map(map, *back, map.render());
    EXPECT_EQ(back->pattern_key(), map.pattern_key());
  }
  std::remove(path.c_str());
}

TEST(MapStore, LoadRejectsCorruption) {
  const std::string path = temp_path("corrupt.rio");

  // A database in the retired text format is refused, not reinterpreted.
  write_file(path, "coremap v1\nppin 1\ngrid 2 2\ncha 0 0\nos 0\nllconly\nend\n");
  expect_refusal([&] { MapStore::load_file(path); }, path);

  // A segment of another schema.
  {
    recordio::RecordWriter writer(path, {{"ppin", recordio::FieldType::kU64}});
    writer.append_row({std::uint64_t{1}});
    writer.close();
  }
  expect_refusal([&] { MapStore::load_file(path); }, "schema");

  // The same PPIN twice.
  write_segment(path, {sample_map(3), sample_map(3)});
  expect_refusal([&] { MapStore::load_file(path); }, "PPIN 0x3 is stored twice");

  // A row the codec refuses: the error names the file.
  CoreMap off_grid = sample_map(4);
  off_grid.cha_position[1] = {0, 7};
  write_segment(path, {sample_map(1), off_grid});
  expect_refusal([&] { MapStore::load_file(path); }, path + ": core map: CHA position");

  // A truncated segment.
  MapStore store;
  store.put(sample_map(5));
  store.save_file(path);
  const std::string valid = read_file(path);
  write_file(path, valid.substr(0, valid.size() - 3));
  expect_refusal([&] { MapStore::load_file(path); }, path);
  std::remove(path.c_str());
}

TEST(MapStore, LoaderRefusesMutatedFiles) {
  // Seeded mutation fuzz: a flipped, dropped or inserted byte, or a cut
  // anywhere, either makes load_file() throw std::runtime_error or loads
  // a PPIN-order prefix of the saved maps, field for field (a cut at a
  // block boundary drops whole blocks).
  std::vector<CoreMap> maps;
  for (int k = 0; k < 8; ++k) {
    CoreMap map;
    map.ppin = 0x1000 + 0x9E37ULL * static_cast<std::uint64_t>(k);
    if (k % 3 != 0) {  // every third map is a failed locate's empty map
      map.rows = 2 + k % 3;
      map.cols = 3 + k % 2;
      for (int cha = 0; cha < 4; ++cha) {
        map.cha_position.push_back({cha % map.rows, (cha + k) % map.cols});
      }
      map.os_core_to_cha = {k % 4, 3 - k % 4};
      map.llc_only_chas = {(k + 1) % 4};
    }
    maps.push_back(map);
  }
  MapStore original;
  for (const CoreMap& map : maps) original.put(map);
  const std::string path = temp_path("fuzz.rio");
  original.save_file(path);
  const std::string valid = read_file(path);

  util::Rng rng(0x3A9DB5ULL);
  int refused = 0;
  for (int trial = 0; trial < 600; ++trial) {
    std::string bytes = valid;
    const std::size_t at = rng.below(bytes.size());
    switch (rng.below(4)) {
      case 0: bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.below(8))); break;
      case 1: bytes.erase(at, 1); break;
      case 2: bytes.insert(at, 1, static_cast<char>(rng.below(256))); break;
      default: bytes.resize(at); break;
    }
    write_file(path, bytes);
    MapStore loaded;
    try {
      loaded = MapStore::load_file(path);
    } catch (const std::runtime_error&) {
      ++refused;
      continue;
    }
    const std::string where = "trial " + std::to_string(trial);
    ASSERT_LE(loaded.size(), maps.size()) << where;
    for (std::size_t i = 0; i < maps.size(); ++i) {
      const auto hit = loaded.get(maps[i].ppin);
      if (i >= loaded.size()) {
        EXPECT_FALSE(hit.has_value()) << where;
        continue;
      }
      ASSERT_TRUE(hit.has_value()) << where;
      expect_same_map(maps[i], *hit, where);
    }
  }
  std::remove(path.c_str());
  // Only a cut exactly at the header's end (an empty, valid file) loads.
  EXPECT_GT(refused, 580);
}

}  // namespace
}  // namespace corelocate::core
