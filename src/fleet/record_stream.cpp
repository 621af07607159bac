#include "fleet/record_stream.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace corelocate::fleet {

namespace {

using recordio::FieldType;

constexpr const char* kManifestMagic = "fleet-shard v2";

std::string fmt_hex(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIx64, value);
  return buf;
}

std::string format_manifest(const SegmentManifest& manifest) {
  std::ostringstream out;
  out << kManifestMagic << '\n'
      << "model " << manifest.model << '\n'
      << "base_seed " << fmt_hex(manifest.base_seed) << '\n'
      << "fleet_seed " << fmt_hex(manifest.fleet_seed) << '\n';
  if (manifest.committed) {
    out << "range " << manifest.first << ' ' << manifest.count << '\n'
        << "completed " << manifest.completed << '\n'
        << "failed " << manifest.failed << '\n'
        << "end\n";
  }
  return out.str();
}

enum Column : std::size_t {
  kIndex = 0,
  kSeed,
  kSuccess,
  kMessage,
  kMapRows,
  kMapCols,
  kPpin,
  kChaPositions,
  kOsCoreToCha,
  kLlcOnlyChas,
  kMetricNames,
  kMetricValues,
  kColumnCount,
};

}  // namespace

const recordio::Schema& survey_record_schema() {
  static const recordio::Schema schema = {
      {"index", FieldType::kDeltaU64},
      {"seed", FieldType::kDeltaU64},
      {"success", FieldType::kU64},
      {"message", FieldType::kBytes},
      {"map_rows", FieldType::kU64},
      {"map_cols", FieldType::kU64},
      {"ppin", FieldType::kU64},
      {"cha_positions", FieldType::kI64List},
      {"os_core_to_cha", FieldType::kI64List},
      {"llc_only_chas", FieldType::kI64List},
      {"metric_names", FieldType::kBytes},
      {"metric_values", FieldType::kF64List},
  };
  return schema;
}

recordio::Row encode_survey_record(const InstanceRecord& record) {
  recordio::Row row(kColumnCount);
  row[kIndex] = static_cast<std::uint64_t>(record.index);
  row[kSeed] = record.seed;
  row[kSuccess] = static_cast<std::uint64_t>(record.success ? 1 : 0);
  row[kMessage] = record.message;
  row[kMapRows] = static_cast<std::uint64_t>(record.map.rows);
  row[kMapCols] = static_cast<std::uint64_t>(record.map.cols);
  row[kPpin] = record.map.ppin;

  std::vector<std::int64_t> positions;
  positions.reserve(record.map.cha_position.size() * 2);
  for (const mesh::Coord& coord : record.map.cha_position) {
    positions.push_back(coord.row);
    positions.push_back(coord.col);
  }
  row[kChaPositions] = std::move(positions);

  std::vector<std::int64_t> os_map(record.map.os_core_to_cha.begin(),
                                   record.map.os_core_to_cha.end());
  row[kOsCoreToCha] = std::move(os_map);
  std::vector<std::int64_t> llc_only(record.map.llc_only_chas.begin(),
                                     record.map.llc_only_chas.end());
  row[kLlcOnlyChas] = std::move(llc_only);

  // metrics is an ordered map whose keys are non-empty and free of ';',
  // so a ';'-joined name column plus a parallel value list round-trips it.
  std::string names;
  names.reserve(record.metrics.size() * 24);  // the solver counter keys fit
  std::vector<double> values;
  values.reserve(record.metrics.size());
  for (const auto& [key, value] : record.metrics) {
    if (key.empty() || key.find(';') != std::string::npos) {
      throw std::invalid_argument("fleet: metric key \"" + key +
                                  "\" is empty or contains ';'");
    }
    if (!names.empty()) names.push_back(';');
    names.append(key);
    values.push_back(value);
  }
  row[kMetricNames] = std::move(names);
  row[kMetricValues] = std::move(values);
  return row;
}

InstanceRecord decode_survey_record(const recordio::Row& row) {
  if (row.size() != kColumnCount) {
    throw std::runtime_error("fleet: survey record row has wrong column count");
  }
  InstanceRecord record;
  record.index = static_cast<int>(std::get<std::uint64_t>(row[kIndex]));
  record.seed = std::get<std::uint64_t>(row[kSeed]);
  record.success = std::get<std::uint64_t>(row[kSuccess]) != 0;
  record.message = std::get<std::string>(row[kMessage]);
  record.map.rows = static_cast<int>(std::get<std::uint64_t>(row[kMapRows]));
  record.map.cols = static_cast<int>(std::get<std::uint64_t>(row[kMapCols]));
  record.map.ppin = std::get<std::uint64_t>(row[kPpin]);

  const auto& positions = std::get<std::vector<std::int64_t>>(row[kChaPositions]);
  if (positions.size() % 2 != 0) {
    throw std::runtime_error("fleet: survey record has an odd CHA position list");
  }
  record.map.cha_position.reserve(positions.size() / 2);
  for (std::size_t i = 0; i + 1 < positions.size(); i += 2) {
    record.map.cha_position.push_back(mesh::Coord{
        static_cast<int>(positions[i]), static_cast<int>(positions[i + 1])});
  }
  const auto& os_map = std::get<std::vector<std::int64_t>>(row[kOsCoreToCha]);
  record.map.os_core_to_cha.assign(os_map.begin(), os_map.end());
  const auto& llc_only = std::get<std::vector<std::int64_t>>(row[kLlcOnlyChas]);
  record.map.llc_only_chas.assign(llc_only.begin(), llc_only.end());

  const auto& names = std::get<std::string>(row[kMetricNames]);
  const auto& values = std::get<std::vector<double>>(row[kMetricValues]);
  std::size_t value_index = 0;
  std::size_t start = 0;
  while (start < names.size()) {
    std::size_t end = names.find(';', start);
    if (end == std::string::npos) end = names.size();
    if (value_index >= values.size()) {
      throw std::runtime_error("fleet: survey record metric name/value mismatch");
    }
    record.metrics.emplace(names.substr(start, end - start), values[value_index]);
    ++value_index;
    start = end + 1;
  }
  if (value_index != values.size()) {
    throw std::runtime_error("fleet: survey record metric name/value mismatch");
  }
  return record;
}

SegmentPaths segment_paths(const std::string& stem) {
  return SegmentPaths{stem + ".rio", stem + ".manifest"};
}

int read_segment(const std::string& path, int first, int limit,
                 std::uint64_t base_seed,
                 const std::function<void(InstanceRecord)>& take,
                 recordio::RecordReader::Stats* stats) {
  recordio::RecordReader reader(path);
  reader.require_schema(survey_record_schema());
  recordio::Row row;
  int rows = 0;
  while (reader.next(&row)) {
    if (rows == limit) {
      throw std::runtime_error("fleet: " + path + " holds more than the " +
                               std::to_string(limit) + " instances expected from it");
    }
    InstanceRecord record = decode_survey_record(row);
    const int index = first + rows;
    if (record.index != index ||
        record.seed != base_seed + static_cast<std::uint64_t>(index)) {
      throw std::runtime_error(
          "fleet: " + path + " holds instance " + std::to_string(record.index) +
          " (seed " + fmt_hex(record.seed) + ") where instance " +
          std::to_string(index) + " (seed " +
          fmt_hex(base_seed + static_cast<std::uint64_t>(index)) +
          ") was expected: the segment does not fit this survey");
    }
    ++rows;
    take(std::move(record));
  }
  if (stats != nullptr) *stats = reader.stats();
  return rows;
}

void write_manifest(const std::string& path, const SegmentManifest& manifest) {
  const std::string staging = path + ".tmp";
  {
    std::ofstream out(staging, std::ios::binary | std::ios::trunc);
    out << format_manifest(manifest);
    out.flush();
    if (!out.good()) {
      throw std::runtime_error("fleet: cannot write manifest: " + staging);
    }
  }
  std::filesystem::rename(staging, path);
}

SegmentManifest read_manifest(const std::string& path, const SegmentManifest& identity) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("fleet: missing segment manifest: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  std::vector<std::string> lines;
  lines.reserve(8);  // a committed manifest
  std::istringstream line_stream(text);
  for (std::string line; std::getline(line_stream, line);) lines.push_back(line);
  if (lines.empty() || lines[0] != kManifestMagic) {
    throw std::runtime_error("fleet: not a segment manifest (expected \"" +
                             std::string(kManifestMagic) + "\"): " + path);
  }
  // The value after `key ` on line i, or "" when the line is not there.
  const auto value = [&lines](std::size_t i, const std::string& key) {
    if (i >= lines.size() || lines[i].rfind(key + ' ', 0) != 0) return std::string();
    return lines[i].substr(key.size() + 1);
  };
  SegmentManifest manifest;
  manifest.model = value(1, "model");
  manifest.base_seed = std::strtoull(value(2, "base_seed").c_str(), nullptr, 16);
  manifest.fleet_seed = std::strtoull(value(3, "fleet_seed").c_str(), nullptr, 16);
  manifest.committed = lines.size() > 4;
  if (manifest.committed) {
    std::istringstream(value(4, "range")) >> manifest.first >> manifest.count;
    std::istringstream(value(5, "completed")) >> manifest.completed;
    std::istringstream(value(6, "failed")) >> manifest.failed;
  }
  // The parse above is lenient; the writer is deterministic, so a card
  // that does not re-serialize to its own bytes is malformed.
  if (format_manifest(manifest) != text) {
    throw std::runtime_error("fleet: malformed segment manifest: " + path);
  }
  const auto check = [&path](const char* field, const std::string& got,
                             const std::string& want) {
    if (got != want) {
      throw std::runtime_error("fleet: manifest " + path +
                               " belongs to a different survey (" + field + " " + got +
                               ", expected " + want + ")");
    }
  };
  check("model", manifest.model, identity.model);
  check("base_seed", fmt_hex(manifest.base_seed), fmt_hex(identity.base_seed));
  check("fleet_seed", fmt_hex(manifest.fleet_seed), fmt_hex(identity.fleet_seed));
  return manifest;
}

OrderedSink::OrderedSink(int first_index, Emit emit)
    : emit_(std::move(emit)), next_index_(first_index) {}

void OrderedSink::deliver(InstanceRecord record) {
  util::LockGuard lock(mutex_);
  heap_.push(std::move(record));
  if (heap_.size() > max_buffered_) max_buffered_ = heap_.size();
  while (!heap_.empty() && heap_.top().index == next_index_) {
    emit_(heap_.top());
    heap_.pop();
    ++next_index_;
  }
}

std::size_t OrderedSink::pending() const {
  util::LockGuard lock(mutex_);
  return heap_.size();
}

std::size_t OrderedSink::max_buffered() const {
  util::LockGuard lock(mutex_);
  return max_buffered_;
}

}  // namespace corelocate::fleet
