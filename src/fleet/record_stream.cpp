#include "fleet/record_stream.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/map_store.hpp"

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
  kMap,  // the core::core_map_fields() columns
  kMetricNames = kMap + core::kCoreMapFieldCount,
  kMetricValues,
  kColumnCount,
};

/// read_segment prefixes these with "fleet: <path>: ".
[[noreturn]] void refuse(const std::string& what) {
  throw std::runtime_error("survey record " + what);
}

}  // namespace

const recordio::Schema& survey_record_schema() {
  static const recordio::Schema schema = [] {
    recordio::Schema columns = {
        {"index", FieldType::kDeltaU64},
        {"seed", FieldType::kDeltaU64},
        {"success", FieldType::kU64},
        {"message", FieldType::kBytes},
    };
    const recordio::Schema& map = core::core_map_fields();
    columns.insert(columns.end(), map.begin(), map.end());
    columns.push_back({"metric_names", FieldType::kBytes});
    columns.push_back({"metric_values", FieldType::kF64List});
    return columns;
  }();
  return schema;
}

recordio::Row encode_survey_record(const InstanceRecord& record) {
  if (record.index < 0) {
    throw std::invalid_argument("fleet: survey record index " +
                                std::to_string(record.index) + " is negative");
  }
  recordio::Row row(kColumnCount);
  row[kIndex] = static_cast<std::uint64_t>(record.index);
  row[kSeed] = record.seed;
  row[kSuccess] = static_cast<std::uint64_t>(record.success ? 1 : 0);
  row[kMessage] = record.message;
  core::encode_core_map(record.map, kMap, &row);

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
  if (row.size() != kColumnCount) refuse("row has wrong column count");
  InstanceRecord record;
  const std::uint64_t index = std::get<std::uint64_t>(row[kIndex]);
  if (index > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
    refuse("index " + std::to_string(index) + " exceeds INT_MAX");
  }
  record.index = static_cast<int>(index);
  record.seed = std::get<std::uint64_t>(row[kSeed]);
  const std::uint64_t success = std::get<std::uint64_t>(row[kSuccess]);
  if (success > 1) refuse("success is neither 0 nor 1");
  record.success = success == 1;
  record.message = std::get<std::string>(row[kMessage]);
  record.map = core::decode_core_map(row, kMap);

  // The inverse of the encoder's join: an empty name column is no
  // metrics; otherwise every ';'-separated name is non-empty and new.
  const auto& names = std::get<std::string>(row[kMetricNames]);
  const auto& values = std::get<std::vector<double>>(row[kMetricValues]);
  std::size_t count = 0;
  std::size_t start = 0;
  while (!names.empty() && start <= names.size()) {
    const std::size_t end = std::min(names.find(';', start), names.size());
    if (end == start) refuse("has an empty metric name");
    if (count == values.size()) refuse("metric name/value mismatch");
    const auto [it, inserted] =
        record.metrics.emplace(names.substr(start, end - start), values[count]);
    if (!inserted) refuse("repeats metric \"" + it->first + "\"");
    ++count;
    start = end + 1;
  }
  if (count != values.size()) refuse("metric name/value mismatch");
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
    InstanceRecord record;
    try {
      record = decode_survey_record(row);
    } catch (const std::runtime_error& error) {
      throw std::runtime_error("fleet: " + path + ": " + error.what());
    }
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
