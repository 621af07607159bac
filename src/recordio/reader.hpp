#pragma once
// Streaming recordio reader.
//
// Reads one CRC-validated block at a time — memory is bounded by the
// writer's block policy, never by the record count. Any framing or CRC
// failure throws std::runtime_error by default; a reader never
// misparses garbage into records. The append-mode writer opts into
// tolerate_trailing_corruption to treat a torn final block (crashed
// writer) as end-of-stream instead, and uses valid_prefix_bytes() to
// truncate the tail before resuming appends.

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "recordio/schema.hpp"

namespace corelocate::recordio {

struct ReaderOptions {
  /// Treat a torn or corrupt block at the *tail* of the stream as
  /// end-of-stream (truncated() reports it) instead of throwing. Blocks
  /// before the bad one are served normally.
  bool tolerate_trailing_corruption = false;
};

class RecordReader {
 public:
  struct Stats {
    std::uint64_t rows_read = 0;
    std::uint64_t blocks_read = 0;
    std::uint64_t crc_checks = 0;  ///< header + per-block CRC validations
    std::uint64_t bytes_read = 0;
  };

  /// Opens `path` and validates the container header (magic, version,
  /// schema section CRC, schema hash). Header damage always throws,
  /// whatever the options — tolerance only covers trailing blocks.
  explicit RecordReader(std::string path, ReaderOptions options = {});

  RecordReader(const RecordReader&) = delete;
  RecordReader& operator=(const RecordReader&) = delete;

  /// Decodes the next record into `*row`. Returns false at end of
  /// stream. Throws std::runtime_error on a truncated or corrupt block
  /// unless tolerate_trailing_corruption is set.
  bool next(Row* row);

  /// Throws std::runtime_error unless the container's schema equals
  /// `expected` (names and types, in order).
  void require_schema(const Schema& expected) const;

  const Schema& schema() const noexcept { return schema_; }
  const std::string& path() const noexcept { return path_; }

  /// True once a tolerated trailing-corruption stop happened.
  bool truncated() const noexcept { return truncated_; }

  /// Byte offset just past the last successfully validated block (or
  /// past the header if no block validated yet). Appending is safe at
  /// this offset after truncating whatever follows.
  std::uint64_t valid_prefix_bytes() const noexcept { return valid_prefix_bytes_; }

  const Stats& stats() const noexcept { return stats_; }

 private:
  void read_header();
  bool read_block();
  [[noreturn]] void fail(const std::string& what) const;

  std::string path_;
  ReaderOptions options_;
  std::ifstream in_;
  Schema schema_;
  Stats stats_;
  bool done_ = false;
  bool truncated_ = false;
  std::uint64_t valid_prefix_bytes_ = 0;

  std::vector<Row> block_rows_;  ///< decoded current block, index order
  std::size_t next_row_ = 0;
};

}  // namespace corelocate::recordio
