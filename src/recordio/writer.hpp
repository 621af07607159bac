#pragma once
// Append-only recordio writer with bounded buffering.
//
// Rows are encoded into per-column buffers as they arrive; when the
// buffered row count or payload size crosses the block policy, the
// buffers flush as one CRC-checked block. Memory is bounded by the
// block policy — the writer never holds more than one block, whatever
// the record count, which is what lets a million-instance survey
// stream through it flat in RSS.
//
// Durability: flush() closes the current block (if any rows are
// buffered) and flushes the stream, so a caller that needs per-record
// durability (a checkpointed survey or shard segment) calls flush()
// after every append_row at the cost of one block per record. Callers
// that only need file-level durability (a --rio export, a merge) let
// the block policy batch rows.
//
// Determinism: the byte stream is a pure function of (schema, rows,
// block policy). corelint registers RecordWriter as a determinism-taint
// sink — wall-clock values must never reach append_row.

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "recordio/schema.hpp"

namespace corelocate::recordio {

struct WriterOptions {
  /// A block closes when it holds this many rows...
  std::size_t rows_per_block = 4096;
  /// ...or when its encoded payload first crosses this many bytes.
  std::size_t block_payload_limit = 1u << 20;
  /// Append to an existing container instead of truncating. The existing
  /// header must carry the same schema; a torn trailing block (from a
  /// crashed writer) is truncated away before new blocks are appended.
  bool append = false;
};

class RecordWriter {
 public:
  struct Stats {
    std::uint64_t rows = 0;           ///< rows appended by this writer
    std::uint64_t blocks = 0;         ///< blocks flushed by this writer
    std::uint64_t bytes_written = 0;  ///< bytes written by this writer
  };

  /// Opens `path` and writes the container header (or validates it in
  /// append mode). Throws std::invalid_argument on a bad schema and
  /// std::runtime_error on I/O failure or an append-mode mismatch.
  RecordWriter(std::string path, Schema schema, WriterOptions options = {});

  /// Flushes and closes; errors are swallowed (call close() to observe
  /// them).
  ~RecordWriter();

  RecordWriter(const RecordWriter&) = delete;
  RecordWriter& operator=(const RecordWriter&) = delete;

  /// Buffers one record. The row's cells must match the schema's column
  /// count and types (std::invalid_argument otherwise). Flushes a block
  /// when the block policy says so. Throws std::runtime_error on I/O
  /// failure.
  void append_row(const Row& row);

  /// Closes the current block (if any rows are buffered) and flushes
  /// the stream to the OS.
  void flush();

  /// flush() + close the stream. Idempotent; append_row after close
  /// throws std::logic_error.
  void close();

  const Schema& schema() const noexcept { return schema_; }
  const std::string& path() const noexcept { return path_; }
  const Stats& stats() const noexcept { return stats_; }

 private:
  void write_header();
  void flush_block();
  void write_raw(const std::string& bytes);
  void encode_cell(std::size_t column, const Value& value);

  std::string path_;
  Schema schema_;
  WriterOptions options_;
  std::ofstream out_;
  Stats stats_;
  bool closed_ = false;

  std::vector<std::string> column_buffers_;   ///< one per column, current block
  std::vector<std::uint64_t> delta_previous_; ///< kDeltaU64 state, reset per block
  std::size_t rows_in_block_ = 0;
  std::size_t buffered_payload_bytes_ = 0;
};

}  // namespace corelocate::recordio
