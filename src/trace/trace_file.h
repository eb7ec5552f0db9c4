// Compressed per-radio trace files with a metadata index.
//
// jigdump writes hour-long (data, metadata) file pairs per radio, with the
// data LZO-compressed in blocks and the metadata indexing those blocks for
// random access (Section 3.3).  We reproduce the shape in a single file:
//
//   [magic "JIGT"][u32 version]
//   [u32 header_len][header]
//   repeated blocks: [u32 packed_len][LZ-compressed records]
//   [u32 0]  (terminator)
//   index: per block {file_offset, first_ts, last_ts, record_count}
//   [u64 index_offset][magic "JIGX"]
//
// The index allows seeking to a time range without decompressing the whole
// file — TraceFileReader::SeekToTimestamp uses it, as do the bootstrap
// passes which only need the first second of data.
#pragma once

#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/record.h"

namespace jig {

// On-disk structure constants, shared with the tail-follow reader.
inline constexpr char kTraceDataMagic[4] = {'J', 'I', 'G', 'T'};
inline constexpr char kTraceIndexMagic[4] = {'J', 'I', 'G', 'X'};
inline constexpr std::uint32_t kTraceVersion = 1;
// Sanity bound on a compressed block: blocks are ~512 records of a few
// hundred bytes each, so anything past this is a garbage length field, not
// a block that has not finished writing.
inline constexpr std::uint32_t kMaxPackedBlockLen = 1u << 26;

// Error taxonomy for trace parsing.  The distinction matters to live
// ingest: a truncated structure may simply not be written yet, while
// corruption can never be fixed by waiting.
class TraceError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};
// The file ends in the middle of a structure (header, block, index
// trailer): either a write still in progress or a lost tail.  Tail-follow
// readers treat this as "no data yet"; batch readers surface it so the
// caller knows the trace is unfinished rather than garbage.
class TraceTruncatedError : public TraceError {
  using TraceError::TraceError;
};
// The bytes present cannot be a trace (bad magic, impossible lengths,
// malformed compression): retrying cannot help.
class TraceCorruptError : public TraceError {
  using TraceError::TraceError;
};

struct BlockIndexEntry {
  std::uint64_t file_offset = 0;
  LocalMicros first_timestamp = 0;
  LocalMicros last_timestamp = 0;
  std::uint32_t record_count = 0;
};

class TraceFileWriter {
 public:
  TraceFileWriter(const std::filesystem::path& path, const TraceHeader& header,
                  std::size_t records_per_block = 512);
  ~TraceFileWriter();

  TraceFileWriter(const TraceFileWriter&) = delete;
  TraceFileWriter& operator=(const TraceFileWriter&) = delete;

  void Append(const CaptureRecord& rec);
  // Live-writer publication point: cuts the pending records into a block
  // (blocks may therefore be shorter than records_per_block) and flushes
  // the stdio buffer, so a concurrent TailFileTrace sees everything
  // appended so far.  No-op when nothing is pending.
  void Sync();
  // Flushes any partial block and writes the index trailer — the explicit
  // finalize marker ([u32 0] terminator) tail readers watch for.  Called by
  // the destructor if not called explicitly; explicit callers get
  // exceptions.
  void Finish();

  std::uint64_t records_written() const { return records_written_; }

 private:
  void FlushBlock();

  std::FILE* file_ = nullptr;
  std::size_t records_per_block_;
  Bytes pending_;               // serialized records awaiting compression
  std::uint32_t pending_count_ = 0;
  LocalMicros block_first_ts_ = 0;
  LocalMicros prev_ts_ = 0;  // delta-coding state, reset per block
  std::vector<BlockIndexEntry> index_;
  std::uint64_t records_written_ = 0;
  bool finished_ = false;
};

class TraceFileReader {
 public:
  explicit TraceFileReader(const std::filesystem::path& path);
  ~TraceFileReader();

  TraceFileReader(const TraceFileReader&) = delete;
  TraceFileReader& operator=(const TraceFileReader&) = delete;

  const TraceHeader& header() const { return header_; }
  const std::vector<BlockIndexEntry>& index() const { return index_; }
  std::uint64_t TotalRecords() const;

  // Sequential record access; nullopt at end of trace.
  std::optional<CaptureRecord> Next();
  // Zero-copy variant: the pointer is valid until the next
  // Next/NextRef/Seek/Rewind call on this reader.
  const CaptureRecord* NextRef();

  // Positions the cursor at the first block whose last timestamp is >= ts.
  void SeekToTimestamp(LocalMicros ts);
  void Rewind();

 private:
  void LoadBlock(std::size_t block_idx);

  std::FILE* file_ = nullptr;
  TraceHeader header_;
  std::vector<BlockIndexEntry> index_;
  std::size_t current_block_ = 0;
  std::vector<CaptureRecord> block_records_;
  std::size_t block_pos_ = 0;
};

}  // namespace jig
