#include "trace/trace_file.h"

#include <cstring>
#include <stdexcept>

#include "obs/metrics.h"
#include "trace/framed_io.h"
#include "util/compression.h"

namespace jig {
namespace {

struct TraceMetrics {
  obs::Counter& bytes = obs::MetricRegistry::Global().GetCounter(
      "jig_trace_bytes_read_total", "Compressed trace bytes read from disk");
  obs::Counter& blocks = obs::MetricRegistry::Global().GetCounter(
      "jig_trace_blocks_decoded_total", "Trace blocks decompressed");
  obs::Counter& records = obs::MetricRegistry::Global().GetCounter(
      "jig_trace_records_decoded_total", "Capture records decoded");
};

TraceMetrics& Metrics() {
  static TraceMetrics* m = new TraceMetrics();
  return *m;
}

// The shared framed-IO primitives (src/trace/framed_io.h) carry the
// short-read-at-EOF → TraceTruncatedError discipline: an unfinished write
// or a lost tail is a different failure from both clean EOF (the caller
// never asks past the index) and corruption.
constexpr const char* kWhat = "trace file";

void WriteAll(std::FILE* f, const void* data, std::size_t n) {
  framed_io::WriteAll(f, data, n, kWhat);
}
void WriteU32(std::FILE* f, std::uint32_t v) {
  framed_io::WriteU32(f, v, kWhat);
}
void WriteU64(std::FILE* f, std::uint64_t v) {
  framed_io::WriteU64(f, v, kWhat);
}
void ReadAll(std::FILE* f, void* data, std::size_t n) {
  framed_io::ReadAll(f, data, n, kWhat);
}
std::uint32_t ReadU32(std::FILE* f) { return framed_io::ReadU32(f, kWhat); }
std::uint64_t ReadU64(std::FILE* f) { return framed_io::ReadU64(f, kWhat); }

}  // namespace

TraceFileWriter::TraceFileWriter(const std::filesystem::path& path,
                                 const TraceHeader& header,
                                 std::size_t records_per_block)
    : records_per_block_(records_per_block) {
  file_ = std::fopen(path.string().c_str(), "wb");
  if (!file_) {
    throw std::runtime_error("cannot open trace for writing: " +
                             path.string());
  }
  WriteAll(file_, kTraceDataMagic, 4);
  WriteU32(file_, kTraceVersion);
  Bytes hdr;
  SerializeHeader(header, hdr);
  WriteU32(file_, static_cast<std::uint32_t>(hdr.size()));
  WriteAll(file_, hdr.data(), hdr.size());
  // Publish the header immediately: a tail reader can identify the radio
  // before the first block lands.
  std::fflush(file_);
}

TraceFileWriter::~TraceFileWriter() {
  try {
    if (!finished_) Finish();
  } catch (...) {
    // Destructor must not throw; an explicit Finish() reports errors.
  }
  if (file_) std::fclose(file_);
}

void TraceFileWriter::Append(const CaptureRecord& rec) {
  if (finished_) throw std::logic_error("Append after Finish");
  if (pending_count_ == 0) {
    block_first_ts_ = rec.timestamp;
    prev_ts_ = 0;  // each block is self-contained for seekability
  }
  SerializeRecord(rec, prev_ts_, pending_);
  prev_ts_ = rec.timestamp;
  ++pending_count_;
  ++records_written_;
  if (pending_count_ >= records_per_block_) FlushBlock();
}

void TraceFileWriter::FlushBlock() {
  if (pending_count_ == 0) return;
  const auto packed = LzCompress(pending_);
  BlockIndexEntry entry;
  entry.file_offset = static_cast<std::uint64_t>(std::ftell(file_));
  entry.first_timestamp = block_first_ts_;
  entry.last_timestamp = prev_ts_;
  entry.record_count = pending_count_;
  index_.push_back(entry);

  WriteU32(file_, static_cast<std::uint32_t>(packed.size()));
  WriteAll(file_, packed.data(), packed.size());
  pending_.clear();
  pending_count_ = 0;
}

void TraceFileWriter::Sync() {
  if (finished_) throw std::logic_error("Sync after Finish");
  FlushBlock();
  if (std::fflush(file_) != 0) throw std::runtime_error("trace file: flush");
}

void TraceFileWriter::Finish() {
  if (finished_) return;
  FlushBlock();
  WriteU32(file_, 0);  // terminator — the finalize marker tail readers see
  const auto index_offset = static_cast<std::uint64_t>(std::ftell(file_));
  WriteU32(file_, static_cast<std::uint32_t>(index_.size()));
  for (const auto& e : index_) {
    WriteU64(file_, e.file_offset);
    WriteU64(file_, static_cast<std::uint64_t>(e.first_timestamp));
    WriteU64(file_, static_cast<std::uint64_t>(e.last_timestamp));
    WriteU32(file_, e.record_count);
  }
  WriteU64(file_, index_offset);
  WriteAll(file_, kTraceIndexMagic, 4);
  if (std::fflush(file_) != 0) throw std::runtime_error("trace file: flush");
  finished_ = true;
}

TraceFileReader::TraceFileReader(const std::filesystem::path& path) {
  file_ = std::fopen(path.string().c_str(), "rb");
  if (!file_) {
    throw std::runtime_error("cannot open trace for reading: " +
                             path.string());
  }
  // Everything after the fopen sits inside one try so the FILE* is closed
  // on ANY parse failure — constructor throws skip the destructor, and a
  // fuzz loop over hostile inputs would otherwise exhaust descriptors.
  try {
    char magic[4];
    ReadAll(file_, magic, 4);
    if (std::memcmp(magic, kTraceDataMagic, 4) != 0) {
      throw TraceCorruptError("bad trace magic: " + path.string());
    }
    if (ReadU32(file_) != kTraceVersion) {
      throw TraceCorruptError("bad trace version: " + path.string());
    }
    const std::uint32_t hdr_len = ReadU32(file_);
    if (hdr_len > kMaxPackedBlockLen) {
      throw TraceCorruptError("garbage header length: " + path.string());
    }
    Bytes hdr(hdr_len);
    ReadAll(file_, hdr.data(), hdr_len);
    ByteReader hr(hdr);
    try {
      header_ = DeserializeHeader(hr);
    } catch (const std::exception& e) {
      // ByteReader underflow is a plain runtime_error; map it into the
      // taxonomy so callers only ever see TraceError for bad trace data.
      throw TraceCorruptError(std::string("malformed trace header: ") +
                              e.what());
    }

    // Load the index from the trailer.  A valid data magic but no trailer is
    // a trace whose writer has not finalized (or died): truncated, not
    // corrupt — a tail-follow reader could still consume it.
    if (std::fseek(file_, -12, SEEK_END) != 0) {
      throw TraceTruncatedError("no index trailer (unfinished trace): " +
                                path.string());
    }
    const long trailer_pos = std::ftell(file_);
    if (trailer_pos < 0) throw std::runtime_error("trace file: tell");
    const auto file_size = static_cast<std::uint64_t>(trailer_pos) + 12;
    const std::uint64_t index_offset = ReadU64(file_);
    ReadAll(file_, magic, 4);
    if (std::memcmp(magic, kTraceIndexMagic, 4) != 0) {
      throw TraceTruncatedError("no index trailer (unfinished trace): " +
                                path.string());
    }
    if (index_offset >= file_size ||
        std::fseek(file_, static_cast<long>(index_offset), SEEK_SET) != 0) {
      throw TraceCorruptError("trace file: bad index offset");
    }
    const std::uint32_t n_blocks = ReadU32(file_);
    // Each index entry occupies 28 bytes on disk (u64+u64+u64+u32); a count
    // the region between index_offset and the trailer cannot hold is corrupt,
    // and reserving for it unchecked would let a 4-byte field demand ~2 GB.
    constexpr std::uint64_t kIndexEntryBytes = 8 + 8 + 8 + 4;
    if (n_blocks > (file_size - index_offset) / kIndexEntryBytes) {
      throw TraceCorruptError("garbage index block count");
    }
    index_.reserve(n_blocks);
    for (std::uint32_t i = 0; i < n_blocks; ++i) {
      BlockIndexEntry e;
      e.file_offset = ReadU64(file_);
      e.first_timestamp = static_cast<LocalMicros>(ReadU64(file_));
      e.last_timestamp = static_cast<LocalMicros>(ReadU64(file_));
      e.record_count = ReadU32(file_);
      // Blocks live strictly before the index; an offset past it can only
      // come from a corrupt trailer.  Rejecting it here keeps LoadBlock's
      // u64→long seek cast in range.
      if (e.file_offset >= index_offset) {
        throw TraceCorruptError("index entry offset past index region");
      }
      index_.push_back(e);
    }
  } catch (...) {
    std::fclose(file_);
    file_ = nullptr;
    throw;
  }
  Rewind();
}

TraceFileReader::~TraceFileReader() {
  if (file_) std::fclose(file_);
}

std::uint64_t TraceFileReader::TotalRecords() const {
  std::uint64_t n = 0;
  for (const auto& e : index_) n += e.record_count;
  return n;
}

void TraceFileReader::LoadBlock(std::size_t block_idx) {
  block_records_.clear();
  block_pos_ = 0;
  if (block_idx >= index_.size()) return;
  const auto& entry = index_[block_idx];

  if (std::fseek(file_, static_cast<long>(entry.file_offset), SEEK_SET) != 0) {
    throw std::runtime_error("trace file: seek to block");
  }
  const std::uint32_t packed_len = ReadU32(file_);
  if (packed_len == 0 || packed_len > kMaxPackedBlockLen) {
    throw TraceCorruptError("garbage block length in indexed block");
  }
  Bytes packed(packed_len);
  // Distinctly reports a truncated trailing record: the index promises a
  // block the data region no longer (or does not yet) fully contains.
  ReadAll(file_, packed.data(), packed_len);
  try {
    DecodeBlock(packed, entry.record_count, block_records_);
  } catch (const LzTruncatedError& e) {
    // The block's bytes are all on disk (the length framing said so) but the
    // compressed stream inside stops short — a torn or unfinished write of
    // the payload itself.
    throw TraceTruncatedError(std::string("block payload truncated: ") +
                              e.what());
  } catch (const std::exception& e) {
    throw TraceCorruptError(std::string("malformed block contents: ") +
                            e.what());
  }
  TraceMetrics& m = Metrics();
  m.bytes.Add(4 + packed_len);
  m.blocks.Add(1);
  m.records.Add(block_records_.size());
}

std::optional<CaptureRecord> TraceFileReader::Next() {
  const CaptureRecord* rec = NextRef();
  if (!rec) return std::nullopt;
  return *rec;
}

const CaptureRecord* TraceFileReader::NextRef() {
  while (block_pos_ >= block_records_.size()) {
    if (current_block_ >= index_.size()) return nullptr;
    LoadBlock(current_block_++);
  }
  return &block_records_[block_pos_++];
}

void TraceFileReader::SeekToTimestamp(LocalMicros ts) {
  std::size_t idx = 0;
  while (idx < index_.size() && index_[idx].last_timestamp < ts) ++idx;
  current_block_ = idx;
  block_records_.clear();
  block_pos_ = 0;
  if (idx < index_.size()) {
    LoadBlock(current_block_++);
    while (block_pos_ < block_records_.size() &&
           block_records_[block_pos_].timestamp < ts) {
      ++block_pos_;
    }
  }
}

void TraceFileReader::Rewind() {
  current_block_ = 0;
  block_records_.clear();
  block_pos_ = 0;
}

}  // namespace jig
