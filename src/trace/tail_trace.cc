#include "trace/tail_trace.h"

#include <cstring>

#include "obs/metrics.h"

namespace jig {
namespace {

// Reads exactly n bytes at `offset`; returns false (without throwing) when
// the file does not hold that many bytes yet.
bool ReadAt(std::FILE* f, std::uint64_t offset, void* data, std::size_t n) {
  if (std::fseek(f, static_cast<long>(offset), SEEK_SET) != 0) return false;
  std::clearerr(f);
  if (std::fread(data, 1, n, f) != n) {
    if (std::feof(f)) return false;
    throw TraceError("tail trace: read error");
  }
  return true;
}

std::uint32_t DecodeU32(const std::uint8_t* b) {
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

struct TailMetrics {
  obs::Counter& bytes = obs::MetricRegistry::Global().GetCounter(
      "jig_trace_bytes_read_total", "Compressed trace bytes read from disk");
  obs::Counter& blocks = obs::MetricRegistry::Global().GetCounter(
      "jig_trace_blocks_decoded_total", "Trace blocks decompressed");
  obs::Counter& records = obs::MetricRegistry::Global().GetCounter(
      "jig_trace_records_decoded_total", "Capture records decoded");
  obs::Counter& repolls = obs::MetricRegistry::Global().GetCounter(
      "jig_trace_repolls_total",
      "Tail polls that found no new complete block");
  obs::Counter& truncation_retries = obs::MetricRegistry::Global().GetCounter(
      "jig_trace_truncation_retries_total",
      "Tail polls that saw a half-written block body and backed off");
};

TailMetrics& Metrics() {
  static TailMetrics* m = new TailMetrics();
  return *m;
}

}  // namespace

std::unique_ptr<TailFileTrace> TailFileTrace::TryOpen(
    const std::filesystem::path& path) {
  std::FILE* file = std::fopen(path.string().c_str(), "rb");
  if (!file) {
    throw std::runtime_error("cannot open trace for tailing: " +
                             path.string());
  }
  struct Closer {
    std::FILE* f;
    ~Closer() {
      if (f) std::fclose(f);
    }
  } closer{file};

  std::uint8_t fixed[12];  // magic + version + header_len
  if (!ReadAt(file, 0, fixed, sizeof fixed)) return nullptr;
  if (std::memcmp(fixed, kTraceDataMagic, 4) != 0) {
    throw TraceCorruptError("bad trace magic: " + path.string());
  }
  if (DecodeU32(fixed + 4) != kTraceVersion) {
    throw TraceCorruptError("bad trace version: " + path.string());
  }
  const std::uint32_t hdr_len = DecodeU32(fixed + 8);
  if (hdr_len > kMaxPackedBlockLen) {
    throw TraceCorruptError("garbage header length: " + path.string());
  }
  Bytes hdr(hdr_len);
  if (!ReadAt(file, sizeof fixed, hdr.data(), hdr_len)) return nullptr;
  TraceHeader header;
  try {
    ByteReader hr(hdr);
    header = DeserializeHeader(hr);
  } catch (const std::exception& e) {
    throw TraceCorruptError(std::string("malformed trace header: ") +
                            e.what());
  }
  closer.f = nullptr;  // ownership moves to the stream
  return std::unique_ptr<TailFileTrace>(new TailFileTrace(
      file, header, sizeof fixed + hdr_len, path));
}

TailFileTrace::TailFileTrace(std::FILE* file, TraceHeader header,
                             std::uint64_t data_start,
                             std::filesystem::path path)
    : file_(file),
      header_(header),
      path_(std::move(path)),
      data_start_(data_start),
      next_block_offset_(data_start) {}

TailFileTrace::~TailFileTrace() {
  if (file_) std::fclose(file_);
}

bool TailFileTrace::TryLoadNextBlock() {
  // After a Rewind() past the latched marker, replay stops exactly where
  // the marker was seen — re-reading it would be wasted IO, and the latch
  // itself must never clear.
  if (end_marker_seen_ && next_block_offset_ >= end_marker_offset_) {
    return false;
  }
  std::uint8_t len_buf[4];
  if (!ReadAt(file_, next_block_offset_, len_buf, 4)) {
    Metrics().repolls.Add(1);
    return false;
  }
  const std::uint32_t packed_len = DecodeU32(len_buf);
  if (packed_len == 0) {
    // The writer's finalize marker: no block will ever follow.
    end_marker_seen_ = true;
    end_marker_offset_ = next_block_offset_;
    return false;
  }
  if (packed_len > kMaxPackedBlockLen) {
    throw TraceCorruptError("garbage block length at offset " +
                            std::to_string(next_block_offset_) + ": " +
                            path_.string());
  }
  Bytes packed(packed_len);
  if (!ReadAt(file_, next_block_offset_ + 4, packed.data(), packed_len)) {
    // The block body is still being written; re-poll from the boundary.
    Metrics().truncation_retries.Add(1);
    return false;
  }
  block_records_.clear();
  block_pos_ = 0;
  try {
    DecodeBlock(packed, std::nullopt, block_records_);
  } catch (const std::exception& e) {
    // The length word said the block is complete, so a parse failure is
    // corruption — waiting cannot repair it.
    throw TraceCorruptError("malformed block at offset " +
                            std::to_string(next_block_offset_) + " (" +
                            e.what() + "): " + path_.string());
  }
  TailMetrics& m = Metrics();
  m.bytes.Add(4 + packed_len);
  m.blocks.Add(1);
  m.records.Add(block_records_.size());
  next_block_offset_ += 4 + packed_len;
  return true;
}

std::optional<CaptureRecord> TailFileTrace::Next() {
  const CaptureRecord* rec = NextRef();
  if (!rec) return std::nullopt;
  return *rec;
}

const CaptureRecord* TailFileTrace::NextRef() {
  while (block_pos_ >= block_records_.size()) {
    if (!TryLoadNextBlock()) return nullptr;
  }
  return &block_records_[block_pos_++];
}

void TailFileTrace::Rewind() {
  next_block_offset_ = data_start_;
  block_records_.clear();
  block_pos_ = 0;
  // Deliberately leaves end_marker_seen_ untouched: finalize is a latch.
  // Clearing it here let a re-poll consumer observe Finalized() flapping
  // true -> false after a bootstrap rewind, and a socket/wing consumer
  // that tears down on the first true would then hang forever waiting for
  // a marker it had already consumed.
}

}  // namespace jig
