// Span tracer of the traced run.  Spans are opened by the benchmark around
// its calls into the library and by the link-time interposers in wraps.cc;
// nothing here reaches inside src/.
//
// A span's self time is its duration minus the time covered by the spans
// it encloses.  Totals are kept per layer, split into the thread that runs
// the pass (the poll thread, which is the critical path) and every other
// thread (shard workers).  Poll-thread spans of the coarse layers are also
// kept one by one, with the round (PollOnce index) they belong to, and
// written out by WriteSpans at exit.
#pragma once

#include <array>
#include <cstdint>
#include <filesystem>

namespace perfbench {

enum class Layer : int {
  kMonitorCtor,   // DeploymentMonitor constructor
  kPollOnce,      // DeploymentMonitor::PollOnce
  kMergePoll,     // MergeSession::Poll
  kMergeCall,     // MergeTracesStreaming (merge-1t)
  kBootstrap,     // BootstrapSynchronize
  kDecode,        // RecordStream::NextRef / Next / Rewind
  kRoundWait,     // poll thread waiting for shard workers (registry)
  kLink,          // link consumer, from the bus busy-ns counters
  kInterference,  // InterferenceTracker calls
  kTcpLoss,       // TransportTracker::OnExchange
  kLogAppend,     // SpillSegmentWriter::Append on the output log
  kLogSync,       // SpillSegmentWriter::Sync / Finish on the output log
  kCheckpoint,    // SaveCheckpoint's file replace
  kSink,          // the benchmark's own counting sink (merge-1t)
  kCount
};

const char* LayerName(Layer layer);
// Module of src/ the layer belongs to (trace, bootstrap, merge, ...).
const char* LayerModule(Layer layer);

struct LayerTotals {
  std::int64_t self_ns = 0;
  std::int64_t total_ns = 0;
  std::int64_t calls = 0;
};

struct TraceTotals {
  static constexpr int kLayers = static_cast<int>(Layer::kCount);
  std::array<LayerTotals, kLayers> poll;   // the pass's own thread
  std::array<LayerTotals, kLayers> other;  // every other thread

  const LayerTotals& Poll(Layer l) const {
    return poll[static_cast<int>(l)];
  }
  const LayerTotals& Other(Layer l) const {
    return other[static_cast<int>(l)];
  }
  std::int64_t PollSelfSum() const;
  TraceTotals& operator+=(const TraceTotals& o);
  TraceTotals operator-(const TraceTotals& base) const;
};

// Off by default; spans opened while off cost one relaxed load.
bool TracingOn();
void SetTracing(bool on);
// Declares the calling thread the poll thread.
void MarkPollThread();
// Tags the coarse spans that follow with a round id.
void SetRound(std::uint64_t round);
// Sums every thread's totals.  Call while no span is open on another
// thread (between passes).
TraceTotals SnapshotTotals();
// Writes the recorded coarse spans as TSV.
void WriteSpans(const std::filesystem::path& path);

class Span {
 public:
  explicit Span(Layer layer);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void Close();

  Layer layer_;
  bool active_ = false;
  std::int64_t start_ = 0;
  std::int64_t child_ns_ = 0;     // time covered by enclosed spans
  std::int64_t analysis_ns_ = 0;  // enclosed interference / tcp-loss spans
  std::int64_t wait0_us_ = 0;     // registry readings at open (kMergePoll)
  std::int64_t busy0_ns_ = 0;
  Span* parent_ = nullptr;
};

}  // namespace perfbench
