#include "tracer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {
namespace {

constexpr int kLayers = TraceTotals::kLayers;

std::atomic<bool> g_on{false};
std::atomic<std::uint64_t> g_round{0};
thread_local Span* t_top = nullptr;
thread_local bool t_poll_thread = false;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One thread's totals.  Only the owning thread writes (load + store, no
// read-modify-write); SnapshotTotals reads them between passes.
struct Cell {
  std::atomic<std::int64_t> self_ns{0};
  std::atomic<std::int64_t> total_ns{0};
  std::atomic<std::int64_t> calls{0};
};

void Bump(std::atomic<std::int64_t>& a, std::int64_t v) {
  a.store(a.load(std::memory_order_relaxed) + v, std::memory_order_relaxed);
}

void Fold(std::array<LayerTotals, kLayers>& into,
          const std::array<Cell, kLayers>& from) {
  for (int i = 0; i < kLayers; ++i) {
    into[i].self_ns += from[i].self_ns.load(std::memory_order_relaxed);
    into[i].total_ns += from[i].total_ns.load(std::memory_order_relaxed);
    into[i].calls += from[i].calls.load(std::memory_order_relaxed);
  }
}

void Accumulate(LayerTotals& to, const LayerTotals& from, int sign) {
  to.self_ns += sign * from.self_ns;
  to.total_ns += sign * from.total_ns;
  to.calls += sign * from.calls;
}

struct ThreadTotals;

std::mutex g_mu;
std::vector<ThreadTotals*> g_threads;  // guarded by g_mu
TraceTotals g_retired;                 // exited threads; guarded by g_mu

struct ThreadTotals {
  std::array<Cell, kLayers> poll;
  std::array<Cell, kLayers> other;

  ThreadTotals() {
    std::lock_guard lk(g_mu);
    g_threads.push_back(this);
  }
  ~ThreadTotals() {
    std::lock_guard lk(g_mu);
    Fold(g_retired.poll, poll);
    Fold(g_retired.other, other);
    g_threads.erase(std::find(g_threads.begin(), g_threads.end(), this));
  }
  ThreadTotals(const ThreadTotals&) = delete;
  ThreadTotals& operator=(const ThreadTotals&) = delete;
};

ThreadTotals& Mine() {
  thread_local ThreadTotals totals;
  return totals;
}

void Add(Layer layer, std::int64_t self_ns, std::int64_t total_ns,
         std::int64_t calls) {
  Cell& c = (t_poll_thread ? Mine().poll : Mine().other)[static_cast<int>(
      layer)];
  Bump(c.self_ns, self_ns);
  Bump(c.total_ns, total_ns);
  Bump(c.calls, calls);
}

// Per-jframe and per-record layers are aggregated only; the rest are also
// kept span by span.
bool Coarse(Layer l) {
  return l == Layer::kMonitorCtor || l == Layer::kPollOnce ||
         l == Layer::kMergePoll || l == Layer::kMergeCall ||
         l == Layer::kBootstrap || l == Layer::kLogSync ||
         l == Layer::kCheckpoint;
}

struct SpanRecord {
  std::uint64_t round;
  Layer layer;
  std::int64_t start_ns;
  std::int64_t dur_ns;
  std::int64_t self_ns;
};
std::vector<SpanRecord> g_records;  // written by the poll thread only

// Registry readings that MergeSession::Poll's span folds in as children:
// the poll thread's wait for shard workers, and the analysis consumers'
// busy time (the bus runs the consumers inside the merge's sink).
std::int64_t RoundWaitUs() {
  static jig::obs::Histogram& h =
      jig::obs::MetricRegistry::Global().GetHistogram(
          "jig_shard_round_wait_us", jig::obs::LatencyBucketsUs());
  return h.Sum();
}

std::int64_t BusBusyNs() {
  static const std::array<jig::obs::Counter*, 3> counters = [] {
    auto& r = jig::obs::MetricRegistry::Global();
    return std::array<jig::obs::Counter*, 3>{
        &r.GetCounter("jig_bus_consumer_busy_ns_total", "",
                      "consumer=\"link\""),
        &r.GetCounter("jig_bus_consumer_busy_ns_total", "",
                      "consumer=\"interference\""),
        &r.GetCounter("jig_bus_consumer_busy_ns_total", "",
                      "consumer=\"tcp-loss\"")};
  }();
  std::int64_t total = 0;
  for (const jig::obs::Counter* c : counters) {
    total += static_cast<std::int64_t>(c->Value());
  }
  return total;
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kMonitorCtor: return "monitor_ctor";
    case Layer::kPollOnce: return "poll_once";
    case Layer::kMergePoll: return "merge_poll";
    case Layer::kMergeCall: return "merge_call";
    case Layer::kBootstrap: return "bootstrap";
    case Layer::kDecode: return "decode";
    case Layer::kRoundWait: return "round_wait";
    case Layer::kLink: return "link";
    case Layer::kInterference: return "interference";
    case Layer::kTcpLoss: return "tcp_loss";
    case Layer::kLogAppend: return "log_append";
    case Layer::kLogSync: return "log_sync";
    case Layer::kCheckpoint: return "checkpoint";
    case Layer::kSink: return "sink";
    case Layer::kCount: break;
  }
  return "?";
}

const char* LayerModule(Layer layer) {
  switch (layer) {
    case Layer::kDecode: return "trace";
    case Layer::kBootstrap: return "bootstrap";
    case Layer::kMergePoll:
    case Layer::kMergeCall:
    case Layer::kRoundWait: return "merge";
    case Layer::kLink:
    case Layer::kInterference:
    case Layer::kTcpLoss: return "analysis";
    case Layer::kMonitorCtor:
    case Layer::kPollOnce:
    case Layer::kLogAppend:
    case Layer::kLogSync:
    case Layer::kCheckpoint: return "service";
    case Layer::kSink: return "bench";
    case Layer::kCount: break;
  }
  return "?";
}

std::int64_t TraceTotals::PollSelfSum() const {
  std::int64_t sum = 0;
  for (const LayerTotals& t : poll) sum += t.self_ns;
  return sum;
}

TraceTotals& TraceTotals::operator+=(const TraceTotals& o) {
  for (int i = 0; i < kLayers; ++i) {
    Accumulate(poll[i], o.poll[i], 1);
    Accumulate(other[i], o.other[i], 1);
  }
  return *this;
}

TraceTotals TraceTotals::operator-(const TraceTotals& base) const {
  TraceTotals d = *this;
  for (int i = 0; i < kLayers; ++i) {
    Accumulate(d.poll[i], base.poll[i], -1);
    Accumulate(d.other[i], base.other[i], -1);
  }
  return d;
}

bool TracingOn() { return g_on.load(std::memory_order_relaxed); }
void SetTracing(bool on) { g_on.store(on, std::memory_order_relaxed); }
void MarkPollThread() { t_poll_thread = true; }
void SetRound(std::uint64_t round) {
  g_round.store(round, std::memory_order_relaxed);
}

TraceTotals SnapshotTotals() {
  std::lock_guard lk(g_mu);
  TraceTotals t = g_retired;
  for (const ThreadTotals* th : g_threads) {
    Fold(t.poll, th->poll);
    Fold(t.other, th->other);
  }
  return t;
}

void WriteSpans(const std::filesystem::path& path) {
  std::FILE* f = std::fopen(path.string().c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path.string());
  std::int64_t t0 = 0;
  for (const SpanRecord& r : g_records) {
    if (t0 == 0 || r.start_ns < t0) t0 = r.start_ns;
  }
  std::fprintf(f, "round\tlayer\tstart_us\tdur_us\tself_us\n");
  for (const SpanRecord& r : g_records) {
    std::fprintf(f, "%llu\t%s\t%.3f\t%.3f\t%.3f\n",
                 static_cast<unsigned long long>(r.round), LayerName(r.layer),
                 (r.start_ns - t0) / 1e3, r.dur_ns / 1e3, r.self_ns / 1e3);
  }
  std::fclose(f);
}

Span::Span(Layer layer) : layer_(layer) {
  if (!TracingOn()) return;
  active_ = true;
  parent_ = t_top;
  t_top = this;
  if (layer_ == Layer::kMergePoll) {
    wait0_us_ = RoundWaitUs();
    busy0_ns_ = BusBusyNs();
  }
  start_ = NowNs();
}

Span::~Span() {
  if (active_) Close();
}

void Span::Close() {
  const std::int64_t dur = NowNs() - start_;
  if (layer_ == Layer::kMergePoll) {
    const std::int64_t wait = (RoundWaitUs() - wait0_us_) * 1000;
    const std::int64_t link =
        std::max<std::int64_t>(0, BusBusyNs() - busy0_ns_ - analysis_ns_);
    Add(Layer::kRoundWait, wait, wait, 0);
    Add(Layer::kLink, link, link, 0);
    child_ns_ += wait + link;
  }
  const std::int64_t self = dur - child_ns_;
  Add(layer_, self, dur, 1);
  if (parent_ != nullptr) {
    parent_->child_ns_ += dur;
    if (layer_ == Layer::kInterference || layer_ == Layer::kTcpLoss) {
      parent_->analysis_ns_ += dur;
    }
  }
  t_top = parent_;
  if (t_poll_thread && Coarse(layer_)) {
    g_records.push_back({g_round.load(std::memory_order_relaxed), layer_,
                         start_, dur, self});
  }
}

}  // namespace perfbench
