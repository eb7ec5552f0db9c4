#include "jigsaw/pipeline.h"

#include "jigsaw/spill.h"
#include "obs/stage_timer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <iterator>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

namespace jig {
namespace {

// The total order the merge emits: timestamp, then channel.  Distinct
// transmissions on one channel never tie below this key in practice, and
// when they do (identical integer microsecond), unifier emission order is
// preserved — FIFO in each shard's reorder buffer and queue, and the k-way
// merge never reorders within a shard.
using OrderKey = std::pair<UniversalMicros, std::uint8_t>;

OrderKey KeyOf(const JFrame& jf) {
  return {jf.timestamp, static_cast<std::uint8_t>(jf.channel)};
}

// Min-buffer that releases jframes once the emit frontier passes them.
//
// A binary heap over a flat vector, not the stable multimap it used to be:
// the map spent the hot path on node allocation.  An insertion sequence
// number breaks ties so equal keys still drain in FIFO order — exactly the
// multimap's upper-bound insertion behavior, which the byte-identity
// contract depends on.
class ReorderBuffer {
 public:
  ReorderBuffer(Micros horizon, std::function<void(JFrame&&)> sink)
      : horizon_(horizon), sink_(std::move(sink)) {}

  void Push(JFrame&& jf) {
    frontier_ = std::max(frontier_, jf.timestamp);
    buffer_.push_back(Entry{KeyOf(jf), next_seq_++, std::move(jf)});
    std::push_heap(buffer_.begin(), buffer_.end(), Later);
    Drain(frontier_ - horizon_);
  }

  void Flush() { Drain(std::numeric_limits<UniversalMicros>::max()); }

  std::size_t size() const { return buffer_.size(); }

 private:
  struct Entry {
    OrderKey key;
    std::uint64_t seq;  // insertion order: FIFO among equal keys
    JFrame jf;
  };

  // Heap comparator ("comes later"): the root is the least (key, seq).
  static bool Later(const Entry& a, const Entry& b) {
    return std::tie(b.key, b.seq) < std::tie(a.key, a.seq);
  }

  void Drain(UniversalMicros up_to) {
    while (!buffer_.empty() && buffer_.front().key.first <= up_to) {
      std::pop_heap(buffer_.begin(), buffer_.end(), Later);
      sink_(std::move(buffer_.back().jf));
      buffer_.pop_back();
    }
  }

  Micros horizon_;
  std::function<void(JFrame&&)> sink_;
  std::vector<Entry> buffer_;  // min-heap under Later
  std::uint64_t next_seq_ = 0;
  UniversalMicros frontier_ = std::numeric_limits<UniversalMicros>::min();
};

Micros EffectiveHorizon(const MergeConfig& config) {
  return std::max(config.reorder_horizon, config.unifier.search_window * 2);
}

// Jframes per unifier slice, and so per hand-off batch.
constexpr std::size_t kUnifyStep = 1024;

unsigned ResolveWorkers(unsigned threads, std::size_t shard_count) {
  unsigned n = threads;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
  }
  return static_cast<unsigned>(
      std::min<std::size_t>(n, std::max<std::size_t>(shard_count, 1)));
}

struct PipelineMetrics {
  obs::Counter& shard_events = obs::MetricRegistry::Global().GetCounter(
      "jig_shard_events_total",
      "Capture events consumed by shard unifiers");
  obs::Counter& shard_jframes = obs::MetricRegistry::Global().GetCounter(
      "jig_shard_jframes_total",
      "JFrames produced by shard unifiers");
  obs::Counter& rounds = obs::MetricRegistry::Global().GetCounter(
      "jig_shard_rounds_total",
      "Merge rounds: inline rounds with one worker, one pipelined worker "
      "run per Poll with a pool");
  obs::Gauge& queue_peak = obs::MetricRegistry::Global().GetGauge(
      "jig_shard_queue_peak",
      "High-watermark of any single shard queue depth");
  obs::Histogram& round_wait_us = obs::MetricRegistry::Global().GetHistogram(
      "jig_shard_round_wait_us", obs::LatencyBucketsUs(),
      "Poll-thread wait for shard workers: the merge gated on a shard whose "
      "worker is still running, and the end-of-poll park (pool mode only)");
  obs::Counter& emitted = obs::MetricRegistry::Global().GetCounter(
      "jig_merge_jframes_emitted_total",
      "JFrames emitted by the k-way merge");
  obs::Histogram& emit_lag_us = obs::MetricRegistry::Global().GetHistogram(
      "jig_merge_emit_lag_us", obs::LatencyBucketsUs(),
      "Capture-time distance between the newest unified jframe and each "
      "emission — the live-lag metric");
  obs::Counter& polls = obs::MetricRegistry::Global().GetCounter(
      "jig_merge_polls_total", "MergeSession::Poll calls");
  obs::Gauge& arena_pooled = obs::MetricRegistry::Global().GetGauge(
      "jig_arena_jframes_pooled",
      "JFrame carcasses currently parked in merge arena pools");
  obs::Counter& arena_recycled = obs::MetricRegistry::Global().GetCounter(
      "jig_arena_jframes_recycled_total",
      "JFrame carcasses recycled through merge arena pools");
};

PipelineMetrics& Metrics() {
  static PipelineMetrics* m = new PipelineMetrics();
  return *m;
}

}  // namespace

void ValidateMergeConfig(const MergeConfig& config) {
  if (config.unifier.search_window <= 0) {
    throw std::invalid_argument("MergeConfig: search_window must be > 0");
  }
  if (config.reorder_horizon <= config.unifier.search_window) {
    throw std::invalid_argument(
        "MergeConfig: reorder_horizon (" +
        std::to_string(config.reorder_horizon) +
        " us) must exceed unifier.search_window (" +
        std::to_string(config.unifier.search_window) +
        " us); a shorter horizon releases jframes before the group that "
        "precedes them can still form, producing an out-of-order stream");
  }
  if (!config.spill_dir.empty()) {
    if (config.spill_threshold == 0) {
      throw std::invalid_argument(
          "MergeConfig: spill_threshold must be > 0 when spill_dir is set");
    }
    if (config.spill_threshold > kMergeQueueWatermark) {
      throw std::invalid_argument(
          "MergeConfig: spill_threshold (" +
          std::to_string(config.spill_threshold) +
          ") exceeds kMergeQueueWatermark (" +
          std::to_string(kMergeQueueWatermark) +
          "); the queue throttles at the watermark, so a higher threshold "
          "could never engage the spill tier");
    }
  }
}

// ---------------------------------------------------------------------------
// MergeSession.
//
// The merge runs over channel shards: each shard's unifier feeds a reorder
// buffer whose output is published, one kUnifyStep slice at a time, as a
// batch on the shard's hand-off queue; the Poll() thread k-way merges the
// shards' batches as far as every shard has either a head or a final
// end-of-stream.
//
// With one worker the Poll() thread steps inline, in rounds, and only the
// shards the k-way merge is waiting on.  With more, the steps are
// pipelined: inside one Poll() each worker keeps stepping its shards —
// until a shard starves, exhausts, or has no room for another slice under
// kMergeQueueWatermark jframes in flight — while the Poll() thread merges,
// runs the sink and hands the spent batches back.  The two sides meet only at the per-shard mutex, once
// per batch: the Poll() thread blocks only when the merge is gated on a
// shard whose worker is still running.  The emitted order depends only on
// per-shard FIFO order and the (timestamp, channel) gate, never on timing.
// Poll() returns once every worker is parked, and between polls nothing
// runs: that is what makes the session resumable and its state (stats,
// retention, the traces' read positions) safe to read after Poll().

struct MergeSession::Impl {
  // The hand-off granule: one slice's reorder output.  Consumed batches go
  // back to the worker with their jframe carcasses still inside.
  using Batch = std::vector<JFrame>;

  struct LiveShard {
    std::size_t index = 0;

    // ---- worker side: the shard's worker while a poll runs, the Poll()
    // thread only inline or while every worker is parked.
    std::unique_ptr<ReorderBuffer> reorder;
    std::unique_ptr<Unifier> unifier;
    Batch out;  // reorder output of the slice being stepped
    // Arena: the unifier acquires; returned carcasses and spilled jframes
    // are recycled here, on the worker side only (see JFramePool).
    JFramePool pool;
    // Unifier stats already folded into the shard counters.  Tracked
    // against the unifier's totals, not per-step deltas, so the records its
    // constructor reads (one head per trace) are counted too.
    std::uint64_t events_published = 0;
    std::uint64_t jframes_published = 0;

    // ---- hand-off state, guarded by mu.
    std::mutex mu;
    std::condition_variable ready_cv;  // the Poll() thread waits for data
    std::deque<Batch> ready;   // published batches, FIFO
    std::vector<Batch> spent;  // consumed batches on their way back
    // Jframes published and not yet handed back: the ready batches plus
    // the Poll() thread's current batch.  The watermark caps this.
    std::size_t depth = 0;
    std::size_t reorder_held = 0;  // reorder-buffer size at the last publish
    bool exhausted = false;  // unifier done, reorder flushed, all published
    bool parked = false;     // the worker steps this shard no more this poll
    bool wants_room = false;         // worker stopped at the watermark
    bool consumer_waiting = false;   // Poll() thread blocked in ready_cv
    // Spill tier (null when MergeConfig::spill_dir is empty).  Every
    // SpillQueue call holds mu: the worker pushes and Syncs before it
    // unlocks, so the Poll() thread only ever replays published segments.
    // While `spilling` is latched, every un-replayed spilled jframe
    // precedes everything in `ready`, so the consumer replays the spill to
    // exhaustion before touching `ready` again — that invariant is the
    // whole ordering argument for spill-mode byte-identity.
    std::unique_ptr<SpillQueue> spill;
    bool spilling = false;

    // ---- consumer side: the Poll() thread only.
    Batch head;  // batch being merged; head[head_pos] is the shard's head
    std::size_t head_pos = 0;
    bool head_from_spill = false;  // replayed, so not counted in depth
    bool drained = false;          // exhausted and everything merged
  };

  // One pool thread.  `idle` and `wake_pending` are guarded by pool_mu.
  struct Worker {
    std::thread thread;
    std::condition_variable cv;
    bool idle = true;           // parked, waiting for a Wake
    bool wake_pending = false;  // woken while still running: go again
  };

  TraceSet& traces;
  MergeConfig config;
  std::function<void(JFrame&&)> sink;

  bool bootstrapped = false;
  bool done = false;
  bool failed = false;
  std::vector<bool> window_filled;  // per-trace bootstrap readiness cache
  // Per-trace bootstrap window end (NTP frame), latched off the first
  // record; the readiness scan keeps each stream's cursor across polls so
  // a poll only reads records that arrived since the last one.
  std::vector<std::optional<std::int64_t>> window_end;
  BootstrapResult bootstrap;
  UnifyStats final_stats;  // shard stats, latched before teardown
  std::uint64_t arena_recycled_published = 0;  // counter delta tracking

  std::vector<ChannelShard> shards;
  bool partitioned = false;
  std::vector<std::unique_ptr<LiveShard>> live;
  unsigned workers = 1;
  SpillBudget spill_budget;      // shared across shards (max_spill_bytes)
  std::uint64_t final_spilled = 0;  // lifetime total, latched at teardown

  // Pipelined worker pool (only when workers > 1).
  std::deque<Worker> pool;
  std::mutex pool_mu;
  std::condition_variable quiet_cv;  // the Poll() thread waits for busy == 0
  std::size_t busy = 0;              // workers not idle
  bool shutdown = false;
  std::exception_ptr worker_error;
  // Set on the first worker or sink failure: workers stop stepping and the
  // Poll() thread stops waiting on shards.  The session is failed for good.
  std::atomic<bool> aborted{false};
  // Set for the rest of a poll once the merge is gated on a starved shard:
  // only then may a shard's backlog engage the spill tier.
  std::atomic<bool> spill_gate{false};

  std::uint64_t emitted = 0;
  std::size_t peak_retained = 0;

  // Live-lag frontiers, universal-time domain.  capture_frontier is the
  // max timestamp any unifier has pushed into a reorder buffer (atomic
  // max — shard workers race); emit_frontier is the last emitted jframe's
  // timestamp (Poll thread only; atomic so live_lag_us() can read it from
  // another thread).  Their difference is how far the merge's output
  // trails the freshest unified capture data.
  static constexpr std::int64_t kNoFrontier =
      std::numeric_limits<std::int64_t>::min();
  std::atomic<std::int64_t> capture_frontier{kNoFrontier};
  std::atomic<std::int64_t> emit_frontier{kNoFrontier};

  void NoteCaptured(UniversalMicros ts) {
    std::int64_t seen = capture_frontier.load(std::memory_order_relaxed);
    while (ts > seen && !capture_frontier.compare_exchange_weak(
                            seen, ts, std::memory_order_relaxed)) {
    }
  }

  // Every emission funnels through here so the emitted counter, the emit
  // frontier and the lag histogram cannot drift apart.
  void Emit(JFrame&& jf) {
    ++emitted;
    emit_frontier.store(jf.timestamp, std::memory_order_relaxed);
    if (obs::Enabled()) {
      PipelineMetrics& m = Metrics();
      m.emitted.Add(1);
      const std::int64_t cap =
          capture_frontier.load(std::memory_order_relaxed);
      if (cap != kNoFrontier) {
        m.emit_lag_us.Observe(ClampedLagUs(cap, jf.timestamp));
      }
    }
    sink(std::move(jf));
  }

  std::int64_t LiveLagUs() const {
    const std::int64_t cap =
        capture_frontier.load(std::memory_order_relaxed);
    const std::int64_t emit = emit_frontier.load(std::memory_order_relaxed);
    if (cap == kNoFrontier || emit == kNoFrontier) return 0;
    return ClampedLagUs(cap, emit);
  }

  Impl(TraceSet& t, const MergeConfig& c, std::function<void(JFrame&&)> s)
      : traces(t), config(c), sink(std::move(s)) {}

  ~Impl() {
    StopPool();
    // Destroy the unifiers/reorder buffers before handing the shard streams
    // back (they hold references into the shard trace sets).
    live.clear();
    Reassemble();
  }

  void Reassemble() {
    if (!partitioned) return;
    partitioned = false;
    traces.AdoptShards(std::move(shards));
    shards.clear();
  }

  // ---- bootstrap phase ----------------------------------------------------

  // Has trace i's bootstrap window filled?  Mirrors the window scan of
  // BootstrapSynchronize: the window is anchored at the trace's own first
  // record, so it has filled once a record at/after window-end exists — or
  // once the trace finalized with less than a window of data.  The stream
  // cursor persists across polls (data only ever grows), so each poll
  // reads only what arrived since the last; BootstrapSynchronize and the
  // unifiers rewind everything afterwards anyway.
  bool ScanBootstrapReady(std::size_t i) {
    RecordStream& stream = traces.at(i);
    const std::int64_t ntp0 = stream.header().ntp_utc_of_local_zero_us;
    if (!window_end[i]) {
      stream.Rewind();
      const CaptureRecord* first = stream.NextRef();
      if (first == nullptr) return stream.Finalized();
      window_end[i] = ntp0 + first->timestamp + config.bootstrap.window;
      if (ntp0 + first->timestamp >= *window_end[i]) return true;
    }
    while (const CaptureRecord* rec = stream.NextRef()) {
      if (ntp0 + rec->timestamp >= *window_end[i]) return true;
    }
    return stream.Finalized();
  }

  bool TryBootstrap() {
    if (window_filled.empty()) {
      window_filled.assign(traces.size(), false);
      window_end.assign(traces.size(), std::nullopt);
    }
    bool all = true;  // an empty set falls through: bootstrap throws
    for (std::size_t i = 0; i < traces.size(); ++i) {
      if (!window_filled[i]) window_filled[i] = ScanBootstrapReady(i);
      all = all && window_filled[i];
    }
    if (!all) return false;
    // Bootstrap is always global: reference sets bridge channels through
    // the monitors' shared capture clocks, which a per-shard pass cannot
    // see.  Traces are re-read from offset zero — the "late bootstrap"
    // path: nothing was buffered while waiting, the files are the buffer.
    bootstrap = BootstrapSynchronize(traces, config.bootstrap);
    SetupMerge();
    bootstrapped = true;
    return true;
  }

  void SetupMerge() {
    shards = traces.PartitionByChannel();
    partitioned = true;
    spill_budget.limit = config.max_spill_bytes;
    live.reserve(shards.size());
    for (std::size_t s = 0; s < shards.size(); ++s) {
      auto ls = std::make_unique<LiveShard>();
      ls->index = s;
      Batch* out = &ls->out;
      ls->reorder = std::make_unique<ReorderBuffer>(
          EffectiveHorizon(config),
          [out](JFrame&& jf) { out->push_back(std::move(jf)); });
      ReorderBuffer* reorder = ls->reorder.get();
      ls->unifier = std::make_unique<Unifier>(
          shards[s].traces, bootstrap.Slice(shards[s].source_index),
          config.unifier,
          [this, reorder](JFrame&& jf) {
            NoteCaptured(jf.timestamp);
            reorder->Push(std::move(jf));
          },
          &ls->pool);
      if (!config.spill_dir.empty()) {
        ls->spill = std::make_unique<SpillQueue>(
            config.spill_dir,
            static_cast<std::uint8_t>(shards[s].channel), &spill_budget);
      }
      live.push_back(std::move(ls));
    }
    workers = ResolveWorkers(config.threads, shards.size());
    if (workers > 1) StartPool();
  }

  // ---- worker side --------------------------------------------------------

  // Runs one kUnifyStep slice of the shard's unifier (no lock held: the
  // unifier, reorder buffer, `out` and the pool are worker-side state) and
  // publishes its output.  Returns true if anything was consumed, produced
  // or finished.
  bool StepSlice(LiveShard& ls) {
    const std::uint64_t before = ls.unifier->stats().events_in;
    const UnifyStep step = ls.unifier->Step(kUnifyStep);
    if (step == UnifyStep::kExhausted) ls.reorder->Flush();
    const bool progress = ls.unifier->stats().events_in != before ||
                          !ls.out.empty() || step == UnifyStep::kExhausted;
    // Metrics ride the stats deltas — one pair of counter adds per slice,
    // nothing per event.
    const UnifyStats& after = ls.unifier->stats();
    if (obs::Enabled()) {
      PipelineMetrics& m = Metrics();
      m.shard_events.Add(after.events_in - ls.events_published);
      m.shard_jframes.Add(after.jframes - ls.jframes_published);
    }
    ls.events_published = after.events_in;
    ls.jframes_published = after.jframes;
    Publish(ls, step);
    return progress;
  }

  // Hands the slice's output to the consumer.  A starved or exhausted
  // shard parks for the rest of the poll.
  void Publish(LiveShard& ls, UnifyStep step) {
    std::size_t depth = 0;
    {
      std::lock_guard lk(ls.mu);
      if (!ls.out.empty()) {
        ls.depth += ls.out.size();
        ls.ready.push_back(std::move(ls.out));
      }
      ls.reorder_held = ls.reorder->size();
      if (step != UnifyStep::kMore) ls.parked = true;
      if (step == UnifyStep::kExhausted) ls.exhausted = true;
      MaybeSpill(ls);
      depth = ls.depth;
      if (ls.consumer_waiting) ls.ready_cv.notify_one();
    }
    ls.out.clear();  // moved from: valid but unspecified
    if (obs::Enabled()) {
      Metrics().queue_peak.UpdateMax(static_cast<std::int64_t>(depth));
    }
  }

  // Takes the consumer's spent batches back, outside the lock, right
  // before a slice: their carcasses go to the pool just as the unifier
  // needs them (absorbed after the slice instead, each shard would park a
  // batch of idle carcasses), and one spent vector, with its capacity,
  // becomes the slice's output batch.
  void Absorb(LiveShard& ls, std::vector<Batch>& returned) {
    for (Batch& b : returned) {
      for (JFrame& jf : b) ls.pool.Recycle(std::move(jf));
      b.clear();
      if (ls.out.capacity() < b.capacity()) ls.out.swap(b);
    }
  }

  // Room for one more slice without passing the watermark: the shard's
  // jframes in flight — ready batches plus the one being merged — stay at
  // or under kMergeQueueWatermark.  mu held.
  static bool HasRoom(const LiveShard& ls) {
    return ls.depth + kUnifyStep <= kMergeQueueWatermark;
  }

  // Moves the shard's published backlog into its spill tier when engaged:
  // already spilling, or the merge is gated on a starved shard and this
  // one holds spill_threshold or more.  A consumer that is merely slow
  // never engages it — that is watermark backpressure, not lag.  Spilling
  // stays latched until the consumer replays the spill dry; while latched,
  // everything in `ready` is newer than everything spilled, so draining
  // front-first preserves FIFO order.  Push refusal (budget exhausted)
  // leaves the rest queued: the shard degrades to plain watermark
  // backpressure until replay reclaims segments.  Worker thread, mu held.
  void MaybeSpill(LiveShard& ls) {
    if (ls.spill == nullptr) return;
    if (!ls.spilling) {
      if (!spill_gate.load(std::memory_order_relaxed) ||
          ls.depth < config.spill_threshold) {
        return;
      }
      ls.spilling = true;
    }
    bool moved = false;
    while (!ls.ready.empty()) {
      Batch& front = ls.ready.front();
      std::size_t n = 0;
      while (n < front.size() && ls.spill->Push(front[n])) {
        // Push serialized without consuming; recycle the carcass.
        ls.pool.Recycle(std::move(front[n]));
        ++n;
      }
      ls.depth -= n;
      moved = moved || n > 0;
      if (n < front.size()) {
        front.erase(front.begin(),
                    front.begin() + static_cast<std::ptrdiff_t>(n));
        break;
      }
      front.clear();
      ls.spent.push_back(std::move(front));
      ls.ready.pop_front();
    }
    if (moved) ls.spill->Sync();  // publish before unlocking
  }

  // One pass of the worker over one shard: spill if engaged, then step a
  // slice unless the shard is parked or full.  Returns true if it stepped.
  bool WorkerTurn(LiveShard& ls) {
    std::vector<Batch> returned;
    {
      std::lock_guard lk(ls.mu);
      MaybeSpill(ls);
      if (ls.parked) return false;
      if (!HasRoom(ls)) {
        ls.wants_room = true;
        return false;
      }
      returned.swap(ls.spent);
    }
    Absorb(ls, returned);
    StepSlice(ls);
    return true;
  }

  // Steps worker w's shards round-robin until none can advance (each is
  // parked or full) or the session aborts.
  void RunWorker(unsigned w) {
    for (;;) {
      bool stepped = false;
      for (std::size_t s = w; s < live.size(); s += workers) {
        if (aborted.load(std::memory_order_relaxed)) return;
        stepped = WorkerTurn(*live[s]) || stepped;
      }
      if (!stepped) return;
    }
  }

  void WorkerMain(unsigned w) {
    Worker& me = pool[w];
    std::unique_lock lk(pool_mu);
    for (;;) {
      me.cv.wait(lk, [&] { return shutdown || !me.idle; });
      if (shutdown) return;
      me.wake_pending = false;
      lk.unlock();
      try {
        RunWorker(w);
      } catch (...) {
        Fail(std::current_exception());
      }
      lk.lock();
      if (me.wake_pending && !aborted.load(std::memory_order_relaxed)) {
        continue;  // relieved while running: go round again
      }
      me.idle = true;
      if (--busy == 0) quiet_cv.notify_all();
    }
  }

  // Sets worker w running.  Callers may hold a shard mutex (lock order:
  // shard mu, then pool_mu — never the reverse).
  void Wake(unsigned w) {
    std::lock_guard lk(pool_mu);
    Worker& worker = pool[w];
    if (!worker.idle) {
      worker.wake_pending = true;
      return;
    }
    worker.idle = false;
    ++busy;
    worker.cv.notify_one();
  }

  void WakeAll() {
    for (unsigned w = 0; w < workers; ++w) Wake(w);
  }

  // Records the first failure, stops the workers and releases a Poll()
  // thread waiting on any shard.
  void Fail(std::exception_ptr error) {
    {
      std::lock_guard lk(pool_mu);
      if (!worker_error) worker_error = error;
    }
    aborted.store(true, std::memory_order_relaxed);
    for (const auto& ls : live) {
      { std::lock_guard lk(ls->mu); }
      ls->ready_cv.notify_all();
    }
  }

  void StartPool() {
    for (unsigned w = 0; w < workers; ++w) pool.emplace_back();
    for (unsigned w = 0; w < workers; ++w) {
      pool[w].thread = std::thread([this, w] { WorkerMain(w); });
    }
  }

  void StopPool() {
    if (pool.empty()) return;
    aborted.store(true, std::memory_order_relaxed);
    {
      std::lock_guard lk(pool_mu);
      shutdown = true;
      for (Worker& worker : pool) worker.cv.notify_one();
    }
    for (Worker& worker : pool) worker.thread.join();
    pool.clear();
  }

  // Blocks until every worker is parked.  The wait counts as the Poll()
  // thread waiting for the shards.
  void Quiesce() {
    std::unique_lock lk(pool_mu);
    if (busy == 0) return;
    obs::StageTimer wait_timer(Metrics().round_wait_us);
    quiet_cv.wait(lk, [&] { return busy == 0; });
  }

  // One pipelined poll: workers run while the Poll() thread merges; the
  // poll ends when the merge is gated on a parked shard (or drained) and
  // every worker has parked.
  void RunPipelined() {
    Metrics().rounds.Add(1);
    spill_gate.store(false, std::memory_order_relaxed);
    for (const auto& ls : live) {
      std::lock_guard lk(ls->mu);
      ls->parked = ls->exhausted;
    }
    WakeAll();
    try {
      MergeQueues();
    } catch (...) {
      aborted.store(true, std::memory_order_relaxed);
      Quiesce();
      throw;
    }
    if (!config.spill_dir.empty() && !aborted.load() && !AllDrained()) {
      // Gated on a starved shard for the rest of this poll: the others'
      // backlog may now go to disk instead of stalling at the watermark.
      ReturnHeads();
      spill_gate.store(true, std::memory_order_relaxed);
      WakeAll();
    }
    Quiesce();
    std::lock_guard lk(pool_mu);
    if (worker_error) std::rethrow_exception(worker_error);
  }

  // ---- inline rounds (one worker) -----------------------------------------

  // The Poll() thread steps on demand — only the shards the k-way merge is
  // waiting on (nothing queued, not yet exhausted), one slice each.
  // Stepping every shard up to the watermark instead would only buffer
  // jframes the gated merge cannot emit yet: +50% peak RSS on a 156-radio
  // merge.  Nothing is ever in flight when a shard is stepped, so the
  // inline path never engages the spill tier.
  bool RunRound() {
    Metrics().rounds.Add(1);
    bool progress = false;
    for (auto& ls : live) {
      std::vector<Batch> returned;
      {
        std::lock_guard lk(ls->mu);
        if (ls->exhausted || !ls->ready.empty() ||
            ls->head_pos != ls->head.size()) {
          continue;
        }
        returned.swap(ls->spent);
      }
      Absorb(*ls, returned);
      progress = StepSlice(*ls) || progress;
    }
    return progress;
  }

  // ---- consumer merge -----------------------------------------------------

  // Moves the shard's next batch to the consumer side, spill first.  mu
  // held.  The spill tier is always replayed before `ready`; once it runs
  // dry the shard drops back to in-memory hand-off (un-latching `spilling`
  // so the worker stops draining).
  bool TakeBatch(LiveShard& ls) {
    if (ls.spill != nullptr && (ls.spilling || !ls.spill->Empty())) {
      while (ls.head.size() < kUnifyStep) {
        std::optional<JFrame> jf = ls.spill->Pop();
        if (!jf) break;
        ls.head.push_back(std::move(*jf));
      }
      if (!ls.head.empty()) {
        ls.head_from_spill = true;
        return true;
      }
      // The worker Syncs before it unlocks, so everything spilled is
      // published; a non-empty queue here would be a lost write.
      if (!ls.spill->Empty()) return false;
      ls.spilling = false;
      // Reclaim the drained open segment too, releasing its budget bytes
      // — otherwise one long lag episode could pin the whole
      // max_spill_bytes budget for the rest of the session.
      ls.spill->ReclaimDrained();
    }
    if (ls.ready.empty()) return false;
    ls.head = std::move(ls.ready.front());
    ls.ready.pop_front();
    return true;
  }

  // Refills the shard's consumer-side batch.  Hands the spent batch back,
  // relieves a worker stopped at the watermark, and — with a pool — waits
  // while the shard's worker is still running.  Returns false when the
  // shard has nothing consumable (drained, parked, inline, or aborted).
  bool Refill(LiveShard& ls) {
    bool got = false;
    {
      std::unique_lock lk(ls.mu);
      if (!ls.head_from_spill) ls.depth -= ls.head.size();
      if (!ls.head.empty()) ls.spent.push_back(std::move(ls.head));
      ls.head.clear();
      ls.head_pos = 0;
      ls.head_from_spill = false;
      if (ls.wants_room && HasRoom(ls)) {
        ls.wants_room = false;
        Wake(static_cast<unsigned>(ls.index % workers));
      }
      for (;;) {
        if (TakeBatch(ls)) {
          got = true;
          break;
        }
        if (ls.exhausted && ls.ready.empty() &&
            (ls.spill == nullptr || ls.spill->Empty())) {
          ls.drained = true;
          break;
        }
        if (pool.empty() || ls.parked ||
            aborted.load(std::memory_order_relaxed)) {
          break;
        }
        // Gated on a shard whose worker is still running: wait for its
        // next batch.
        ls.consumer_waiting = true;
        {
          obs::StageTimer wait_timer(Metrics().round_wait_us);
          ls.ready_cv.wait(lk, [&] {
            return !ls.ready.empty() || ls.parked ||
                   (ls.spill != nullptr && !ls.spill->Empty()) ||
                   aborted.load(std::memory_order_relaxed);
          });
        }
        ls.consumer_waiting = false;
      }
    }
    if (got && !pool.empty()) ObservePeak();
    return got;
  }

  // The shard's next jframe in FIFO order, or nullptr when it has nothing
  // consumable right now.
  JFrame* ShardHead(LiveShard& ls) {
    if (ls.head_pos < ls.head.size()) return &ls.head[ls.head_pos];
    if (ls.drained || !Refill(ls)) return nullptr;
    return &ls.head[0];
  }

  // Emits the globally least OrderKey among the shard heads, exactly like
  // the batch k-way merge: correctness needs a head (or final
  // end-of-stream) from every shard before each emission, so a shard with
  // nothing consumable gates the stream — the watermark stall.
  std::size_t MergeQueues() {
    std::size_t merged = 0;
    const std::size_t n = live.size();
    for (;;) {
      std::size_t best = n;
      const JFrame* best_head = nullptr;
      bool gated = false;
      for (std::size_t i = 0; i < n; ++i) {
        LiveShard& ls = *live[i];
        const JFrame* head = ShardHead(ls);
        if (head == nullptr) {
          if (!ls.drained) {
            gated = true;
            break;
          }
          continue;
        }
        if (best == n || KeyOf(*head) < KeyOf(*best_head)) {
          best = i;
          best_head = head;
        }
      }
      if (gated || best == n) return merged;
      LiveShard& ls = *live[best];
      ++merged;
      // User code runs on the Poll() thread.  The carcass stays in the
      // batch and goes back to the shard's worker with it.
      Emit(std::move(ls.head[ls.head_pos++]));
    }
  }

  // Hands the unmerged rest of each consumer-side batch back to the front
  // of its shard's queue, so a spill drains the shard's whole backlog, not
  // just what the Poll() thread had yet to take.  A replayed batch stays:
  // it precedes the rest of the spill.
  void ReturnHeads() {
    for (const auto& ls : live) {
      if (ls->head_from_spill || ls->head_pos == ls->head.size()) continue;
      Batch rest(std::make_move_iterator(ls->head.begin() +
                                         static_cast<std::ptrdiff_t>(
                                             ls->head_pos)),
                 std::make_move_iterator(ls->head.end()));
      std::lock_guard lk(ls->mu);
      ls->depth -= ls->head_pos;
      ls->ready.push_front(std::move(rest));
      ls->spent.push_back(std::move(ls->head));
      ls->head.clear();
      ls->head_pos = 0;
    }
  }

  bool AllDrained() const {
    for (const auto& ls : live) {
      if (!ls->drained) return false;
    }
    return true;
  }

  // Jframes between the unifiers and the sink: reorder buffers, published
  // batches, and the unmerged part of the Poll() thread's batches.
  std::size_t Retained() const {
    std::size_t total = 0;
    for (const auto& ls : live) {
      std::lock_guard lk(ls->mu);
      // Spilled jframes live on disk, not in memory — only the replayed
      // batch being merged counts here.  That asymmetry is the point of
      // the tier: lagging by a million jframes retains one batch.
      total += ls->reorder_held +
               (ls->head_from_spill
                    ? ls->depth + (ls->head.size() - ls->head_pos)
                    : ls->depth - ls->head_pos);
    }
    return total;
  }

  std::uint64_t Spilled() const {
    std::uint64_t total = final_spilled;
    for (const auto& ls : live) {
      std::lock_guard lk(ls->mu);
      if (ls->spill != nullptr) total += ls->spill->spilled_jframes();
    }
    return total;
  }

  std::uint64_t SpillBytesOnDisk() const {
    std::uint64_t total = 0;
    for (const auto& ls : live) {
      std::lock_guard lk(ls->mu);
      if (ls->spill != nullptr) total += ls->spill->bytes_on_disk();
    }
    return total;
  }

  void ObservePeak() { peak_retained = std::max(peak_retained, Retained()); }

  // Folds the pools' own counters into the registry (gauge for parked
  // carcasses, delta-tracked counter for lifetime recycles).  The pools
  // are worker-side state, so this runs only while every worker is parked.
  void PublishArenaMetrics() {
    if (!obs::Enabled()) return;
    std::uint64_t pooled = 0;
    std::uint64_t recycled = 0;
    for (const auto& ls : live) {
      pooled += ls->pool.pooled();
      recycled += ls->pool.recycled_total();
    }
    PipelineMetrics& m = Metrics();
    m.arena_pooled.Set(static_cast<std::int64_t>(pooled));
    if (recycled > arena_recycled_published) {
      m.arena_recycled.Add(recycled - arena_recycled_published);
      arena_recycled_published = recycled;
    }
  }

  // ---- polling ------------------------------------------------------------

  Status PollInner() {
    Metrics().polls.Add(1);
    if (done) return Status::kDone;
    if (!bootstrapped && !TryBootstrap()) return Status::kBootstrapping;
    if (pool.empty()) {
      for (;;) {
        const bool stepped = RunRound();
        ObservePeak();
        const bool merged = MergeQueues() > 0;
        if (!stepped && !merged) break;
      }
    } else {
      RunPipelined();
    }
    ObservePeak();
    PublishArenaMetrics();
    if (!AllDrained()) return Status::kStarved;
    done = true;
    // Tear the shard machinery down now, not at destruction: the contract
    // hands the streams back to the caller's TraceSet as soon as the
    // session completes, so the set is reusable while the session (and
    // its stats) live on.  Dropping the shards also removes any remaining
    // spill segments (all replayed by now — SpillQueue's destructor only
    // cleans up files).
    StopPool();
    final_stats = Stats();
    final_spilled = Spilled();
    live.clear();  // unifiers reference the shard trace sets — drop first
    Reassemble();
    return Status::kDone;
  }

  UnifyStats Stats() const {
    UnifyStats total = final_stats;
    for (const auto& ls : live) total += ls->unifier->stats();
    return total;
  }
};

MergeSession::MergeSession(TraceSet& traces, const MergeConfig& config,
                           std::function<void(JFrame&&)> sink)
    : impl_(std::make_unique<Impl>(traces, config, std::move(sink))) {
  ValidateMergeConfig(config);
}

MergeSession::~MergeSession() = default;

MergeSession::Status MergeSession::Poll() {
  if (impl_->failed) {
    throw std::logic_error("MergeSession: poll after a failed poll");
  }
  try {
    return impl_->PollInner();
  } catch (...) {
    impl_->failed = true;
    throw;
  }
}

bool MergeSession::bootstrapped() const { return impl_->bootstrapped; }

const BootstrapResult& MergeSession::bootstrap() const {
  return impl_->bootstrap;
}

UnifyStats MergeSession::stats() const { return impl_->Stats(); }

std::uint64_t MergeSession::jframes_emitted() const { return impl_->emitted; }

std::size_t MergeSession::retained_jframes() const {
  return impl_->Retained();
}

std::size_t MergeSession::peak_retained_jframes() const {
  return impl_->peak_retained;
}

std::uint64_t MergeSession::spilled_jframes() const {
  return impl_->Spilled();
}

std::uint64_t MergeSession::spill_bytes_on_disk() const {
  return impl_->SpillBytesOnDisk();
}

std::int64_t MergeSession::live_lag_us() const { return impl_->LiveLagUs(); }

MergeStreamStats MergeTracesStreaming(TraceSet& traces,
                                      const MergeConfig& config,
                                      std::function<void(JFrame&&)> sink) {
  MergeSession session(traces, config, std::move(sink));
  for (;;) {
    const MergeSession::Status status = session.Poll();
    if (status == MergeSession::Status::kDone) break;
    // Only live sources ever starve; give their writers a moment.  Batch
    // inputs complete in a single Poll with no sleeps.
    std::this_thread::sleep_for(std::chrono::microseconds(
        status == MergeSession::Status::kBootstrapping ? 1000 : 200));
  }
  MergeStreamStats out;
  out.bootstrap = session.bootstrap();
  out.stats = session.stats();
  return out;
}

MergeResult MergeTraces(TraceSet& traces, const MergeConfig& config) {
  MergeResult result;
  auto stream = MergeTracesStreaming(
      traces, config,
      [&result](JFrame&& jf) { result.jframes.push_back(std::move(jf)); });
  result.bootstrap = std::move(stream.bootstrap);
  result.stats = stream.stats;
  return result;
}

}  // namespace jig
