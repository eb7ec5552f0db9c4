// End-to-end serve benchmark: catch-up, single-thread merge and live
// freshness over a simulated 300 s, 156-radio capture.  README.md defines
// the workloads and every metric.
//
//   perfbench --workload catchup|merge-1t|live --seed N --seconds S
//             --work-dir DIR [--trace 0|1] [--spans FILE] [--commit SHA]
//
// Prints a report and, as its last line, one JSON object with the keys
// correct, attempted, failed and metrics.  --trace 1 (perfbench_traced
// only) adds traced passes and reports the per-layer metrics instead of
// the end-to-end ones.  Exits 0 only when every pass matched the
// reference computed in set-up.
#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "jigsaw/analysis/bus.h"
#include "jigsaw/pipeline.h"
#include "jigsaw/service.h"
#include "jigsaw/spill.h"
#include "metrics.h"
#include "obs/metrics.h"
#include "sim/scenario.h"
#include "trace/trace_set.h"
#include "tracer.h"
#include "util/crc32.h"

namespace {

using namespace jig;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using perfbench::Layer;
using perfbench::Span;
using State = DeploymentMonitor::State;

// `jigtool demo-live`'s scenario: 20 clients, 39 pods (156 radios).
constexpr Micros kCaptureDuration = Seconds(300);
constexpr int kClients = 20;
// The live replay runs at 20x real time: a 250 ms capture chunk is due
// every 12.5 ms of wall time.
constexpr Micros kChunkCapture = Milliseconds(250);
constexpr std::chrono::microseconds kChunkWall{12500};
// Set-up runs this many times; setup_s is the median.
constexpr int kSetupReps = 3;
// Restarts after each live pass (a restart over finished state appends
// nothing, so it can repeat).
constexpr int kLiveRestarts = 3;
// A pass that takes longer than this has hung.
constexpr auto kPassDeadline = std::chrono::seconds(120);

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec / 1e9;
}

// Peak RSS of the phase that follows: /proc/self/clear_refs "5" resets
// VmHWM to the current RSS.
void ResetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ------------------------------------------------------------- arguments

struct Args {
  std::string workload;
  std::uint64_t seed = 10;
  double seconds = 15;
  int trace = 0;
  fs::path work_dir;
  fs::path spans;
  std::string commit = "unknown";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value: " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = std::stoi(value);
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else if (flag == "--spans") {
      a.spans = value;
    } else if (flag == "--commit") {
      a.commit = value;
    } else {
      throw std::invalid_argument("unknown flag: " + flag);
    }
  }
  if (a.workload != "catchup" && a.workload != "merge-1t" &&
      a.workload != "live") {
    throw std::invalid_argument("--workload must be catchup, merge-1t or live");
  }
  if (a.work_dir.empty()) throw std::invalid_argument("--work-dir is required");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  if (a.trace != 0 && a.trace != 1) {
    throw std::invalid_argument("--trace must be 0 or 1");
  }
#ifndef PERFBENCH_TRACED
  if (a.trace == 1) {
    throw std::invalid_argument("--trace 1 needs the perfbench_traced build");
  }
#endif
  return a;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// --------------------------------------------------------- correctness

// What every pass is checked against: the jframe count, an
// order-sensitive digest (CRC-32 of the concatenated serialized jframes,
// so it pins the bytes), and the analysis summary.
struct Summary {
  std::uint64_t jframes = 0;
  std::uint32_t digest = 0;
  std::uint64_t interference_pairs = 0;
  std::uint64_t tcp_flows = 0;

  bool operator==(const Summary&) const = default;
};

std::string Describe(const Summary& s) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "jframes=%llu digest=%08x pairs=%llu tcp_flows=%llu",
                static_cast<unsigned long long>(s.jframes), s.digest,
                static_cast<unsigned long long>(s.interference_pairs),
                static_cast<unsigned long long>(s.tcp_flows));
  return buf;
}

class StreamDigest {
 public:
  void Add(const JFrame& jf) {
    buf_.clear();
    SerializeJFrame(jf, buf_);
    crc_.Update({buf_.data(), buf_.size()});
    ++count_;
  }
  std::uint64_t count() const { return count_; }
  std::uint32_t value() const { return crc_.Value(); }

 private:
  Bytes buf_;
  Crc32Accumulator crc_;
  std::uint64_t count_ = 0;
};

// Reads the monitor's durable output log back (strict: every segment must
// be sealed) and takes the analysis summary from its status.
Summary ReadBack(const DeploymentMonitor& monitor, const fs::path& state_dir) {
  std::vector<fs::path> segments;
  for (const auto& e : fs::directory_iterator(state_dir / "out")) {
    if (e.path().extension() == ".jigs") segments.push_back(e.path());
  }
  std::sort(segments.begin(), segments.end());
  StreamDigest digest;
  for (const fs::path& p : segments) {
    SpillSegmentReader reader(p, /*strict=*/true);
    while (auto jf = reader.Next()) digest.Add(*jf);
  }
  const DeploymentStatus st = monitor.Status();
  return {digest.count(), digest.value(), st.interference_pairs,
          st.tcp_flows};
}

// Attempted and failed operations, with the first few failure reasons.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void Fail(std::uint64_t n, const std::string& why) {
    failed += n;
    if (errors.size() < 8) errors.push_back(why);
  }
  // Counts one operation; false (and a failure) when got != want.
  bool Check(const Summary& got, const Summary& want, const char* what) {
    ++attempted;
    if (got == want) return true;
    Fail(1, std::string(what) + ": got " + Describe(got) + ", want " +
                Describe(want));
    return false;
  }
};

// ---------------------------------------------------------------- set-up

struct Setup {
  fs::path trace_dir;
  std::uint64_t records = 0;
  std::size_t radios = 0;
  Summary reference;
  std::vector<double> seconds;  // one per repetition
};

// The stock analysis chain, wired as DeploymentMonitor wires it.
struct AnalysisChain {
  AnalysisBus bus;
  LinkConsumer& link = bus.Emplace<LinkConsumer>();
  InterferenceConsumer& interference =
      bus.Emplace<InterferenceConsumer>(link);
  TcpLossConsumer& tcp_loss = bus.Emplace<TcpLossConsumer>(link);
};

// The reference: a single-threaded merge of the written capture, loaded
// into memory first so that it shares no file-streaming path with the
// passes it checks.  (The simulator's own records are not the reference:
// .jigt stores RSSI in quarter-dB steps.)
Summary ReferenceMerge(const fs::path& trace_dir) {
  TraceSet loaded;
  {
    TraceSet files = TraceSet::OpenDirectory(trace_dir);
    for (std::size_t i = 0; i < files.size(); ++i) {
      std::vector<CaptureRecord> records;
      while (auto rec = files.at(i).Next()) records.push_back(std::move(*rec));
      loaded.Add(std::make_unique<MemoryTrace>(files.at(i).header(),
                                               std::move(records)));
    }
  }
  AnalysisChain chain;
  StreamDigest digest;
  MergeConfig config;
  config.threads = 1;
  MergeTracesStreaming(loaded, config, [&](JFrame&& jf) {
    digest.Add(jf);
    chain.bus.OnJFrame(static_cast<const JFrame&>(jf));
  });
  chain.bus.Finish();
  return {digest.count(), digest.value(),
          chain.interference.SnapshotReport().pairs.size(),
          chain.tcp_loss.SnapshotReport().flows_considered};
}

// Simulates the scenario, writes its traces and runs the reference merge,
// kSetupReps times; every repetition must give the same reference.
Setup RunSetup(const Args& args) {
  Setup s;
  s.trace_dir = args.work_dir / "traces";
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = NowNs();
    ScenarioConfig config;
    config.seed = args.seed;
    config.duration = kCaptureDuration;
    config.clients = kClients;
    TraceSet traces;
    {
      Scenario scenario(config);
      scenario.Run();
      traces = scenario.TakeTraces();
    }
    fs::remove_all(s.trace_dir);
    traces.WriteDirectory(s.trace_dir);
    std::uint64_t records = 0;
    for (std::size_t i = 0; i < traces.size(); ++i) {
      records += dynamic_cast<const MemoryTrace&>(traces.at(i)).size();
    }
    const std::size_t radios = traces.size();
    traces = TraceSet();
    const Summary ref = ReferenceMerge(s.trace_dir);
    s.seconds.push_back((NowNs() - t0) / 1e9);
    if (rep > 0 && (ref != s.reference || records != s.records)) {
      throw std::runtime_error("set-up is not deterministic: " +
                               Describe(ref) + " vs " + Describe(s.reference));
    }
    s.reference = ref;
    s.records = records;
    s.radios = radios;
  }
  if (s.records == 0 || s.reference.jframes == 0) {
    throw std::runtime_error("set-up produced an empty capture");
  }
  malloc_trim(0);  // hand set-up's heap back before peak RSS is measured
  return s;
}

// ------------------------------------------------------------ tracing aids

// Times RecordStream calls from outside: the monitor's StreamWrapper (or
// a hand-built TraceSet) puts one around each radio's stream.
class TimedStream final : public RecordStream {
 public:
  explicit TimedStream(std::unique_ptr<RecordStream> inner)
      : inner_(std::move(inner)) {}

  const TraceHeader& header() const override { return inner_->header(); }
  std::optional<CaptureRecord> Next() override {
    Span span(Layer::kDecode);
    return inner_->Next();
  }
  const CaptureRecord* NextRef() override {
    Span span(Layer::kDecode);
    return inner_->NextRef();
  }
  void Rewind() override {
    Span span(Layer::kDecode);
    inner_->Rewind();
  }
  bool Finalized() const override { return inner_->Finalized(); }

 private:
  std::unique_ptr<RecordStream> inner_;
};

DeploymentMonitor::StreamWrapper Wrapper(bool traced) {
  if (!traced) return nullptr;
  return [](std::unique_ptr<RecordStream> inner, std::uint32_t) {
    return std::unique_ptr<RecordStream>(
        std::make_unique<TimedStream>(std::move(inner)));
  };
}

// TraceSet::OpenDirectory with every stream wrapped in a TimedStream
// (same order: by radio id).
TraceSet OpenTimed(const fs::path& dir) {
  std::vector<std::unique_ptr<RecordStream>> opened;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file() && e.path().extension() == ".jigt") {
      opened.push_back(std::make_unique<FileTrace>(e.path()));
    }
  }
  std::sort(opened.begin(), opened.end(), [](const auto& a, const auto& b) {
    return a->header().radio < b->header().radio;
  });
  TraceSet set;
  for (auto& s : opened) set.Add(std::make_unique<TimedStream>(std::move(s)));
  return set;
}

// Registry counters read around a phase (summed over label sets).
struct Counts {
  double bytes_read = 0;
  double blocks = 0;
  double repolls = 0;
  double merge_polls = 0;
  double checkpoints = 0;

  Counts operator-(const Counts& b) const {
    return {bytes_read - b.bytes_read, blocks - b.blocks,
            repolls - b.repolls, merge_polls - b.merge_polls,
            checkpoints - b.checkpoints};
  }
  void operator+=(const Counts& b) {
    bytes_read += b.bytes_read;
    blocks += b.blocks;
    repolls += b.repolls;
    merge_polls += b.merge_polls;
    checkpoints += b.checkpoints;
  }
};

Counts ReadCounts() {
  const obs::MetricsSnapshot snap = obs::MetricRegistry::Global().Collect();
  const auto sum = [&snap](std::string_view name) {
    double total = 0;
    for (const obs::MetricSample& s : snap.samples) {
      if (s.name == name) total += static_cast<double>(s.value);
    }
    return total;
  };
  return {sum("jig_trace_bytes_read_total"),
          sum("jig_trace_blocks_decoded_total"),
          sum("jig_trace_repolls_total"), sum("jig_merge_polls_total"),
          sum("jig_service_checkpoints_total")};
}

// Span totals, registry counts and poll-thread wall of one kind of phase
// (catch-up, restart, live pass, merge pass), summed over traced passes.
struct Phase {
  perfbench::TraceTotals totals;
  Counts counts;
  double wall_ns = 0;
  double idle_ns = 0;  // poll thread blocked waiting for input (live)
  int passes = 0;

  void Add(const Phase& p) {
    totals += p.totals;
    counts += p.counts;
    wall_ns += p.wall_ns;
    idle_ns += p.idle_ns;
    passes += p.passes;
  }
};

class PhaseMeter {
 public:
  PhaseMeter()
      : totals0_(perfbench::SnapshotTotals()),
        counts0_(ReadCounts()),
        t0_(NowNs()) {}

  Phase Stop(double idle_ns = 0) const {
    Phase p;
    p.wall_ns = static_cast<double>(NowNs() - t0_);
    p.totals = perfbench::SnapshotTotals() - totals0_;
    p.counts = ReadCounts() - counts0_;
    p.idle_ns = idle_ns;
    p.passes = 1;
    return p;
  }

 private:
  perfbench::TraceTotals totals0_;
  Counts counts0_;
  std::int64_t t0_;
};

// ---------------------------------------------------------- monitor drive

std::uint64_t g_round = 0;

DeploymentConfig MonitorConfig(const fs::path& traces, const fs::path& state,
                               unsigned threads, std::size_t radios) {
  DeploymentConfig c;
  c.name = "bench";
  c.trace_dir = traces;
  c.state_dir = state;
  c.merge.threads = threads;
  c.expected_traces = radios;
  c.analysis = true;
  return c;
}

std::unique_ptr<DeploymentMonitor> OpenMonitor(const DeploymentConfig& cfg,
                                               bool traced) {
  Span span(Layer::kMonitorCtor);
  return std::make_unique<DeploymentMonitor>(cfg, Wrapper(traced));
}

State PollRound(DeploymentMonitor& m) {
  perfbench::SetRound(++g_round);
  Span span(Layer::kPollOnce);
  return m.PollOnce();
}

// Polls a monitor over finished traces until it leaves the running
// states.
State PollToEnd(DeploymentMonitor& m) {
  const auto deadline = Clock::now() + kPassDeadline;
  for (;;) {
    const State st = PollRound(m);
    if (st == State::kDone || st == State::kFailed) return st;
    if (Clock::now() > deadline) {
      throw std::runtime_error("monitor did not finish within the deadline");
    }
  }
}

// Restart over a finished state dir: constructor (log recovery) plus the
// replay to kDone.  Returns its wall seconds; checks the result.
double RestartAndCheck(const DeploymentConfig& cfg, const Setup& s,
                       bool traced, Tally& tally, Phase* trace_out) {
  const PhaseMeter meter;
  const std::int64_t t0 = NowNs();
  std::unique_ptr<DeploymentMonitor> m;
  try {
    m = OpenMonitor(cfg, traced);
    const State st = PollToEnd(*m);
    const double seconds = (NowNs() - t0) / 1e9;
    if (trace_out != nullptr) trace_out->Add(meter.Stop());
    if (st != State::kDone) {
      ++tally.attempted;
      tally.Fail(1, "restart ended failed");
      return seconds;
    }
    tally.Check(ReadBack(*m, cfg.state_dir), s.reference, "restart");
    return seconds;
  } catch (const std::exception& e) {
    ++tally.attempted;
    tally.Fail(1, std::string("restart: ") + e.what());
    return (NowNs() - t0) / 1e9;
  }
}

// ---------------------------------------------------------------- passes

struct PassResult {
  // What events_per_s divides by: first poll (or merge call) to done;
  // for live, the time spent inside PollOnce (its wall time is set by
  // the writer's schedule).
  double work_s = 0;
  double span_s = 0;         // live: first poll to done
  double cpu_s = 0;          // SUT CPU over the same interval
  double recovery_s = 0;     // restart to kDone
  double rss_mb = 0;         // peak RSS of the measured interval
  double out_bytes = 0;      // output log bytes on disk
  std::vector<double> freshness_ms;
  // live only
  double late_max_ms = 0;
  double poll_busy_share = 0;
  double max_poll_ms = 0;
};

struct Traced {
  Phase main;     // catch-up / merge pass / live pass
  Phase restart;  // restart to kDone
};

// catchup: serve's full path over the finished directory at the maximum
// rate (auto threads), then a crash-restart replay over its state.
PassResult CatchupPass(const Args& args, const Setup& s, bool traced,
                       Tally& tally, Traced* tr) {
  PassResult r;
  const fs::path state = args.work_dir / "state";
  fs::remove_all(state);
  const DeploymentConfig cfg = MonitorConfig(s.trace_dir, state, 0, s.radios);
  try {
    ResetPeakRss();
    const PhaseMeter meter;
    auto m = OpenMonitor(cfg, traced);
    const double cpu0 = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
    const std::int64_t t0 = NowNs();
    const State st = PollToEnd(*m);
    r.work_s = (NowNs() - t0) / 1e9;
    r.cpu_s = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
    r.rss_mb = PeakRssMb();
    if (tr != nullptr) tr->main.Add(meter.Stop());
    r.out_bytes = static_cast<double>(m->output_bytes_on_disk());
    if (st != State::kDone) {
      ++tally.attempted;
      tally.Fail(1, "catch-up ended failed");
    } else {
      tally.Check(ReadBack(*m, state), s.reference, "catch-up");
    }
  } catch (const std::exception& e) {
    ++tally.attempted;
    tally.Fail(1, std::string("catch-up: ") + e.what());
    return r;
  }
  ResetPeakRss();
  r.recovery_s = RestartAndCheck(cfg, s, traced, tally,
                                 tr != nullptr ? &tr->restart : nullptr);
  r.rss_mb = std::max(r.rss_mb, PeakRssMb());
  return r;
}

// merge-1t: the single-threaded merge into a counting sink; no bus, no
// log, no checkpoints.
PassResult MergePass(const Setup& s, bool traced, Tally& tally, Traced* tr) {
  PassResult r;
  try {
    ResetPeakRss();
    const PhaseMeter meter;
    const double cpu0 = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
    const std::int64_t t0 = NowNs();
    TraceSet traces;
    if (traced) {
      Span span(Layer::kDecode);  // opening reads headers and indexes
      traces = OpenTimed(s.trace_dir);
    } else {
      traces = TraceSet::OpenDirectory(s.trace_dir);
    }
    StreamDigest digest;
    MergeConfig config;
    config.threads = 1;
    {
      Span span(Layer::kMergeCall);
      MergeTracesStreaming(traces, config, [&digest](JFrame&& jf) {
        Span sink(Layer::kSink);
        digest.Add(jf);
      });
    }
    r.work_s = (NowNs() - t0) / 1e9;
    r.cpu_s = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
    r.rss_mb = PeakRssMb();
    if (tr != nullptr) tr->main.Add(meter.Stop());
    // A stateless merge restarts by merging from zero again.
    r.recovery_s = r.work_s;
    Summary want = s.reference;
    want.interference_pairs = want.tcp_flows = 0;  // no analysis here
    tally.Check({digest.count(), digest.value(), 0, 0}, want, "merge-1t");
  } catch (const std::exception& e) {
    ++tally.attempted;
    tally.Fail(1, std::string("merge-1t: ") + e.what());
  }
  return r;
}

// Open-loop live writer: replays the finished capture through a
// TraceSetWriter, one 250 ms capture chunk every 12.5 ms on a fixed
// schedule, finalizing each radio as it runs dry (as demo-live does).
struct LiveFeed {
  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t published = 0;  // chunks published; guarded by mu
  bool finished = false;        // guarded by mu
  std::string error;            // guarded by mu
  std::vector<perfbench::ChunkTimes> chunks;  // guarded by mu
  double cpu_s = 0;  // generator thread CPU; read after join
};

void Generate(const fs::path& src, const fs::path& dst, LiveFeed& feed) {
  const double cpu0 = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
  try {
    TraceSet source = TraceSet::OpenDirectory(src);
    TraceSetWriter writer(dst);
    std::vector<std::optional<CaptureRecord>> next;
    std::vector<LocalMicros> first;
    for (std::size_t i = 0; i < source.size(); ++i) {
      writer.AddRadio(source.at(i).header());
      next.push_back(source.at(i).Next());
      first.push_back(next.back() ? next.back()->timestamp : 0);
    }
    const auto t0 = Clock::now();
    for (std::int64_t k = 1;; ++k) {
      const auto due = t0 + k * kChunkWall;
      std::this_thread::sleep_until(due);
      bool any_left = false;
      for (std::size_t i = 0; i < source.size(); ++i) {
        // Chunks are cut in each radio's own capture clock, relative to
        // its first record, so every file grows in lockstep.
        const LocalMicros end = first[i] + k * kChunkCapture;
        while (next[i] && next[i]->timestamp < end) {
          writer.Append(i, *next[i]);
          next[i] = source.at(i).Next();
        }
        any_left = any_left || next[i].has_value();
      }
      writer.Sync();
      for (std::size_t i = 0; i < source.size(); ++i) {
        if (!next[i]) writer.Finalize(i);
      }
      const std::int64_t published = NowNs();
      {
        std::lock_guard lk(feed.mu);
        feed.chunks.push_back(
            {std::chrono::duration_cast<std::chrono::nanoseconds>(
                 due.time_since_epoch())
                 .count(),
             published});
        ++feed.published;
      }
      feed.cv.notify_all();
      if (!any_left) break;
    }
  } catch (const std::exception& e) {
    std::lock_guard lk(feed.mu);
    feed.error = e.what();
  }
  feed.cpu_s = CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - cpu0;
  {
    std::lock_guard lk(feed.mu);
    feed.finished = true;
  }
  feed.cv.notify_all();
}

// live: serve's defaults (threads = 1) follow the growing directory; the
// poll thread wakes as soon as a chunk is published.
PassResult LivePass(const Args& args, const Setup& s, bool traced,
                    Tally& tally, Traced* tr) {
  PassResult r;
  const fs::path live_dir = args.work_dir / "live";
  const fs::path state = args.work_dir / "live-state";
  fs::remove_all(live_dir);
  fs::remove_all(state);
  fs::create_directories(live_dir);
  const DeploymentConfig cfg = MonitorConfig(live_dir, state, 1, s.radios);
  std::vector<perfbench::PollTimes> polls;
  LiveFeed feed;
  bool ok = false;
  std::string why;
  {
    ResetPeakRss();
    const PhaseMeter meter;
    std::unique_ptr<DeploymentMonitor> m;
    State st = State::kDiscovering;
    double idle_ns = 0;
    try {
      m = OpenMonitor(cfg, traced);
    } catch (const std::exception& e) {
      why = std::string("monitor: ") + e.what();
    }
    const double cpu0 = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
    std::jthread gen;
    if (m) gen = std::jthread(Generate, s.trace_dir, live_dir, std::ref(feed));
    try {
      std::uint64_t seen = 0;
      const auto deadline = Clock::now() + kPassDeadline;
      while (m) {
        {
          const std::int64_t w0 = NowNs();
          std::unique_lock lk(feed.mu);
          // After the last chunk, keep polling briefly until the monitor
          // reports done (it needs nothing more from the writer).
          feed.cv.wait_for(lk, std::chrono::milliseconds(50), [&] {
            return feed.published > seen || feed.finished;
          });
          if (!feed.error.empty()) throw std::runtime_error(feed.error);
          seen = feed.published;
          idle_ns += static_cast<double>(NowNs() - w0);
        }
        const std::int64_t begin = NowNs();
        st = PollRound(*m);
        polls.push_back({begin, NowNs()});
        if (st == State::kDone || st == State::kFailed) break;
        if (Clock::now() > deadline) {
          throw std::runtime_error("live monitor did not finish");
        }
      }
    } catch (const std::exception& e) {
      why = std::string("live: ") + e.what();
    }
    const std::int64_t done = NowNs();
    if (gen.joinable()) gen.join();
    r.cpu_s = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0 - feed.cpu_s;
    r.rss_mb = PeakRssMb();
    if (tr != nullptr) tr->main.Add(meter.Stop(idle_ns));
    if (!polls.empty()) {
      r.span_s = (done - polls.front().begin) / 1e9;
      double busy = 0;
      for (const auto& p : polls) {
        busy += static_cast<double>(p.end - p.begin);
        r.max_poll_ms = std::max(r.max_poll_ms, (p.end - p.begin) / 1e6);
      }
      r.work_s = busy / 1e9;
      r.poll_busy_share = r.work_s / r.span_s;
    }
    for (const auto& c : feed.chunks) {
      r.late_max_ms = std::max(r.late_max_ms, (c.published - c.due) / 1e6);
    }
    if (why.empty() && st != State::kDone) why = "live monitor ended failed";
    if (why.empty()) {
      r.out_bytes = static_cast<double>(m->output_bytes_on_disk());
      try {
        const Summary got = ReadBack(*m, state);
        ok = got == s.reference;
        if (!ok) {
          why = "live: got " + Describe(got) + ", want " +
                Describe(s.reference);
        }
      } catch (const std::exception& e) {
        why = std::string("live read-back: ") + e.what();
      }
    }
  }
  // Every chunk is one operation: all fail with the pass.
  const auto fresh = perfbench::AttributeFreshness(feed.chunks, polls, ok);
  tally.attempted += fresh.size();
  if (!ok) {
    tally.Fail(fresh.size(), why);
  } else {
    for (const auto& f : fresh) {
      if (f) {
        r.freshness_ms.push_back(*f / 1e6);
      } else {
        tally.Fail(1, "chunk not served by any poll");
      }
    }
  }
  if (ok) {
    // One live pass per run gives one restart; three make a median.
    std::vector<double> restarts;
    for (int i = 0; i < kLiveRestarts; ++i) {
      ResetPeakRss();
      restarts.push_back(RestartAndCheck(
          cfg, s, traced, tally, tr != nullptr ? &tr->restart : nullptr));
      r.rss_mb = std::max(r.rss_mb, PeakRssMb());
    }
    r.recovery_s = perfbench::Median(restarts);
  }
  return r;
}

PassResult RunPass(const Args& args, const Setup& s, bool traced,
                   Tally& tally, Traced* tr) {
  if (args.workload == "catchup") {
    return CatchupPass(args, s, traced, tally, tr);
  }
  if (args.workload == "merge-1t") return MergePass(s, traced, tally, tr);
  return LivePass(args, s, traced, tally, tr);
}

// ---------------------------------------------------------------- report

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::string note;  // sample count etc., printed in the report only
};

void PrintMetric(const Metric& m) {
  std::printf("  %-36s %16.6g %-6s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.note.c_str());
}

std::string Samples(std::size_t n, const char* what) {
  return "n=" + std::to_string(n) + " " + what;
}

template <typename F>
std::vector<double> Collect(const std::vector<PassResult>& passes, F f) {
  std::vector<double> v;
  for (const PassResult& p : passes) v.push_back(f(p));
  return v;
}

// Live freshness percentiles, each taken per pass over its chunks; the
// median over passes.  Reported, not gated: see README.md.
std::vector<Metric> Freshness(const std::vector<PassResult>& passes) {
  if (passes.empty()) return {};
  std::vector<double> p50s;
  std::vector<double> p99s;
  std::size_t chunks = 0;
  std::size_t beyond = 0;
  for (const PassResult& p : passes) {
    p50s.push_back(perfbench::Median(p.freshness_ms));
    if (const auto p99 = perfbench::TailPercentile(p.freshness_ms, 99.0)) {
      p99s.push_back(p99->value);
      chunks = p99->samples;
      beyond = p99->beyond;
    }
  }
  const std::size_t n = passes.size();
  std::vector<Metric> out;
  out.push_back({"live.freshness_p50_ms", "ms", perfbench::Median(p50s),
                 Samples(n, "passes; per pass ") +
                     std::to_string(passes.front().freshness_ms.size()) +
                     " chunks"});
  if (p99s.size() == n) {
    out.push_back({"live.freshness_p99_ms", "ms", perfbench::Median(p99s),
                   Samples(n, "passes; per pass ") + std::to_string(chunks) +
                       " chunks, " + std::to_string(beyond) + " beyond"});
  } else {
    std::printf("  live.freshness_p99_ms: not reported, a pass has fewer "
                "than %zu chunks beyond p99\n",
                perfbench::kMinSamplesBeyond);
  }
  return out;
}

std::vector<Metric> EndToEnd(const std::vector<PassResult>& passes,
                             const Setup& s, const Tally& tally, bool live) {
  using perfbench::Median;
  const double records = static_cast<double>(s.records);
  const std::size_t n = passes.size();
  const auto med = [&passes](auto f) { return Median(Collect(passes, f)); };
  std::vector<Metric> out;
  out.push_back({"events_per_s", "1/s",
                 med([&](const auto& p) { return records / p.work_s; }),
                 Samples(n, live ? "passes, median; per second inside "
                                   "PollOnce"
                                 : "passes, median")});
  out.push_back({"cpu_ns_per_event", "ns",
                 med([&](const auto& p) { return p.cpu_s / records * 1e9; }),
                 Samples(n, "passes, median")});
  out.push_back({"recovery_s", "s",
                 med([](const auto& p) { return p.recovery_s; }),
                 live ? Samples(n * kLiveRestarts, "restarts, median")
                      : Samples(n, "restarts, median")});
  out.push_back({"peak_rss_mb", "MB",
                 med([](const auto& p) { return p.rss_mb; }),
                 Samples(n, "passes, median")});
  out.push_back({"setup_s", "s", Median(s.seconds),
                 Samples(s.seconds.size(), "set-ups, median")});
  std::printf("  %-36s %16.6g %-6s %s\n", "error_rate",
              tally.attempted ? static_cast<double>(tally.failed) /
                                    static_cast<double>(tally.attempted)
                              : 1.0,
              "ratio",
              ("failed " + std::to_string(tally.failed) + " of " +
               std::to_string(tally.attempted) + " attempted")
                  .c_str());
  if (live) {
    std::printf("  %-36s %16.6g %-6s %s\n", "events_per_s over the pass",
                med([&](const auto& p) { return records / p.span_s; }), "1/s",
                "first poll to done, set by the writer's schedule");
    for (const Metric& m : Freshness(passes)) PrintMetric(m);
  }
  return out;
}

// Per-layer metrics and the table of poll-thread self time.
std::vector<Metric> PerLayer(const Traced& tr, const Setup& s,
                             const std::vector<PassResult>& traced_passes,
                             double untraced_eps, double traced_eps,
                             double untraced_cpu, double traced_cpu,
                             bool live) {
  const Phase& m = tr.main;
  const Phase& rs = tr.restart;
  const double n = std::max(1, m.passes);
  const double nr = std::max(1, rs.passes);
  const double records = static_cast<double>(s.records);
  const double jframes = static_cast<double>(s.reference.jframes);
  const auto& T = m.totals;
  const auto total = [&](Layer l) {
    return static_cast<double>(T.Poll(l).total_ns + T.Other(l).total_ns);
  };
  const auto self = [&](Layer l) {
    return static_cast<double>(T.Poll(l).self_ns + T.Other(l).self_ns);
  };
  const auto per_call_us = [&](Layer l) {
    const double calls =
        static_cast<double>(T.Poll(l).calls + T.Other(l).calls);
    return calls > 0 ? total(l) / calls / 1e3 : 0.0;
  };
  const double wall = m.wall_ns;
  const double unattributed =
      wall - static_cast<double>(T.PollSelfSum()) - m.idle_ns;

  std::printf("\nper-layer self time on the poll thread (%d traced pass%s, "
              "per pass):\n",
              m.passes, m.passes == 1 ? "" : "es");
  std::printf("  %-10s %-14s %12s %8s %12s %14s\n", "module", "layer",
              "self_ms", "share", "calls", "other_thr_ms");
  for (int i = 0; i < perfbench::TraceTotals::kLayers; ++i) {
    const auto l = static_cast<Layer>(i);
    const auto& p = T.poll[i];
    const auto& o = T.other[i];
    if (p.total_ns == 0 && o.total_ns == 0 && p.calls == 0 && o.calls == 0) {
      continue;
    }
    std::printf("  %-10s %-14s %12.3f %7.1f%% %12.0f %14.3f\n",
                perfbench::LayerModule(l), perfbench::LayerName(l),
                p.self_ns / n / 1e6, 100.0 * p.self_ns / wall,
                (p.calls + o.calls) / n, o.self_ns / n / 1e6);
  }
  if (m.idle_ns > 0) {
    std::printf("  %-10s %-14s %12.3f %7.1f%%\n", "-", "idle",
                m.idle_ns / n / 1e6, 100.0 * m.idle_ns / wall);
  }
  std::printf("  %-10s %-14s %12.3f %7.1f%%\n", "-", "unattributed",
              unattributed / n / 1e6, 100.0 * unattributed / wall);
  std::printf("  %-10s %-14s %12.3f %7.1f%%\n", "=", "wall", wall / n / 1e6,
              100.0);
  if (rs.passes > 0) {
    const double rwall = rs.wall_ns;
    const double runattr =
        rwall - static_cast<double>(rs.totals.PollSelfSum());
    std::printf("restart (per restart): wall %.3f ms, monitor_ctor %.3f ms, "
                "unattributed %.3f ms\n",
                rwall / nr / 1e6,
                rs.totals.Poll(Layer::kMonitorCtor).total_ns / nr / 1e6,
                runattr / nr / 1e6);
  }
  std::printf("tracing overhead: events_per_s untraced %.6g vs traced %.6g; "
              "cpu_ns_per_event untraced %.6g vs traced %.6g\n",
              untraced_eps, traced_eps, untraced_cpu, traced_cpu);

  const auto med = [&](auto f) {
    return perfbench::Median(Collect(traced_passes, f));
  };
  std::vector<Metric> out;
  const auto add = [&out](const char* name, const char* unit, double v) {
    out.push_back({name, unit, v, ""});
  };
  add("trace.decode_ns_per_event", "ns",
      total(Layer::kDecode) / n / records);
  add("trace.bytes_read", "B", m.counts.bytes_read / n);
  add("bootstrap.ms", "ms", total(Layer::kBootstrap) / n / 1e6);
  add("merge.self_ns_per_event", "ns",
      (self(Layer::kMergePoll) + self(Layer::kMergeCall)) / n /
          records);
  add("merge.round_wait_ms", "ms",
      total(Layer::kRoundWait) / n / 1e6);
  add("merge.events_per_jframe", "ratio", records / jframes);
  add("merge.polls", "count", m.counts.merge_polls / n);
  add("analysis.link_ns_per_jframe", "ns",
      self(Layer::kLink) / n / jframes);
  add("analysis.interference_ns_per_jframe", "ns",
      self(Layer::kInterference) / n / jframes);
  add("analysis.tcp_loss_ns_per_jframe", "ns",
      self(Layer::kTcpLoss) / n / jframes);
  add("service.log_append_ns_per_jframe", "ns",
      total(Layer::kLogAppend) / n / jframes);
  add("service.out_bytes_per_jframe", "B",
      med([](const auto& p) { return p.out_bytes; }) / jframes);
  add("service.log_sync_us", "us", per_call_us(Layer::kLogSync));
  add("service.checkpoint_us", "us",
      per_call_us(Layer::kCheckpoint));
  add("service.checkpoints", "count", m.counts.checkpoints / n);
  const double polls = static_cast<double>(T.Poll(Layer::kPollOnce).calls);
  add("service.poll_self_us", "us",
      polls > 0 ? T.Poll(Layer::kPollOnce).self_ns / polls / 1e3
                : 0.0);
  add("service.recovery_open_ms", "ms",
      rs.totals.Poll(Layer::kMonitorCtor).total_ns / nr / 1e6);
  add("service.replay_ns_per_event", "ns",
      rs.totals.Poll(Layer::kPollOnce).total_ns / nr / records);
  add("unattributed_ms", "ms", unattributed / n / 1e6);
  add("tracing.overhead_pct", "%", (untraced_eps / traced_eps - 1.0) * 100.0);
  if (live) {  // metrics only the live workload exercises
    add("trace.repolls_per_block", "ratio",
        m.counts.blocks > 0 ? m.counts.repolls / m.counts.blocks : 0);
    add("gen.late_max_ms", "ms",
        med([](const auto& p) { return p.late_max_ms; }));
    add("live.poll_busy_share", "ratio",
        med([](const auto& p) { return p.poll_busy_share; }));
    add("live.max_poll_ms", "ms",
        med([](const auto& p) { return p.max_poll_ms; }));
  }
  return out;
}

void PrintJson(bool correct, const Tally& tally,
               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(num, sizeof num, "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + num +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Run(const Args& args) {
  perfbench::MarkPollThread();
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);
  std::printf("# stamp cpu=\"%s\" nproc=%u compiler=\"%s\" build=%s "
              "commit=%s\n",
              CpuModel().c_str(), std::thread::hardware_concurrency(),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, args.commit.c_str());
  std::fflush(stdout);

  fs::remove_all(args.work_dir);
  fs::create_directories(args.work_dir);
  const Setup s = RunSetup(args);
  std::printf("# set-up: %llu records, %zu radios, reference %s\n",
              static_cast<unsigned long long>(s.records), s.radios,
              Describe(s.reference).c_str());
  std::fflush(stdout);

  Tally tally;
  std::vector<PassResult> untraced;
  std::vector<PassResult> traced;
  Traced tr;
  const bool live = args.workload == "live";
  // Batch passes warm caches and lazy set-up first (early passes in a
  // fresh process run far below steady state); the live pass is long
  // enough to warm itself.
  if (!live) RunPass(args, s, false, tally, nullptr);
  const auto start = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  do {
    untraced.push_back(RunPass(args, s, false, tally, nullptr));
    if (args.trace == 1) {
      perfbench::SetTracing(true);
      traced.push_back(RunPass(args, s, true, tally, &tr));
      perfbench::SetTracing(false);
    }
  } while (elapsed() < args.seconds && tally.failed == 0);

  std::printf("\nend-to-end (untraced, %zu pass%s):\n", untraced.size(),
              untraced.size() == 1 ? "" : "es");
  const std::vector<Metric> e2e = EndToEnd(untraced, s, tally, live);
  for (const Metric& m : e2e) PrintMetric(m);
  for (const std::string& e : tally.errors) {
    std::printf("  FAILED: %s\n", e.c_str());
  }
  const bool correct = tally.failed == 0 && tally.attempted > 0;
  if (args.trace == 0) {
    std::printf("\n");
    PrintJson(correct, tally, e2e);
    return correct ? 0 : 1;
  }
  const double records = static_cast<double>(s.records);
  const auto eps = [&](const std::vector<PassResult>& v) {
    return perfbench::Median(
        Collect(v, [&](const auto& p) { return records / p.work_s; }));
  };
  const auto cpu = [&](const std::vector<PassResult>& v) {
    return perfbench::Median(
        Collect(v, [&](const auto& p) { return p.cpu_s / records * 1e9; }));
  };
  std::vector<Metric> layers =
      PerLayer(tr, s, traced, eps(untraced), eps(traced), cpu(untraced),
               cpu(traced), live);
  // Live freshness comes from the untraced passes: tracing shifts it.
  if (live) {
    for (Metric& m : Freshness(untraced)) layers.push_back(std::move(m));
  }
  std::printf("\nper-layer (traced):\n");
  for (const Metric& m : layers) PrintMetric(m);
  if (!args.spans.empty()) perfbench::WriteSpans(args.spans);
  std::printf("\n");
  PrintJson(correct, tally, layers);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = ParseArgs(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  int rc = 1;
  try {
    rc = Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    rc = 1;
  }
  std::error_code ec;
  fs::remove_all(args.work_dir, ec);
  return rc;
}
