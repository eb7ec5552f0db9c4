// jigtool: command-line front end for stored trace directories.
//
// The workflow the original project shipped for its released software:
// point the tool at a directory of per-radio capture files and ask
// questions.  Subcommands:
//
//   jigtool demo <dir>              simulate a session and store traces
//   jigtool demo-live <dir> [s] [ms]  simulate, then *write the traces
//                                   incrementally* (Sync every chunk,
//                                   finalize at the end) — a stand-in live
//                                   writer for `follow` and `stats`
//   jigtool info <dir>              per-radio record counts and clock info
//   jigtool merge <dir> [threads] [--spill-dir <sdir>]
//                 [--spill-threshold <n>] [--stats-json <file>]
//                                   run the merge, print summary statistics
//                                   (threads: 0 = auto, 1 = one worker, on
//                                   the calling thread;
//                                   --spill-dir stages shard backlog on disk
//                                   while a lagging radio gates the merge,
//                                   instead of throttling at the watermark;
//                                   --spill-threshold overrides the queue
//                                   depth that engages the tier;
//                                   --stats-json writes the pipeline metric
//                                   registry as JSON after the run;
//                                   threads never changes the output)
//   jigtool follow <dir> [radios] [threads] [--spill-dir <sdir>]
//                 [--spill-threshold <n>]
//                                   tail a directory that is still being
//                                   written: per-second OnlineMonitor rows,
//                                   a Figure 9/11 line every second stamped
//                                   with wall-clock time and merge lag, and
//                                   at the end the summary `merge` prints
//                                   over the finished directory
//   jigtool stats <dir> [interval_s] [--stats-json <file>]
//                                   run (or tail) the merge and expose the
//                                   metric registry in Prometheus text
//                                   format — every interval_s while live,
//                                   once more when done
//   jigtool inspect-spill <dir>     decode the spill segments in a directory
//                                   per docs/FORMATS.md (a living check that
//                                   the spec matches the code)
//   jigtool timeline <dir> [us]     Figure-2 style view of a window
//
// Network doors (docs/FORMATS.md "Socket transport", docs/ARCHITECTURE.md
// "Two-level distributed merge"):
//
//   jigtool serve-trace <file.jigt> <host> <port>
//                                   push one trace file's framed bytes to a
//                                   collector: hello + header + blocks +
//                                   finalize marker (never the index).  A
//                                   truncated file streams its complete
//                                   blocks, then closes WITHOUT the marker
//                                   so the receiver sees the cut too.
//   jigtool collect <out_dir> <port> <n> [--ready-file <file>]
//                                   accept n socket trace streams on
//                                   127.0.0.1:<port> and persist each as an
//                                   indexed .jigt in <out_dir>.
//                                   --ready-file atomically writes <file>
//                                   (containing the bound port) once the
//                                   listener is accepting — the readiness
//                                   door scripts poll instead of sleeping
//   jigtool demo-live <dir> [s] [ms] --tcp <port>
//                                   the demo-live radios stream to a
//                                   collector on 127.0.0.1:<port> instead of
//                                   writing files (<dir> is ignored)
//   jigtool wing <dir> <root_host> <root_port> [wing_id] [threads]
//                                   wing node: local merge over <dir>'s
//                                   radios, relaying each record stream to
//                                   the root
//   jigtool root <port> <n> [threads] [--spill-dir <sdir>]
//                                   root node: accept n radio streams from
//                                   the wings on 127.0.0.1:<port> and run
//                                   the global merge
//
// Always-on service (docs/ARCHITECTURE.md "The monitoring service"):
//
//   jigtool serve <state_root> <trace_dir> [<trace_dir>...]
//                 [--expected <n>] [--window-us <us>] [--max-bytes <n>]
//                 [--interval-ms <ms>] [--analysis] [--until-done]
//                 [--spill-dir <sdir>]
//                                   long-running monitoring daemon: one
//                                   deployment per trace directory, all
//                                   multiplexed through a single poll
//                                   loop.  Per-deployment durable output
//                                   logs, .jigc checkpoints, and rolling
//                                   retention live under
//                                   <state_root>/<deployment>/; the
//                                   service snapshot (JSON) and metric
//                                   registry (Prometheus text) are
//                                   atomically replaced at
//                                   <state_root>/snapshot.json and
//                                   <state_root>/metrics.prom every
//                                   --interval-ms (default 500).  Runs
//                                   until SIGTERM/SIGINT (clean shutdown:
//                                   pending output published, final
//                                   checkpoint + snapshot written, exit
//                                   0), or — with --until-done — until
//                                   every deployment's traces finalize.
//                                   A crashed-and-restarted serve over
//                                   the same state_root recovers from the
//                                   checkpoints and appends exactly the
//                                   jframes the uninterrupted run would
//                                   have.
//
// Exit codes: 0 success, 1 unreadable/missing input or unreachable peer,
// 2 usage error (an unknown --option, a flag the command does not take, or
// a number argument that is not a whole non-negative integer), 3 corrupt
// or truncated input (every command that reads traces or spill segments,
// and every network door — a mid-stream disconnect is truncation).  serve
// follows the same contract: an unloadable .jigc checkpoint or a
// deployment that ends failed is 3; a missing trace directory is 1; a
// SIGTERM'd daemon exits 0 after its final snapshot flush.
//
// merge, follow and stats are one driver (Drive below): one pass over the
// traces feeds the whole stock analysis chain.  It is fully windowed (link,
// interference and TCP loss ride the incremental reconstructor), so memory
// stays O(exchange-timeout window).  timeline opts into the collector
// buffer because rendering needs the whole jframe vector.
//
// Usage: ./build/examples/jigtool <command> <trace_dir> [args]
#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "jigsaw/analysis/bus.h"
#include "jigsaw/analysis/visualize.h"
#include "jigsaw/distributed.h"
#include "jigsaw/pipeline.h"
#include "jigsaw/service.h"
#include "jigsaw/spill.h"
#include "obs/export.h"
#include "online_table.h"
#include "sim/scenario.h"
#include "trace/net.h"
#include "trace/socket_trace.h"
#include "trace/trace_file.h"

namespace {

using namespace jig;

int CmdDemo(const char* dir) {
  ScenarioConfig config;
  config.seed = 10;
  config.duration = Seconds(10);
  config.clients = 20;
  Scenario scenario(config);
  scenario.Run();
  TraceSet traces = scenario.TakeTraces();
  const auto paths = traces.WriteDirectory(dir);
  std::printf("wrote %zu traces to %s\n", paths.size(), dir);
  return 0;
}

// Replays a simulated capture as a live writer: the traces are appended in
// capture-time chunks with a Sync (block cut + flush) after each, so a
// concurrent `jigtool follow` sees the files grow; every trace is
// finalized at the end.
int CmdDemoLive(const char* dir, long seconds, long chunk_wall_ms) {
  ScenarioConfig config;
  config.seed = 10;
  config.duration = Seconds(seconds);
  config.clients = 20;
  Scenario scenario(config);
  scenario.Run();
  TraceSet traces = scenario.TakeTraces();

  TraceSetWriter writer(dir);
  std::vector<const std::vector<CaptureRecord>*> records;
  std::vector<std::size_t> cursor(traces.size(), 0);
  std::vector<LocalMicros> first_ts(traces.size(), 0);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    auto& mem = dynamic_cast<MemoryTrace&>(traces.at(i));
    writer.AddRadio(mem.header());
    records.push_back(&mem.records());
    if (!mem.records().empty()) first_ts[i] = mem.records().front().timestamp;
  }
  // Chunk in capture time relative to each radio's own first record (local
  // clock bases differ per monitor), so every radio's file grows in
  // lockstep — the way real captures do.
  constexpr int kChunks = 20;
  const Micros chunk_span = config.duration / kChunks;
  std::printf("live-writing %zu traces to %s in %d chunks (%ld ms apart)\n",
              traces.size(), dir, kChunks, chunk_wall_ms);
  for (int chunk = 1;; ++chunk) {
    bool any_left = false;
    for (std::size_t i = 0; i < traces.size(); ++i) {
      const auto& recs = *records[i];
      const auto end =
          static_cast<LocalMicros>(first_ts[i] + chunk * chunk_span);
      while (cursor[i] < recs.size() && recs[cursor[i]].timestamp < end) {
        writer.Append(i, recs[cursor[i]++]);
      }
      any_left = any_left || cursor[i] < recs.size();
    }
    writer.Sync();
    // A radio with nothing more to say finalizes immediately — like a
    // capture daemon shutting down — so a quiet radio never stalls the
    // followers' bootstrap or merge watermark for the whole session.
    for (std::size_t i = 0; i < traces.size(); ++i) {
      if (cursor[i] >= records[i]->size()) writer.Finalize(i);
    }
    if (!any_left) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(chunk_wall_ms));
  }
  writer.FinalizeAll();
  std::printf("finalized %zu traces\n", writer.size());
  return 0;
}

// demo-live over TCP: the simulated radios each connect to a collector
// and stream their capture in capture-time chunks — the network twin of
// the file-based demo-live above.
int CmdDemoLiveTcp(long seconds, long chunk_wall_ms, long tcp_port) {
  ScenarioConfig config;
  config.seed = 10;
  config.duration = Seconds(seconds);
  config.clients = 20;
  Scenario scenario(config);
  scenario.Run();
  TraceSet traces = scenario.TakeTraces();

  std::vector<std::unique_ptr<SocketTraceWriter>> uplinks;
  std::vector<const std::vector<CaptureRecord>*> records;
  std::vector<std::size_t> cursor(traces.size(), 0);
  std::vector<LocalMicros> first_ts(traces.size(), 0);
  try {
    for (std::size_t i = 0; i < traces.size(); ++i) {
      auto& mem = dynamic_cast<MemoryTrace&>(traces.at(i));
      uplinks.push_back(std::make_unique<SocketTraceWriter>(
          net::ConnectTo("127.0.0.1", static_cast<std::uint16_t>(tcp_port)),
          mem.header()));
      records.push_back(&mem.records());
      if (!mem.records().empty()) {
        first_ts[i] = mem.records().front().timestamp;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot reach collector on port %ld: %s\n",
                 tcp_port, e.what());
    return 1;
  }
  constexpr int kChunks = 20;
  const Micros chunk_span = config.duration / kChunks;
  std::printf("live-streaming %zu traces to 127.0.0.1:%ld in %d chunks "
              "(%ld ms apart)\n",
              traces.size(), tcp_port, kChunks, chunk_wall_ms);
  std::vector<bool> finished(traces.size(), false);
  for (int chunk = 1;; ++chunk) {
    bool any_left = false;
    for (std::size_t i = 0; i < traces.size(); ++i) {
      const auto& recs = *records[i];
      const auto end =
          static_cast<LocalMicros>(first_ts[i] + chunk * chunk_span);
      while (cursor[i] < recs.size() && recs[cursor[i]].timestamp < end) {
        uplinks[i]->Append(recs[cursor[i]++]);
      }
      any_left = any_left || cursor[i] < recs.size();
    }
    for (std::size_t i = 0; i < traces.size(); ++i) {
      uplinks[i]->Sync();
      // Same early-finalize behavior as the file writer: a radio with
      // nothing more to say ends its stream immediately.
      if (!finished[i] && cursor[i] >= records[i]->size()) {
        uplinks[i]->Finish();
        finished[i] = true;
      }
    }
    if (!any_left) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(chunk_wall_ms));
  }
  std::printf("finalized %zu streams\n", traces.size());
  return 0;
}

// Pushes one trace file's framed bytes to a collector.  Relays raw bytes
// block-by-block — it never re-encodes, and it never sends the index
// trailer (the socket stream ends at the finalize marker).  A truncated
// file relays its complete blocks and then closes WITHOUT the marker, so
// the receiver observes the same truncation (exit 3 on both ends).
int CmdServeTrace(const char* file, const char* host, long port) {
  std::FILE* f = std::fopen(file, "rb");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", file);
    return 1;
  }
  struct Closer {
    std::FILE* f;
    ~Closer() { std::fclose(f); }
  } closer{f};

  const auto read_exact = [f](void* buf, std::size_t n) {
    return std::fread(buf, 1, n, f) == n;
  };
  const auto decode_u32 = [](const std::uint8_t* b) {
    return static_cast<std::uint32_t>(b[0]) |
           (static_cast<std::uint32_t>(b[1]) << 8) |
           (static_cast<std::uint32_t>(b[2]) << 16) |
           (static_cast<std::uint32_t>(b[3]) << 24);
  };

  std::uint8_t prefix[12];  // magic + version + header_len
  if (!read_exact(prefix, sizeof prefix)) {
    std::fprintf(stderr, "truncated input: %s ends inside the file header\n",
                 file);
    return 3;
  }
  if (std::memcmp(prefix, kTraceDataMagic, 4) != 0 ||
      decode_u32(prefix + 4) != kTraceVersion) {
    std::fprintf(stderr, "corrupt input: bad magic/version in %s\n", file);
    return 3;
  }
  const std::uint32_t hdr_len = decode_u32(prefix + 8);
  if (hdr_len > kMaxPackedBlockLen) {
    std::fprintf(stderr, "corrupt input: garbage header length in %s\n",
                 file);
    return 3;
  }
  std::vector<std::uint8_t> header(hdr_len);
  if (!read_exact(header.data(), header.size())) {
    std::fprintf(stderr, "truncated input: %s ends inside the header\n",
                 file);
    return 3;
  }

  net::Socket sock;
  try {
    sock = net::ConnectTo(host, static_cast<std::uint16_t>(port));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot reach collector: %s\n", e.what());
    return 1;
  }
  try {
    std::uint8_t hello[12];
    std::memcpy(hello, kSocketHelloMagic, 4);
    const std::uint32_t hello_rest[2] = {kSocketHelloVersion, 0};
    std::memcpy(hello + 4, hello_rest, 8);
    net::SendAll(sock, hello, sizeof hello);
    net::SendAll(sock, prefix, sizeof prefix);
    net::SendAll(sock, header.data(), header.size());

    std::uint64_t blocks = 0;
    for (;;) {
      std::uint8_t len_buf[4];
      if (!read_exact(len_buf, sizeof len_buf)) {
        std::fprintf(stderr,
                     "truncated input: %s has no finalize marker "
                     "(streamed %llu complete blocks, closing without one)\n",
                     file, static_cast<unsigned long long>(blocks));
        return 3;
      }
      const std::uint32_t packed_len = decode_u32(len_buf);
      if (packed_len == 0) {
        net::SendAll(sock, len_buf, sizeof len_buf);  // the marker
        std::printf("served %s: %llu blocks + finalize marker\n", file,
                    static_cast<unsigned long long>(blocks));
        return 0;
      }
      if (packed_len > kMaxPackedBlockLen) {
        std::fprintf(stderr, "corrupt input: garbage block length in %s\n",
                     file);
        return 3;
      }
      std::vector<std::uint8_t> block(packed_len);
      if (!read_exact(block.data(), block.size())) {
        std::fprintf(stderr,
                     "truncated input: %s ends inside a block "
                     "(closing without the marker)\n",
                     file);
        return 3;
      }
      net::SendAll(sock, len_buf, sizeof len_buf);
      net::SendAll(sock, block.data(), block.size());
      ++blocks;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "collector went away mid-stream: %s\n", e.what());
    return 3;
  }
}

// Accepts n socket trace streams and persists each as an indexed .jigt —
// the ingest half of a collector: network in, seekable files out.
int CmdCollect(const char* out_dir, long port, long n,
               const char* ready_file) {
  try {
    net::Listener listener("127.0.0.1", static_cast<std::uint16_t>(port));
    std::printf("collecting %ld streams on 127.0.0.1:%u ...\n", n,
                listener.port());
    if (ready_file != nullptr) {
      // The listener is bound: senders may dial from here on.  Atomic, so
      // a poller never reads a half-written port number.
      obs::WriteFileAtomic(ready_file, std::to_string(listener.port()));
    }
    TraceSet traces = AcceptTraces(listener, static_cast<std::size_t>(n));
    std::filesystem::create_directories(out_dir);
    std::vector<std::unique_ptr<TraceFileWriter>> writers;
    std::vector<SocketTrace*> sockets;
    for (std::size_t i = 0; i < traces.size(); ++i) {
      auto& st = dynamic_cast<SocketTrace&>(traces.at(i));
      sockets.push_back(&st);
      writers.push_back(std::make_unique<TraceFileWriter>(
          std::filesystem::path(out_dir) /
              ("r" + std::to_string(st.header().radio) + ".jigt"),
          st.header()));
    }
    std::vector<bool> done(traces.size(), false);
    std::vector<std::uint64_t> written(traces.size(), 0);
    for (;;) {
      bool all_done = true;
      bool progress = false;
      for (std::size_t i = 0; i < traces.size(); ++i) {
        if (done[i]) continue;
        while (const CaptureRecord* rec = sockets[i]->NextRef()) {
          writers[i]->Append(*rec);
          ++written[i];
          progress = true;
        }
        if (sockets[i]->Finalized()) {
          writers[i]->Finish();
          done[i] = true;
          std::printf("  r%u finalized: %llu records\n",
                      sockets[i]->header().radio,
                      static_cast<unsigned long long>(written[i]));
          progress = true;
        } else {
          all_done = false;
        }
      }
      if (all_done) break;
      if (!progress) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    std::printf("collected %zu traces into %s\n", traces.size(), out_dir);
    return 0;
  } catch (const TraceTruncatedError& e) {
    std::fprintf(stderr, "truncated stream: %s\n", e.what());
    return 3;
  } catch (const TraceCorruptError& e) {
    std::fprintf(stderr, "corrupt stream: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

// Wing node: local merge over a trace directory, relaying every radio's
// record stream to the root (docs/ARCHITECTURE.md, two-level topology).
int CmdWing(const char* dir, const char* root_host, long root_port,
            long wing_id, unsigned threads, const char* spill_dir) {
  TraceSet traces = TraceSet::OpenDirectory(dir);
  if (traces.empty()) {
    std::fprintf(stderr, "no .jigt files in %s\n", dir);
    return 1;
  }
  try {
    WingConfig cfg;
    cfg.wing_id = static_cast<std::uint32_t>(wing_id);
    cfg.root_host = root_host;
    cfg.root_port = static_cast<std::uint16_t>(root_port);
    cfg.merge.threads = threads;
    if (spill_dir != nullptr) cfg.merge.spill_dir = spill_dir;
    WingSession wing(traces, cfg);
    const auto stats = wing.Run();
    std::printf("wing %ld: relayed %llu records from %zu radios "
                "(%llu local jframes)\n",
                wing_id,
                static_cast<unsigned long long>(wing.records_relayed()),
                traces.size(),
                static_cast<unsigned long long>(stats.stats.jframes));
    return 0;
  } catch (const TraceTruncatedError& e) {
    std::fprintf(stderr, "truncated input: %s\n", e.what());
    return 3;
  } catch (const TraceCorruptError& e) {
    std::fprintf(stderr, "corrupt input: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

// Root node: global merge over every wing's relayed radio streams.
int CmdRoot(long port, long n, unsigned threads, const char* spill_dir) {
  try {
    RootConfig cfg;
    cfg.port = static_cast<std::uint16_t>(port);
    cfg.n_streams = static_cast<std::size_t>(n);
    cfg.merge.threads = threads;
    if (spill_dir != nullptr) cfg.merge.spill_dir = spill_dir;
    RootSession root(cfg);
    std::printf("root: accepting %ld streams on 127.0.0.1:%u ...\n", n,
                root.port());
    const auto stats = root.Run([](JFrame&&) {});
    std::printf("radios synced:     %zu/%zu\n",
                stats.bootstrap.SyncedCount(), stats.bootstrap.synced.size());
    std::printf("jframes:           %llu (%llu across wing boundaries)\n",
                static_cast<unsigned long long>(root.jframes()),
                static_cast<unsigned long long>(root.boundary_jframes()));
    std::printf("events:            %llu (%llu valid)\n",
                static_cast<unsigned long long>(stats.stats.events_in),
                static_cast<unsigned long long>(stats.stats.valid_in));
    return 0;
  } catch (const TraceTruncatedError& e) {
    std::fprintf(stderr, "truncated stream: %s\n", e.what());
    return 3;
  } catch (const TraceCorruptError& e) {
    std::fprintf(stderr, "corrupt stream: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

// SIGTERM/SIGINT door for `jigtool serve`: the handler only sets a flag;
// the poll loop notices it between rounds and walks the clean-shutdown
// path (publish pending output, final checkpoint, final snapshot).
volatile std::sig_atomic_t g_serve_stop = 0;

extern "C" void ServeStopHandler(int) { g_serve_stop = 1; }

struct ServeOptions {
  long expected = 0;        // traces to wait for, per deployment (0: first scan)
  long window_us = 0;       // rolling retention window (0: unbounded)
  long max_bytes = 0;       // per-deployment output-log cap (0: uncapped)
  long interval_ms = 500;   // snapshot/metrics exposition cadence
  bool analysis = false;    // run the stock analysis chain per deployment
  bool until_done = false;  // exit once every deployment finishes
  const char* spill_dir = nullptr;
};

// Always-on monitoring daemon over one or more trace directories.  Each
// directory becomes a DeploymentMonitor named after its basename with
// private state under <state_root>/<name>/; the MonitorService multiplexes
// all of them through one poll loop and exposes snapshot.json +
// metrics.prom in <state_root>.
int CmdServe(const char* state_root, const std::vector<const char*>& dirs,
             const ServeOptions& opt) {
  namespace fs = std::filesystem;
  std::error_code ec;
  for (const char* d : dirs) {
    if (!fs::is_directory(d, ec)) {
      std::fprintf(stderr, "not a directory: %s\n", d);
      return 1;
    }
  }
  fs::create_directories(state_root, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create state root %s: %s\n", state_root,
                 ec.message().c_str());
    return 1;
  }

  ServiceConfig scfg;
  scfg.snapshot_path = fs::path(state_root) / "snapshot.json";
  scfg.metrics_path = fs::path(state_root) / "metrics.prom";
  scfg.snapshot_interval = std::chrono::milliseconds(
      opt.interval_ms > 0 ? opt.interval_ms : 500);
  MonitorService service(scfg);

  std::set<std::string> names;
  for (const char* d : dirs) {
    std::string name = fs::path(d).filename().string();
    if (name.empty()) name = fs::path(d).parent_path().filename().string();
    if (name.empty()) name = "deployment";
    while (!names.insert(name).second) name += "x";  // collision: suffix
    DeploymentConfig cfg;
    cfg.name = name;
    cfg.trace_dir = d;
    cfg.state_dir = fs::path(state_root) / name;
    cfg.expected_traces = static_cast<std::size_t>(opt.expected);
    cfg.retention_window_us = opt.window_us;
    cfg.max_output_bytes = static_cast<std::uint64_t>(opt.max_bytes);
    cfg.analysis = opt.analysis;
    if (opt.spill_dir != nullptr) {
      cfg.merge.spill_dir = (fs::path(opt.spill_dir) / name).string();
    }
    try {
      service.AddDeployment(std::move(cfg));
    } catch (const TraceError& e) {
      // Unrecoverable state (corrupt/truncated checkpoint or log).
      std::fprintf(stderr, "cannot recover deployment %s: %s\n",
                   name.c_str(), e.what());
      return 3;
    }
  }
  std::printf("serving %zu deployment(s); state in %s\n",
              service.deployments(), state_root);

  g_serve_stop = 0;
  std::signal(SIGTERM, ServeStopHandler);
  std::signal(SIGINT, ServeStopHandler);
  // Write the first exposition immediately: a supervisor (or test) polls
  // snapshot.json for readiness and must not race the first interval.
  service.WriteSnapshot();
  service.WriteMetrics();
  service.Run([&service, &opt] {
    if (g_serve_stop) return false;
    if (!opt.until_done) return true;
    for (std::size_t i = 0; i < service.deployments(); ++i) {
      const auto s = service.monitor(i).state();
      if (s == DeploymentMonitor::State::kDiscovering ||
          s == DeploymentMonitor::State::kRunning) {
        return true;
      }
    }
    return false;  // --until-done and every deployment settled
  });

  bool failed = false;
  for (std::size_t i = 0; i < service.deployments(); ++i) {
    DeploymentMonitor& m = service.monitor(i);
    const auto st = m.Status();
    std::printf("  %s: %s, %llu jframes (%llu recovered), %llu bytes in "
                "%llu segment(s)\n",
                st.name.c_str(), st.state.c_str(),
                static_cast<unsigned long long>(st.jframes),
                static_cast<unsigned long long>(st.recovered),
                static_cast<unsigned long long>(st.output_bytes),
                static_cast<unsigned long long>(st.output_segments));
    if (m.state() == DeploymentMonitor::State::kFailed) failed = true;
  }
  if (failed) {
    std::fprintf(stderr, "one or more deployments failed (see log above)\n");
    return 3;
  }
  std::printf("serve: clean shutdown\n");
  return 0;
}

int CmdInfo(const char* dir) {
  TraceSet traces = TraceSet::OpenDirectory(dir);
  if (traces.empty()) {
    std::fprintf(stderr, "no .jigt files in %s\n", dir);
    return 1;
  }
  std::printf("%zu traces in %s\n", traces.size(), dir);
  std::printf("  %-6s %-5s %-8s %-6s %10s %16s\n", "radio", "pod", "monitor",
              "chan", "records", "ntp@local0 (us)");
  for (std::size_t i = 0; i < traces.size(); ++i) {
    auto& ft = dynamic_cast<FileTrace&>(traces.at(i));
    const TraceHeader& h = ft.header();
    std::printf("  %-6u %-5u %-8u %-6s %10llu %16lld\n", h.radio, h.pod,
                h.monitor, ChannelName(h.channel).c_str(),
                static_cast<unsigned long long>(ft.reader().TotalRecords()),
                static_cast<long long>(h.ntp_utc_of_local_zero_us));
  }
  return 0;
}

// --------------------------------------------------------------- arguments

// A malformed command line: main() reports it and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Counts, ports, sizes and durations: the whole argument must be a
// non-negative decimal integer.
long ParseNumber(std::string_view what, const char* text) {
  const char* end = text + std::strlen(text);
  long value = 0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || value < 0) {
    throw UsageError(std::string(what) + " needs a non-negative integer, " +
                     "got '" + text + "'");
  }
  return value;
}

struct FlagSpec {
  std::string_view name;
  bool takes_value;
  std::array<std::string_view, 5> commands;  // the commands that take it
};

// Every jigtool flag.  An unknown flag, or one given to a command it is
// not listed for, is a usage error.
constexpr FlagSpec kFlags[] = {
    {"--spill-dir", true, {"merge", "follow", "wing", "root", "serve"}},
    {"--spill-threshold", true, {"merge", "follow"}},
    {"--stats-json", true, {"merge", "stats"}},
    {"--tcp", true, {"demo-live"}},
    {"--ready-file", true, {"collect"}},
    {"--expected", true, {"serve"}},
    {"--window-us", true, {"serve"}},
    {"--max-bytes", true, {"serve"}},
    {"--interval-ms", true, {"serve"}},
    {"--analysis", false, {"serve"}},
    {"--until-done", false, {"serve"}},
};

// A parsed command line: the command, its <dir|file|port> slot, the
// positionals after it, and the flags it was given.  Numbers are parsed
// where a command reads them, before it does any work.
struct Args {
  std::string_view cmd;
  const char* target = nullptr;
  std::vector<const char*> pos;
  std::map<std::string_view, const char*> flags;  // "" for a switch

  const char* Text(std::string_view flag) const {
    const auto it = flags.find(flag);
    return it == flags.end() ? nullptr : it->second;
  }
  long Number(std::string_view flag, long fallback) const {
    const char* text = Text(flag);
    return text == nullptr ? fallback : ParseNumber(flag, text);
  }
  // Positional i as a number, or `fallback` when it was not given.
  long Pos(std::size_t i, std::string_view what, long fallback) const {
    return i < pos.size() ? ParseNumber(what, pos[i]) : fallback;
  }
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  args.cmd = argv[1];
  args.target = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      args.pos.push_back(argv[i]);
      continue;
    }
    const auto* spec = std::find_if(
        std::begin(kFlags), std::end(kFlags),
        [arg](const FlagSpec& f) { return f.name == arg; });
    if (spec == std::end(kFlags)) {
      throw UsageError("unknown option: " + std::string(arg));
    }
    if (std::find(spec->commands.begin(), spec->commands.end(), args.cmd) ==
        spec->commands.end()) {
      throw UsageError(std::string(arg) + " does not apply to '" +
                       std::string(args.cmd) + "'");
    }
    if (spec->takes_value && i + 1 >= argc) {
      throw UsageError(std::string(arg) + " needs an argument");
    }
    args.flags[spec->name] = spec->takes_value ? argv[++i] : "";
  }
  return args;
}

// ------------------------------------------------------------------ driver
//
// merge, follow and stats share one driver.  A door chooses only its
// trace set (batch OpenDirectory for merge, tail FollowDirectory for
// follow and stats) and what it prints while the merge runs; the stock
// analysis chain, the MergeSession and the Poll() loop are the same.

enum class Door { kMerge, kFollow, kStats };

// The stock analysis chain: windowed link reconstruction feeding the
// interference and TCP-loss figures, plus the dispersion CDF.  Pinned in
// place: the merge's sink holds the bus's address.
struct StockChain {
  StockChain() = default;
  StockChain(const StockChain&) = delete;
  StockChain& operator=(const StockChain&) = delete;

  AnalysisBus bus;
  LinkConsumer& link = bus.Emplace<LinkConsumer>();
  InterferenceConsumer& interference =
      bus.Emplace<InterferenceConsumer>(link);
  TcpLossConsumer& tcp_loss = bus.Emplace<TcpLossConsumer>(link);
  DispersionConsumer& dispersion = bus.Emplace<DispersionConsumer>();
};

// True when `dir` holds at least one .jigt file, published or not.
bool HasTraceFile(const char* dir) {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".jigt") return true;
  }
  return false;
}

// Wall-clock HH:MM:SS for follow's tick lines — a live dashboard line is
// only interpretable if you can tell *when* it was true.
std::string WallClockNow() {
  const std::time_t now = std::time(nullptr);
  std::tm tm_buf{};
  localtime_r(&now, &tm_buf);
  char buf[16];
  std::strftime(buf, sizeof buf, "%H:%M:%S", &tm_buf);
  return buf;
}

std::string RegistryText() {
  return obs::ToPrometheusText(obs::MetricRegistry::Global().Collect());
}

// What a door prints while the merge runs (tag "live") and, for follow,
// once more at the end (tag "final").  merge prints nothing: a batch
// merge completes in one Poll().
void PrintTick(Door door, const char* tag, const MergeSession& session,
               const StockChain& chain) {
  if (door == Door::kStats) {
    std::printf("# live merge lag: %lld us\n%s\n",
                static_cast<long long>(session.live_lag_us()),
                RegistryText().c_str());
  }
  if (door != Door::kFollow || !session.bootstrapped()) return;
  const auto fig9 = chain.interference.SnapshotReport();
  const auto fig11 = chain.tcp_loss.SnapshotReport();
  std::printf("  [%s %s lag %lldus] fig9: %zu (s,r) pairs (%.1f%% "
              "interfered) | fig11: %llu flows, loss %.4f (%.4f wireless) "
              "| %llu jframes, %zu retained (peak %zu), %llu spilled\n",
              tag, WallClockNow().c_str(),
              static_cast<long long>(session.live_lag_us()),
              fig9.pairs.size(), 100.0 * fig9.fraction_pairs_interfered,
              static_cast<unsigned long long>(fig11.flows_considered),
              fig11.aggregate_loss_rate, fig11.aggregate_wireless_rate,
              static_cast<unsigned long long>(session.jframes_emitted()),
              session.retained_jframes(), session.peak_retained_jframes(),
              static_cast<unsigned long long>(session.spilled_jframes()));
}

// The summary merge and follow both end with.  Every line is a function
// of the emitted stream alone, so a follow that tailed a capture to its
// end prints exactly what a merge of the finished directory prints.
void PrintSummary(const MergeSession& session, const StockChain& chain) {
  const BootstrapResult& boot = session.bootstrap();
  const UnifyStats st = session.stats();
  std::printf("radios synced:     %zu/%zu (BFS depth %d, |G|=%zu)\n",
              boot.SyncedCount(), boot.synced.size(), boot.max_bfs_depth,
              boot.sync_set_size);
  std::printf("events:            %llu (%llu valid, %llu FCS-err, %llu "
              "PHY-err)\n",
              static_cast<unsigned long long>(st.events_in),
              static_cast<unsigned long long>(st.valid_in),
              static_cast<unsigned long long>(st.fcs_error_in),
              static_cast<unsigned long long>(st.phy_error_in));
  std::printf("jframes:           %llu (%.2f events each, %llu resyncs)\n",
              static_cast<unsigned long long>(st.jframes),
              st.EventsPerJframe(),
              static_cast<unsigned long long>(st.resyncs));
  const Distribution& dispersion = chain.dispersion.distribution();
  if (!dispersion.empty()) {
    std::printf("sync dispersion:   p50 %.0f us, p90 %.0f us, p99 %.0f us\n",
                dispersion.Quantile(0.50), dispersion.Quantile(0.90),
                dispersion.Quantile(0.99));
  }
  const LinkStats& link = chain.link.stats();
  std::printf("link layer:        %llu attempts -> %llu exchanges "
              "(%.2f%% / %.2f%% inferred)\n",
              static_cast<unsigned long long>(link.attempts),
              static_cast<unsigned long long>(link.exchanges),
              100.0 * link.AttemptInferenceRate(),
              100.0 * link.ExchangeInferenceRate());
  const InterferenceReport& fig9 = chain.interference.report();
  std::printf("interference:      %zu (s,r) pairs, %.1f%% interfered, "
              "background loss %.3f\n",
              fig9.pairs.size(), 100.0 * fig9.fraction_pairs_interfered,
              fig9.mean_background_loss);
  const TcpLossReport& fig11 = chain.tcp_loss.report();
  std::printf("tcp loss:          %llu flows, %.4f aggregate "
              "(%.4f wireless / %.4f wired)\n",
              static_cast<unsigned long long>(fig11.flows_considered),
              fig11.aggregate_loss_rate, fig11.aggregate_wireless_rate,
              fig11.aggregate_wired_rate);
  const std::uint64_t seen = chain.bus.jframes_seen();
  const std::size_t peak = chain.link.peak_window_jframes();
  std::printf("stream window:     peak %zu jframes buffered "
              "(%.2f%% of %llu)\n",
              peak,
              seen ? 100.0 * static_cast<double>(peak) /
                         static_cast<double>(seen)
                   : 0.0,
              static_cast<unsigned long long>(seen));
}

// Positionals: merge [threads]; follow [radios] [threads]; stats
// [interval_s].
int Drive(Door door, const Args& a) {
  const char* dir = a.target;
  MergeConfig cfg;  // stats keeps the default threading
  if (door != Door::kStats) {
    cfg.threads = static_cast<unsigned>(
        a.Pos(door == Door::kFollow ? 1 : 0, "threads", 0));
  }
  if (const char* spill_dir = a.Text("--spill-dir")) cfg.spill_dir = spill_dir;
  if (const long n = a.Number("--spill-threshold", 0); n > 0) {
    cfg.spill_threshold = static_cast<std::size_t>(n);
  }
  const auto radios = static_cast<std::size_t>(
      door == Door::kFollow ? a.Pos(0, "radios", 0) : 0);
  const long interval_s =
      door == Door::kStats ? std::max(1L, a.Pos(0, "interval_s", 1)) : 1;
  const char* stats_json = a.Text("--stats-json");

  // Missing input fails fast: follow may start before the writer creates
  // its first trace, but its directory must exist; stats needs a trace
  // file now rather than after FollowDirectory's settle timeout.
  TraceSet traces;
  if (door == Door::kMerge) {
    traces = TraceSet::OpenDirectory(dir);
  } else if (door == Door::kStats ? HasTraceFile(dir)
                                  : std::filesystem::is_directory(dir)) {
    if (door == Door::kFollow) std::printf("following %s ...\n", dir);
    traces = TraceSet::FollowDirectory(dir, radios);
  }
  if (traces.empty()) {
    std::fprintf(stderr, "no .jigt files in %s\n", dir);
    return 1;
  }

  StockChain chain;
  if (door == Door::kFollow) {
    std::printf("tailing %zu traces\n", traces.size());
    PrintOnlineHeader();
    chain.bus.Emplace<OnlineMonitorConsumer>(Seconds(1),
                                             OnlineTablePrinter());
  }
  MergeSession session(traces, cfg, chain.bus.Sink());

  auto last_tick = std::chrono::steady_clock::now();
  while (session.Poll() != MergeSession::Status::kDone) {
    const auto now = std::chrono::steady_clock::now();
    if (now - last_tick >= std::chrono::seconds(interval_s)) {
      PrintTick(door, "live", session, chain);
      last_tick = now;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  chain.bus.Finish();

  if (door == Door::kStats) {
    std::printf("%s", RegistryText().c_str());
  } else {
    PrintTick(door, "final", session, chain);
    PrintSummary(session, chain);
  }
  if (stats_json != nullptr) {
    obs::WriteFileAtomic(stats_json,
                         obs::ToJson(obs::MetricRegistry::Global().Collect()));
    std::fprintf(stderr, "wrote metrics JSON to %s\n", stats_json);
  }
  return 0;
}

// Decodes every spill segment in a directory using the strict reader —
// exactly the docs/FORMATS.md rules, so this doubles as a living check
// that the spec matches the code.  A directory left by a crashed session
// reports truncation/corruption per segment instead of dying on the first.
int CmdInspectSpill(const char* dir) {
  namespace fs = std::filesystem;
  std::vector<fs::path> segments;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".jigs") segments.push_back(entry.path());
  }
  if (ec) {
    std::fprintf(stderr, "cannot read %s: %s\n", dir, ec.message().c_str());
    return 1;
  }
  if (segments.empty()) {
    std::fprintf(stderr, "no .jigs segments in %s\n", dir);
    return 1;
  }
  // FIFO order is (channel, sequence); lexicographic filename order would
  // misplace seq >= 10 (ch6-10 before ch6-2), misrepresenting the spill
  // stream this tool exists to diagnose.
  const auto segment_key = [](const fs::path& p) {
    unsigned chan = 0;
    unsigned long long seq = 0;
    if (std::sscanf(p.filename().string().c_str(), "ch%u-%llu.jigs", &chan,
                    &seq) != 2) {
      chan = ~0u;  // foreign names sort last, still deterministically
    }
    return std::tuple(chan, seq, p.filename().string());
  };
  std::sort(segments.begin(), segments.end(),
            [&segment_key](const fs::path& a, const fs::path& b) {
              return segment_key(a) < segment_key(b);
            });
  std::printf("%zu spill segments in %s\n", segments.size(), dir);
  std::printf("  %-22s %-5s %-4s %8s %8s %10s  %s\n", "segment", "chan",
              "seq", "blocks", "jframes", "bytes", "status");
  int rc = 0;
  for (const auto& path : segments) {
    const auto name = path.filename().string();
    try {
      SpillSegmentReader reader(path, /*strict=*/true);
      UniversalMicros first_ts = 0;
      UniversalMicros last_ts = 0;
      while (const auto jf = reader.Next()) {
        if (reader.records_read() == 1) first_ts = jf->timestamp;
        last_ts = jf->timestamp;
      }
      std::printf("  %-22s %-5u %-4llu %8llu %8llu %10ju  finalized "
                  "[%lld..%lld us]\n",
                  name.c_str(), reader.header().channel,
                  static_cast<unsigned long long>(reader.header().sequence),
                  static_cast<unsigned long long>(reader.blocks_read()),
                  static_cast<unsigned long long>(reader.records_read()),
                  static_cast<std::uintmax_t>(fs::file_size(path)),
                  static_cast<long long>(first_ts),
                  static_cast<long long>(last_ts));
    } catch (const TraceTruncatedError& e) {
      std::printf("  %-22s %-5s %-4s %8s %8s %10s  TRUNCATED: %s\n",
                  name.c_str(), "-", "-", "-", "-", "-", e.what());
      rc = 3;
    } catch (const TraceCorruptError& e) {
      std::printf("  %-22s %-5s %-4s %8s %8s %10s  CORRUPT: %s\n",
                  name.c_str(), "-", "-", "-", "-", "-", e.what());
      rc = 3;
    } catch (const std::exception& e) {
      // Unreadable file, stat failure, plain read error: still report it
      // per segment rather than dying before the rest are inspected.
      std::printf("  %-22s %-5s %-4s %8s %8s %10s  ERROR: %s\n",
                  name.c_str(), "-", "-", "-", "-", "-", e.what());
      rc = std::max(rc, 1);
    }
  }
  return rc;
}

int CmdTimeline(const char* dir, Micros span) {
  TraceSet traces = TraceSet::OpenDirectory(dir);
  if (traces.empty()) {
    std::fprintf(stderr, "no .jigt files in %s\n", dir);
    return 1;
  }
  AnalysisBus bus;
  auto& collector = bus.Emplace<CollectorConsumer>();
  bus.SetTerminal(collector);
  MergeTracesStreaming(traces, {}, bus.Sink());
  bus.Finish();
  TimelineOptions options;
  options.span = span;
  // Start at the first busy multi-instance DATA frame.
  for (const JFrame& jf : collector.jframes()) {
    if (jf.frame.type == FrameType::kData && jf.InstanceCount() >= 3) {
      options.start = jf.timestamp - 100;
      break;
    }
  }
  std::printf("%s", RenderTimeline(collector.jframes(), options).c_str());
  return 0;
}

int Run(int argc, char** argv) {
  if (argc < 3) {
    throw UsageError(
        "usage: jigtool demo|demo-live|info|merge|follow|stats|"
        "inspect-spill|timeline|serve-trace|collect|wing|root|serve "
        "<dir|file|port> [args] [--option ...]");
  }
  const Args a = ParseArgs(argc, argv);
  const std::string_view cmd = a.cmd;
  const char* dir = a.target;
  if (cmd == "demo") return CmdDemo(dir);
  if (cmd == "demo-live") {
    const long seconds = a.Pos(0, "seconds", 10);
    const long chunk_ms = a.Pos(1, "chunk ms", 250);
    if (a.Text("--tcp") != nullptr) {
      // <dir> is ignored in TCP mode: the radios stream to a collector
      // instead of appending files.
      return CmdDemoLiveTcp(seconds, chunk_ms, a.Number("--tcp", 0));
    }
    return CmdDemoLive(dir, seconds, chunk_ms);
  }
  if (cmd == "serve-trace") {
    if (a.pos.size() < 2) {
      throw UsageError("usage: jigtool serve-trace <file.jigt> <host> <port>");
    }
    return CmdServeTrace(dir, a.pos[0], a.Pos(1, "port", 0));
  }
  if (cmd == "collect") {
    if (a.pos.size() < 2) {
      throw UsageError("usage: jigtool collect <out_dir> <port> <n> "
                       "[--ready-file <file>]");
    }
    return CmdCollect(dir, a.Pos(0, "port", 0), a.Pos(1, "n", 0),
                      a.Text("--ready-file"));
  }
  if (cmd == "wing") {
    if (a.pos.size() < 2) {
      throw UsageError("usage: jigtool wing <dir> <root_host> <root_port> "
                       "[wing_id] [threads]");
    }
    return CmdWing(dir, a.pos[0], a.Pos(1, "root_port", 0),
                   a.Pos(2, "wing_id", 0),
                   static_cast<unsigned>(a.Pos(3, "threads", 0)),
                   a.Text("--spill-dir"));
  }
  if (cmd == "root") {
    // <dir> slot carries the port for this command.
    if (a.pos.empty()) {
      throw UsageError(
          "usage: jigtool root <port> <n> [threads] [--spill-dir <sdir>]");
    }
    return CmdRoot(ParseNumber("port", dir), a.Pos(0, "n", 0),
                   static_cast<unsigned>(a.Pos(1, "threads", 0)),
                   a.Text("--spill-dir"));
  }
  if (cmd == "serve") {
    // <dir> slot carries the state root; every positional is a deployment.
    if (a.pos.empty()) {
      throw UsageError(
          "usage: jigtool serve <state_root> <trace_dir> [<trace_dir>...] "
          "[--expected <n>] [--window-us <us>] [--max-bytes <n>] "
          "[--interval-ms <ms>] [--analysis] [--until-done] "
          "[--spill-dir <sdir>]");
    }
    ServeOptions serve_opt;
    serve_opt.expected = a.Number("--expected", 0);
    serve_opt.window_us = a.Number("--window-us", 0);
    serve_opt.max_bytes = a.Number("--max-bytes", 0);
    serve_opt.interval_ms = a.Number("--interval-ms", 500);
    serve_opt.analysis = a.Text("--analysis") != nullptr;
    serve_opt.until_done = a.Text("--until-done") != nullptr;
    serve_opt.spill_dir = a.Text("--spill-dir");
    return CmdServe(dir, a.pos, serve_opt);
  }
  if (cmd == "info") return CmdInfo(dir);
  if (cmd == "merge") return Drive(Door::kMerge, a);
  if (cmd == "follow") return Drive(Door::kFollow, a);
  if (cmd == "stats") return Drive(Door::kStats, a);
  if (cmd == "inspect-spill") return CmdInspectSpill(dir);
  if (cmd == "timeline") return CmdTimeline(dir, a.Pos(0, "span us", 5000));
  throw UsageError("unknown command: " + std::string(cmd));
}

}  // namespace

int main(int argc, char** argv) {
  // Every failure honors the exit-code contract instead of aborting.
  try {
    return Run(argc, argv);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  } catch (const TraceError& e) {  // corrupt or truncated input
    std::fprintf(stderr, "%s\n", e.what());
    return 3;
  } catch (const std::exception& e) {  // missing input, settle timeout, ...
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}
