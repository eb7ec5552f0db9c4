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
//                                   writer for --follow consumers
//   jigtool info <dir>              per-radio record counts and clock info
//   jigtool merge <dir> [threads] [--spill-dir <sdir>]
//                 [--spill-threshold <n>] [--stats-json <file>]
//                                   run the merge, print summary statistics
//                                   (threads: 0 = auto, 1 = one worker, on
//                                   the calling thread;
//                                   --spill-dir stages shard backlog on disk
//                                   instead of throttling at the watermark;
//                                   --spill-threshold overrides the queue
//                                   depth that engages the tier;
//                                   --stats-json writes the pipeline metric
//                                   registry as JSON after the run;
//                                   threads never changes the output)
//   jigtool follow <dir> [radios] [threads] [--spill-dir <sdir>]
//                                   tail a directory that is still being
//                                   written: resumable MergeSession +
//                                   analysis bus, merge summary at the end
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
// 2 usage error (including an unknown --option), 3 corrupt or truncated
// input (every command that reads traces or spill segments, and every
// network door — a mid-stream disconnect is truncation).  serve
// follows the same contract: an unloadable .jigc checkpoint or a
// deployment that ends failed is 3; a missing trace directory is 1; a
// SIGTERM'd daemon exits 0 after its final snapshot flush.
//
// The merge, follow and timeline commands run the streaming pipeline into
// the analysis bus — one pass over the traces feeds every analysis at once.
// merge/follow are fully windowed (link, interference and TCP loss ride the
// incremental reconstructor; memory stays O(exchange-timeout window));
// timeline opts into the collector buffer because rendering needs the
// whole jframe vector.
//
// Usage: ./build/examples/jigtool <command> <trace_dir> [args]
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
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
// concurrent `jigtool follow` / `live_monitor --follow` sees the files
// grow; every trace is finalized at the end.
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

int CmdMerge(const char* dir, unsigned threads, const char* spill_dir,
             long spill_threshold, const char* stats_json) {
  TraceSet traces = TraceSet::OpenDirectory(dir);
  if (traces.empty()) {
    std::fprintf(stderr, "no .jigt files in %s\n", dir);
    return 1;
  }
  // One streaming pass: the (optionally channel-sharded parallel) merge
  // feeds the windowed link reconstruction, the interference and TCP-loss
  // figures and the dispersion CDF through the bus — no jframe vector is
  // ever materialized; peak buffering is bounded by the 500 ms exchange
  // timeout.
  AnalysisBus bus;
  auto& link = bus.Emplace<LinkConsumer>();
  auto& interference = bus.Emplace<InterferenceConsumer>(link);
  auto& tcp_loss = bus.Emplace<TcpLossConsumer>(link);
  auto& dispersion = bus.Emplace<DispersionConsumer>();
  MergeConfig cfg;
  cfg.threads = threads;
  if (spill_dir != nullptr) cfg.spill_dir = spill_dir;
  if (spill_threshold > 0) {
    cfg.spill_threshold = static_cast<std::size_t>(spill_threshold);
  }
  const auto stream = MergeTracesStreaming(traces, cfg, bus.Sink());
  bus.Finish();

  const auto& st = stream.stats;
  std::printf("radios synced:     %zu/%zu (BFS depth %d, |G|=%zu)\n",
              stream.bootstrap.SyncedCount(), stream.bootstrap.synced.size(),
              stream.bootstrap.max_bfs_depth,
              stream.bootstrap.sync_set_size);
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
  if (!dispersion.distribution().empty()) {
    std::printf("sync dispersion:   p50 %.0f us, p90 %.0f us, p99 %.0f us\n",
                dispersion.distribution().Quantile(0.50),
                dispersion.distribution().Quantile(0.90),
                dispersion.distribution().Quantile(0.99));
  }
  std::printf("link layer:        %llu attempts -> %llu exchanges "
              "(%.2f%% / %.2f%% inferred)\n",
              static_cast<unsigned long long>(link.stats().attempts),
              static_cast<unsigned long long>(link.stats().exchanges),
              100.0 * link.stats().AttemptInferenceRate(),
              100.0 * link.stats().ExchangeInferenceRate());
  std::printf("interference:      %zu (s,r) pairs, %.1f%% interfered, "
              "background loss %.3f\n",
              interference.report().pairs.size(),
              100.0 * interference.report().fraction_pairs_interfered,
              interference.report().mean_background_loss);
  std::printf("tcp loss:          %llu flows, %.4f aggregate "
              "(%.4f wireless / %.4f wired)\n",
              static_cast<unsigned long long>(
                  tcp_loss.report().flows_considered),
              tcp_loss.report().aggregate_loss_rate,
              tcp_loss.report().aggregate_wireless_rate,
              tcp_loss.report().aggregate_wired_rate);
  std::printf("stream window:     peak %zu jframes buffered "
              "(%.2f%% of %llu)\n",
              link.peak_window_jframes(),
              bus.jframes_seen()
                  ? 100.0 * static_cast<double>(link.peak_window_jframes()) /
                        static_cast<double>(bus.jframes_seen())
                  : 0.0,
              static_cast<unsigned long long>(bus.jframes_seen()));
  if (stats_json != nullptr) {
    obs::WriteFileAtomic(stats_json,
                         obs::ToJson(obs::MetricRegistry::Global().Collect()));
    std::printf("metrics json:      %s\n", stats_json);
  }
  return 0;
}

// Tails a directory of growing traces with a resumable MergeSession and
// prints periodic Figure 9/11 snapshots; once every writer finalizes, the
// summary is identical to `jigtool merge` over the finished files (the
// live stream is byte-identical to the batch stream by construction).
int CmdFollow(const char* dir, std::size_t radios, unsigned threads,
              const char* spill_dir, long spill_threshold) {
  // The writer may not have created any trace yet, but the directory
  // itself must exist: a typo should fail fast, not after the settle
  // timeout.
  if (!std::filesystem::is_directory(dir)) {
    std::fprintf(stderr, "no such directory: %s\n", dir);
    return 1;
  }
  std::printf("following %s ...\n", dir);
  TraceSet traces;
  try {
    traces = TraceSet::FollowDirectory(dir, radios);
  } catch (const TraceError&) {
    throw;  // corrupt input: exit 3, below
  } catch (const std::runtime_error& e) {  // no traces before the deadline
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  std::printf("tailing %zu traces\n", traces.size());

  AnalysisBus bus;
  auto& link = bus.Emplace<LinkConsumer>();
  auto& interference = bus.Emplace<InterferenceConsumer>(link);
  auto& tcp_loss = bus.Emplace<TcpLossConsumer>(link);
  auto& dispersion = bus.Emplace<DispersionConsumer>();
  MergeConfig cfg;
  cfg.threads = threads;
  if (spill_dir != nullptr) cfg.spill_dir = spill_dir;
  if (spill_threshold > 0) {
    cfg.spill_threshold = static_cast<std::size_t>(spill_threshold);
  }
  MergeSession session(traces, cfg, bus.Sink());

  auto last_snapshot = std::chrono::steady_clock::now();
  for (;;) {
    const auto status = session.Poll();
    if (status == MergeSession::Status::kDone) break;
    const auto now = std::chrono::steady_clock::now();
    if (session.bootstrapped() &&
        now - last_snapshot >= std::chrono::seconds(1)) {
      const auto fig9 = interference.SnapshotReport();
      const auto fig11 = tcp_loss.SnapshotReport();
      std::printf("  [live] %llu jframes | fig9 %zu pairs (%.1f%% "
                  "interfered) | fig11 %llu flows loss %.4f | "
                  "%zu retained, %llu spilled\n",
                  static_cast<unsigned long long>(session.jframes_emitted()),
                  fig9.pairs.size(),
                  100.0 * fig9.fraction_pairs_interfered,
                  static_cast<unsigned long long>(fig11.flows_considered),
                  fig11.aggregate_loss_rate, session.retained_jframes(),
                  static_cast<unsigned long long>(
                      session.spilled_jframes()));
      last_snapshot = now;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  bus.Finish();

  const auto st = session.stats();
  std::printf("radios synced:     %zu/%zu\n",
              session.bootstrap().SyncedCount(),
              session.bootstrap().synced.size());
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
  if (!dispersion.distribution().empty()) {
    std::printf("sync dispersion:   p50 %.0f us, p90 %.0f us, p99 %.0f us\n",
                dispersion.distribution().Quantile(0.50),
                dispersion.distribution().Quantile(0.90),
                dispersion.distribution().Quantile(0.99));
  }
  std::printf("interference:      %zu (s,r) pairs, %.1f%% interfered\n",
              interference.report().pairs.size(),
              100.0 * interference.report().fraction_pairs_interfered);
  std::printf("tcp loss:          %llu flows, %.4f aggregate "
              "(%.4f wireless / %.4f wired)\n",
              static_cast<unsigned long long>(
                  tcp_loss.report().flows_considered),
              tcp_loss.report().aggregate_loss_rate,
              tcp_loss.report().aggregate_wireless_rate,
              tcp_loss.report().aggregate_wired_rate);
  std::printf("live retention:    peak %zu jframes buffered, %llu spilled "
              "to disk\n",
              session.peak_retained_jframes(),
              static_cast<unsigned long long>(session.spilled_jframes()));
  return 0;
}

// Runs (or tails) the merge over a directory and exposes the pipeline
// metric registry in Prometheus text format: one dump every `interval_s`
// while the run is live, and a final dump once it completes.  With
// --stats-json the final snapshot is also written as JSON.  Works on
// finalized and still-growing directories alike (FollowDirectory tails
// both).
int CmdStats(const char* dir, long interval_s, const char* stats_json) {
  namespace fs = std::filesystem;
  // Pre-check the directory so missing input fails fast instead of
  // spending FollowDirectory's settle timeout.
  std::error_code ec;
  bool any_trace = false;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".jigt") {
      any_trace = true;
      break;
    }
  }
  if (ec || !any_trace) {
    std::fprintf(stderr, "no .jigt files in %s\n", dir);
    return 1;
  }
  if (interval_s <= 0) interval_s = 1;
  try {
    TraceSet traces = TraceSet::FollowDirectory(dir);
    // Register the stock analysis chain so the bus/consumer metrics tick:
    // a stats run should expose the same stages a real merge exercises.
    AnalysisBus bus;
    auto& link = bus.Emplace<LinkConsumer>();
    bus.Emplace<InterferenceConsumer>(link);
    bus.Emplace<TcpLossConsumer>(link);
    MergeConfig cfg;
    MergeSession session(traces, cfg, bus.Sink());
    auto last_dump = std::chrono::steady_clock::now();
    for (;;) {
      const auto status = session.Poll();
      if (status == MergeSession::Status::kDone) break;
      const auto now = std::chrono::steady_clock::now();
      if (now - last_dump >= std::chrono::seconds(interval_s)) {
        std::printf("# live merge lag: %lld us\n%s\n",
                    static_cast<long long>(session.live_lag_us()),
                    obs::ToPrometheusText(session.MetricsSnapshot()).c_str());
        last_dump = now;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    bus.Finish();
    const auto snapshot = session.MetricsSnapshot();
    std::printf("%s", obs::ToPrometheusText(snapshot).c_str());
    if (stats_json != nullptr) {
      obs::WriteFileAtomic(stats_json, obs::ToJson(snapshot));
      std::fprintf(stderr, "wrote metrics JSON to %s\n", stats_json);
    }
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
    std::fprintf(stderr,
                 "usage: jigtool demo|demo-live|info|merge|follow|stats|"
                 "inspect-spill|timeline|serve-trace|collect|wing|root|serve "
                 "<dir|file|port> [args] [--spill-dir <sdir>] "
                 "[--stats-json <file>] "
                 "[--tcp <port>]\n");
    return 2;
  }
  const char* cmd = argv[1];
  const char* dir = argv[2];
  // Extract the flags any subcommand may carry; what remains are the
  // positional arguments.
  const char* spill_dir = nullptr;
  const char* stats_json = nullptr;
  long spill_threshold = 0;
  long tcp_port = -1;
  ServeOptions serve_opt;
  const char* ready_file = nullptr;
  std::vector<const char*> pos;
  const auto long_flag = [&](int& i, const char* flag, long& out) {
    if (std::strcmp(argv[i], flag) != 0) return false;
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s needs a numeric argument\n", flag);
      std::exit(2);
    }
    out = std::atol(argv[++i]);
    return true;
  };
  for (int i = 3; i < argc; ++i) {
    if (long_flag(i, "--expected", serve_opt.expected) ||
        long_flag(i, "--window-us", serve_opt.window_us) ||
        long_flag(i, "--max-bytes", serve_opt.max_bytes) ||
        long_flag(i, "--interval-ms", serve_opt.interval_ms)) {
      continue;
    }
    if (std::strcmp(argv[i], "--analysis") == 0) {
      serve_opt.analysis = true;
      continue;
    }
    if (std::strcmp(argv[i], "--ready-file") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--ready-file needs a file argument\n");
        return 2;
      }
      ready_file = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--until-done") == 0) {
      serve_opt.until_done = true;
      continue;
    }
    if (std::strcmp(argv[i], "--spill-dir") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--spill-dir needs a directory argument\n");
        return 2;
      }
      spill_dir = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--stats-json") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--stats-json needs a file argument\n");
        return 2;
      }
      stats_json = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--spill-threshold") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--spill-threshold needs a jframe count\n");
        return 2;
      }
      spill_threshold = std::atol(argv[++i]);
      continue;
    }
    if (std::strcmp(argv[i], "--tcp") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--tcp needs a port argument\n");
        return 2;
      }
      tcp_port = std::atol(argv[++i]);
      continue;
    }
    if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      return 2;
    }
    pos.push_back(argv[i]);
  }
  const auto pos_long = [&pos](std::size_t i, long fallback) {
    return pos.size() > i ? std::atol(pos[i]) : fallback;
  };
  if (spill_dir != nullptr && std::strcmp(cmd, "merge") != 0 &&
      std::strcmp(cmd, "follow") != 0 && std::strcmp(cmd, "root") != 0 &&
      std::strcmp(cmd, "wing") != 0 && std::strcmp(cmd, "serve") != 0) {
    std::fprintf(stderr,
                 "warning: --spill-dir only applies to merge/follow/wing/"
                 "root/serve; ignored for '%s'\n",
                 cmd);
  }
  if (tcp_port >= 0 && std::strcmp(cmd, "demo-live") != 0) {
    std::fprintf(stderr,
                 "warning: --tcp only applies to demo-live; "
                 "ignored for '%s'\n",
                 cmd);
  }
  if (stats_json != nullptr && std::strcmp(cmd, "merge") != 0 &&
      std::strcmp(cmd, "stats") != 0) {
    std::fprintf(stderr,
                 "warning: --stats-json only applies to merge/stats; "
                 "ignored for '%s'\n",
                 cmd);
  }
  if (std::strcmp(cmd, "demo") == 0) return CmdDemo(dir);
  if (std::strcmp(cmd, "demo-live") == 0) {
    if (tcp_port >= 0) {
      // <dir> is ignored in TCP mode: the radios stream to a collector
      // instead of appending files.
      return CmdDemoLiveTcp(pos_long(0, 10), pos_long(1, 250), tcp_port);
    }
    return CmdDemoLive(dir, pos_long(0, 10), pos_long(1, 250));
  }
  if (std::strcmp(cmd, "serve-trace") == 0) {
    if (pos.size() < 2) {
      std::fprintf(stderr,
                   "usage: jigtool serve-trace <file.jigt> <host> <port>\n");
      return 2;
    }
    return CmdServeTrace(dir, pos[0], std::atol(pos[1]));
  }
  if (std::strcmp(cmd, "collect") == 0) {
    if (pos.size() < 2) {
      std::fprintf(stderr,
                   "usage: jigtool collect <out_dir> <port> <n> "
                   "[--ready-file <file>]\n");
      return 2;
    }
    return CmdCollect(dir, std::atol(pos[0]), std::atol(pos[1]), ready_file);
  }
  if (std::strcmp(cmd, "wing") == 0) {
    if (pos.size() < 2) {
      std::fprintf(stderr,
                   "usage: jigtool wing <dir> <root_host> <root_port> "
                   "[wing_id] [threads]\n");
      return 2;
    }
    return CmdWing(dir, pos[0], std::atol(pos[1]), pos_long(2, 0),
                   static_cast<unsigned>(pos_long(3, 0)), spill_dir);
  }
  if (std::strcmp(cmd, "root") == 0) {
    // <dir> slot carries the port for this command.
    if (pos.empty()) {
      std::fprintf(stderr,
                   "usage: jigtool root <port> <n> [threads] "
                   "[--spill-dir <sdir>]\n");
      return 2;
    }
    return CmdRoot(std::atol(dir), std::atol(pos[0]),
                   static_cast<unsigned>(pos_long(1, 0)), spill_dir);
  }
  if (std::strcmp(cmd, "serve") == 0) {
    // <dir> slot carries the state root; every positional is a deployment.
    if (pos.empty()) {
      std::fprintf(stderr,
                   "usage: jigtool serve <state_root> <trace_dir> "
                   "[<trace_dir>...] [--expected <n>] [--window-us <us>] "
                   "[--max-bytes <n>] [--interval-ms <ms>] [--analysis] "
                   "[--until-done] [--spill-dir <sdir>]\n");
      return 2;
    }
    serve_opt.spill_dir = spill_dir;
    return CmdServe(dir, pos, serve_opt);
  }
  if (std::strcmp(cmd, "info") == 0) return CmdInfo(dir);
  if (std::strcmp(cmd, "merge") == 0) {
    return CmdMerge(dir, static_cast<unsigned>(pos_long(0, 0)), spill_dir,
                    spill_threshold, stats_json);
  }
  if (std::strcmp(cmd, "follow") == 0) {
    return CmdFollow(dir, static_cast<std::size_t>(pos_long(0, 0)),
                     static_cast<unsigned>(pos_long(1, 0)), spill_dir,
                     spill_threshold);
  }
  if (std::strcmp(cmd, "stats") == 0) {
    return CmdStats(dir, pos_long(0, 1), stats_json);
  }
  if (std::strcmp(cmd, "inspect-spill") == 0) return CmdInspectSpill(dir);
  if (std::strcmp(cmd, "timeline") == 0) {
    return CmdTimeline(dir, pos_long(0, 5000));
  }
  std::fprintf(stderr, "unknown command: %s\n", cmd);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Input errors no subcommand handled itself still honor the exit-code
  // contract instead of aborting.
  try {
    return Run(argc, argv);
  } catch (const TraceError& e) {  // corrupt or truncated input
    std::fprintf(stderr, "%s\n", e.what());
    return 3;
  } catch (const std::filesystem::filesystem_error& e) {  // missing input
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}
