// Live monitor: streaming merge feeding per-second network statistics.
//
// Demonstrates the online path the paper's architecture was built for:
// MergeTracesStreaming delivers time-ordered jframes as the single-pass
// merge produces them (no trace-sized buffering) — here with the
// channel-sharded parallel merge, so the pipeline keeps up with deployments
// far larger than one core could serve — and the AnalysisBus fans the
// stream out to the OnlineMonitor (windowed health stats — activity,
// traffic mix, utilization, synchronization quality — exactly what a NOC
// dashboard would poll) and a dispersion CDF, all in the same pass.
//
// With --follow the monitor runs against radios that are *still capturing*:
// it tails the .jigt files in a directory (e.g. one being filled by
// `jigtool demo-live`), drives a resumable MergeSession as the files grow,
// and prints periodic Figure 9 (interference) / Figure 11 (TCP loss)
// snapshots until every writer finalizes.
//
// --metrics-interval <s> dumps the pipeline metric registry (Prometheus
// text format, see docs/OBSERVABILITY.md) every s seconds while following.
//
// Usage: ./build/examples/live_monitor [seconds] [threads]
//        ./build/examples/live_monitor --follow <dir> [radios] [threads]
//            [--spill-dir <sdir>] [--metrics-interval <s>]
//
// Exit codes (jigtool's contract): 0 success, 1 missing directory or other
// runtime failure, 2 usage error (an unknown --option included), 3 corrupt
// or truncated trace input.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "jigsaw/analysis/bus.h"
#include "jigsaw/pipeline.h"
#include "obs/export.h"
#include "sim/scenario.h"
#include "trace/trace_file.h"

namespace {

using namespace jig;

void PrintHeader() {
  std::printf("  %8s %8s %7s %7s %7s %8s %8s %7s %7s %9s\n", "window",
              "jframes", "data", "mgmt", "ctrl", "clients", "APs", "util",
              "bcast", "sync-disp");
}

// Wall-clock HH:MM:SS for snapshot headers — a live dashboard line is only
// interpretable if you can tell *when* it was true.
std::string WallClockNow() {
  const std::time_t now = std::time(nullptr);
  std::tm tm_buf{};
  localtime_r(&now, &tm_buf);
  char buf[16];
  std::strftime(buf, sizeof buf, "%H:%M:%S", &tm_buf);
  return buf;
}

int RunFollow(const char* dir, std::size_t radios, unsigned threads,
              const char* spill_dir, long metrics_interval_s) {
  // The writer may not have created any trace yet, but the directory
  // itself must exist: a typo should fail fast, not after the settle
  // timeout.
  if (!std::filesystem::is_directory(dir)) {
    std::fprintf(stderr, "no such directory: %s\n", dir);
    return 1;
  }
  std::printf("following %s ...\n", dir);
  TraceSet traces = TraceSet::FollowDirectory(dir, radios);
  std::printf("tailing %zu traces\n", traces.size());
  PrintHeader();

  UniversalMicros origin = 0;
  AnalysisBus bus;
  bus.Emplace<OnlineMonitorConsumer>(
      Seconds(1), [&](const OnlineWindowStats& w) {
        if (origin == 0) origin = w.window_start;
        std::printf("  %6llds %8llu %7llu %7llu %7llu %8d %8d %6.1f%% "
                    "%6.1f%% %7lldus\n",
                    static_cast<long long>((w.window_start - origin) /
                                           kMicrosPerSecond),
                    static_cast<unsigned long long>(w.jframes),
                    static_cast<unsigned long long>(w.data_frames),
                    static_cast<unsigned long long>(w.mgmt_frames),
                    static_cast<unsigned long long>(w.ctrl_frames),
                    w.active_clients, w.active_aps,
                    100.0 * w.airtime_fraction,
                    100.0 * w.broadcast_airtime_fraction,
                    static_cast<long long>(w.worst_dispersion));
      });
  auto& link = bus.Emplace<LinkConsumer>();
  auto& interference = bus.Emplace<InterferenceConsumer>(link);
  auto& tcp_loss = bus.Emplace<TcpLossConsumer>(link);

  MergeConfig mcfg;
  mcfg.threads = threads;
  // A radio that lags far behind the rest gates the merge; it must not
  // stall the other channels' capture side: while gated, their shard
  // backlog spills to disk instead of throttling at the queue watermark.
  if (spill_dir != nullptr) mcfg.spill_dir = spill_dir;
  MergeSession session(traces, mcfg, bus.Sink());

  const auto snapshot = [&](const char* tag) {
    const auto fig9 = interference.SnapshotReport();
    const auto fig11 = tcp_loss.SnapshotReport();
    std::printf("  [%s %s lag %lldus] fig9: %zu (s,r) pairs (%.1f%% "
                "interfered) | fig11: %llu flows, loss %.4f (%.4f wireless) "
                "| %llu jframes, %zu retained\n",
                tag, WallClockNow().c_str(),
                static_cast<long long>(session.live_lag_us()),
                fig9.pairs.size(), 100.0 * fig9.fraction_pairs_interfered,
                static_cast<unsigned long long>(fig11.flows_considered),
                fig11.aggregate_loss_rate, fig11.aggregate_wireless_rate,
                static_cast<unsigned long long>(session.jframes_emitted()),
                session.retained_jframes());
  };
  const auto dump_metrics = [&] {
    std::printf("%s\n",
                obs::ToPrometheusText(session.MetricsSnapshot()).c_str());
  };

  auto last_snapshot = std::chrono::steady_clock::now();
  auto last_metrics = last_snapshot;
  for (;;) {
    const auto status = session.Poll();
    if (status == MergeSession::Status::kDone) break;
    const auto now = std::chrono::steady_clock::now();
    if (session.bootstrapped() &&
        now - last_snapshot >= std::chrono::seconds(1)) {
      snapshot("live");
      last_snapshot = now;
    }
    if (metrics_interval_s > 0 &&
        now - last_metrics >= std::chrono::seconds(metrics_interval_s)) {
      dump_metrics();
      last_metrics = now;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  bus.Finish();
  snapshot("final");
  if (metrics_interval_s > 0) dump_metrics();
  const auto stats = session.stats();
  std::printf("done: merged %llu events into %llu jframes "
              "(%zu/%zu radios synced, peak retention %zu jframes, "
              "%llu spilled)\n",
              static_cast<unsigned long long>(stats.events_in),
              static_cast<unsigned long long>(stats.jframes),
              session.bootstrap().SyncedCount(),
              session.bootstrap().synced.size(),
              session.peak_retained_jframes(),
              static_cast<unsigned long long>(session.spilled_jframes()));
  return 0;
}

int Run(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--follow") == 0) {
    const char* spill_dir = nullptr;
    long metrics_interval_s = 0;
    std::vector<const char*> pos;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--spill-dir") == 0) {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "--spill-dir needs a directory argument\n");
          return 2;
        }
        spill_dir = argv[++i];
        continue;
      }
      if (std::strcmp(argv[i], "--metrics-interval") == 0) {
        if (i + 1 >= argc) {
          std::fprintf(stderr,
                       "--metrics-interval needs a seconds argument\n");
          return 2;
        }
        metrics_interval_s = std::atol(argv[++i]);
        continue;
      }
      if (std::strncmp(argv[i], "--", 2) == 0) {
        std::fprintf(stderr, "unknown option: %s\n", argv[i]);
        return 2;
      }
      pos.push_back(argv[i]);
    }
    if (pos.empty()) {
      std::fprintf(stderr,
                   "usage: live_monitor --follow <trace_dir> [radios] "
                   "[threads] [--spill-dir <sdir>] "
                   "[--metrics-interval <s>]\n");
      return 2;
    }
    return RunFollow(pos[0],
                     pos.size() > 1
                         ? static_cast<std::size_t>(std::atol(pos[1]))
                         : 0,
                     static_cast<unsigned>(
                         pos.size() > 2 ? std::atol(pos[2]) : 0),
                     spill_dir, metrics_interval_s);
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      return 2;
    }
  }
  const Micros duration = Seconds(argc > 1 ? std::atol(argv[1]) : 15);
  const auto threads =
      static_cast<unsigned>(argc > 2 ? std::atol(argv[2]) : 0);

  ScenarioConfig config;
  config.seed = 6;
  config.duration = duration;
  config.clients = 28;
  config.workload.web_per_min = 4.0;
  Scenario scenario(config);
  scenario.Run();
  TraceSet traces = scenario.TakeTraces();

  PrintHeader();

  UniversalMicros origin = 0;
  AnalysisBus bus;
  auto& online = bus.Emplace<OnlineMonitorConsumer>(
      Seconds(1), [&](const OnlineWindowStats& w) {
        if (origin == 0) origin = w.window_start;
        std::printf("  %6llds %8llu %7llu %7llu %7llu %8d %8d %6.1f%% "
                    "%6.1f%% %7lldus\n",
                    static_cast<long long>((w.window_start - origin) /
                                           kMicrosPerSecond),
                    static_cast<unsigned long long>(w.jframes),
                    static_cast<unsigned long long>(w.data_frames),
                    static_cast<unsigned long long>(w.mgmt_frames),
                    static_cast<unsigned long long>(w.ctrl_frames),
                    w.active_clients, w.active_aps,
                    100.0 * w.airtime_fraction,
                    100.0 * w.broadcast_airtime_fraction,
                    static_cast<long long>(w.worst_dispersion));
      });
  auto& dispersion = bus.Emplace<DispersionConsumer>();
  // Link + TCP-loss health ride the windowed reconstructor in the same
  // pass: exactly what a NOC would alarm on, still with no trace-sized
  // buffer (peak jframe retention is bounded by the 500 ms exchange
  // timeout).
  auto& link = bus.Emplace<LinkConsumer>();
  auto& tcp_loss = bus.Emplace<TcpLossConsumer>(link);

  // The streaming path: no jframe vector is ever materialized.
  MergeConfig mcfg;
  mcfg.threads = threads;
  const auto stats = MergeTracesStreaming(traces, mcfg, bus.Sink());
  bus.Finish();

  std::printf("\n%llu windows; merged %llu events one-pass "
              "(%zu/%zu radios synced); sync p90 %.0f us over %llu "
              "multi-instance jframes\n",
              static_cast<unsigned long long>(
                  online.monitor().windows_emitted()),
              static_cast<unsigned long long>(stats.stats.events_in),
              stats.bootstrap.SyncedCount(), stats.bootstrap.synced.size(),
              dispersion.distribution().empty()
                  ? 0.0
                  : dispersion.distribution().Quantile(0.90),
              static_cast<unsigned long long>(
                  dispersion.distribution().size()));
  std::printf("link health: %llu exchanges (%.2f%% inferred); TCP loss "
              "%.4f over %llu flows (%.4f wireless); peak window %zu "
              "jframes\n",
              static_cast<unsigned long long>(link.stats().exchanges),
              100.0 * link.stats().ExchangeInferenceRate(),
              tcp_loss.report().aggregate_loss_rate,
              static_cast<unsigned long long>(
                  tcp_loss.report().flows_considered),
              tcp_loss.report().aggregate_wireless_rate,
              link.peak_window_jframes());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Failures surface as exit codes, never as an uncaught-exception abort.
  try {
    return Run(argc, argv);
  } catch (const jig::TraceError& e) {  // corrupt or truncated input
    std::fprintf(stderr, "%s\n", e.what());
    return 3;
  } catch (const std::exception& e) {  // e.g. no traces before the deadline
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}
