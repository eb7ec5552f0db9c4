// Merge-pipeline tests: configuration validation, shard-mergeable stats,
// channel partitioning, and the determinism contract — the channel-sharded
// merge must emit, at every `threads` setting, the stream of the
// independent reference in merge_oracle.h (one global unifier, stably
// sorted).
#include "jigsaw/pipeline.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>

#include "jframe_equality.h"
#include "merge_oracle.h"
#include "sim/scenario.h"
#include "synthetic.h"
#include "trace/trace_file.h"

namespace jig {
namespace {

using testing::ExpectEqualStats;
using testing::ExpectIdenticalStreams;
using testing::MultiChannelNetwork;
using testing::OracleMerge;

TEST(MergeConfigValidation, RejectsHorizonNotExceedingSearchWindow) {
  TraceSet empty;
  MergeConfig cfg;
  cfg.unifier.search_window = Milliseconds(10);
  cfg.reorder_horizon = Milliseconds(10);  // == window: out-of-order hazard
  EXPECT_THROW(MergeTraces(empty, cfg), std::invalid_argument);
  EXPECT_THROW(MergeTracesStreaming(empty, cfg, [](JFrame&&) {}),
               std::invalid_argument);
  cfg.reorder_horizon = Milliseconds(5);  // < window
  EXPECT_THROW(MergeTraces(empty, cfg), std::invalid_argument);
}

TEST(MergeConfigValidation, RejectsNonPositiveSearchWindow) {
  TraceSet empty;
  MergeConfig cfg;
  cfg.unifier.search_window = 0;
  EXPECT_THROW(MergeTraces(empty, cfg), std::invalid_argument);
}

TEST(MergeConfigValidation, AcceptsDefaultAndWideConfigs) {
  MergeConfig cfg;
  EXPECT_NO_THROW(ValidateMergeConfig(cfg));
  cfg.unifier.search_window = Milliseconds(100);
  cfg.reorder_horizon = Milliseconds(200);
  EXPECT_NO_THROW(ValidateMergeConfig(cfg));
}

TEST(UnifyStatsTest, OperatorPlusEqualsSumsEveryCounter) {
  UnifyStats a;
  a.events_in = 10;
  a.valid_in = 8;
  a.fcs_error_in = 1;
  a.phy_error_in = 1;
  a.events_unified = 7;
  a.jframes = 4;
  a.error_instances_attached = 1;
  a.error_events_dropped = 2;
  a.resyncs = 3;
  UnifyStats b = a;
  b.events_in = 5;
  b.jframes = 2;
  a += b;
  EXPECT_EQ(a.events_in, 15u);
  EXPECT_EQ(a.valid_in, 16u);
  EXPECT_EQ(a.fcs_error_in, 2u);
  EXPECT_EQ(a.phy_error_in, 2u);
  EXPECT_EQ(a.events_unified, 14u);
  EXPECT_EQ(a.jframes, 6u);
  EXPECT_EQ(a.error_instances_attached, 2u);
  EXPECT_EQ(a.error_events_dropped, 4u);
  EXPECT_EQ(a.resyncs, 6u);
  EXPECT_DOUBLE_EQ(a.EventsPerJframe(), 14.0 / 6.0);
}

TEST(UnifyStatsTest, ShardMergedStatsEqualSinglePass) {
  // The merge sums per-shard UnifyStats with operator+=; at every thread
  // count the sum must equal the stats of one global unifier pass over the
  // same multi-channel scenario.
  auto single_traces = MultiChannelNetwork(11).Build();
  const auto single = OracleMerge(single_traces);
  ASSERT_GT(single.stats.jframes, 100u);
  for (unsigned threads : {1u, 2u, 0u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto sharded_traces = MultiChannelNetwork(11).Build();
    MergeConfig sharded_cfg;
    sharded_cfg.threads = threads;
    const auto sharded = MergeTraces(sharded_traces, sharded_cfg);
    ExpectEqualStats(single.stats, sharded.stats);
  }
}

TEST(BootstrapResultTest, SliceThenMergeReassembles) {
  BootstrapResult full;
  full.offset_us = {1.0, 2.0, 3.0, 4.0};
  full.synced = {true, false, true, true};
  full.reference_frames_considered = 40;
  full.sync_set_size = 3;
  full.max_bfs_depth = 2;

  BootstrapResult merged = full.Slice({0, 2});
  merged += full.Slice({1, 3});
  ASSERT_EQ(merged.offset_us.size(), 4u);
  EXPECT_EQ(merged.offset_us, (std::vector<double>{1.0, 3.0, 2.0, 4.0}));
  EXPECT_EQ(merged.synced, (std::vector<bool>{true, true, false, true}));
  EXPECT_EQ(merged.SyncedCount(), 3u);
  EXPECT_EQ(merged.reference_frames_considered, 80u);
  EXPECT_EQ(merged.max_bfs_depth, 2);
}

TEST(TraceSetPartition, RoundTripsThroughShards) {
  auto traces = MultiChannelNetwork(5).Build();
  ASSERT_EQ(traces.size(), 6u);
  std::vector<RadioId> original_radios;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    original_radios.push_back(traces.at(i).header().radio);
  }

  auto shards = traces.PartitionByChannel();
  EXPECT_TRUE(traces.empty());
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0].channel, Channel::kCh1);
  EXPECT_EQ(shards[1].channel, Channel::kCh6);
  EXPECT_EQ(shards[2].channel, Channel::kCh11);
  for (const auto& shard : shards) {
    ASSERT_EQ(shard.traces.size(), 2u);
    ASSERT_EQ(shard.source_index.size(), 2u);
    for (std::size_t i = 0; i < shard.traces.size(); ++i) {
      EXPECT_EQ(shard.traces.at(i).header().channel, shard.channel);
      EXPECT_EQ(shard.traces.at(i).header().radio,
                original_radios[shard.source_index[i]]);
    }
  }

  traces.AdoptShards(std::move(shards));
  ASSERT_EQ(traces.size(), 6u);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    EXPECT_EQ(traces.at(i).header().radio, original_radios[i]);
  }
}

// The determinism contract across >= 3 seeded multi-channel scenarios:
// every thread setting produces the oracle's stream.
class ParallelDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelDeterminism, ByteIdenticalAcrossThreadCounts) {
  const std::uint64_t seed = GetParam();
  auto base_traces = MultiChannelNetwork(seed).Build();
  const auto base = OracleMerge(base_traces);
  ASSERT_GT(base.jframes.size(), 100u);

  for (unsigned threads : {1u, 2u, 3u, 0u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto traces = MultiChannelNetwork(seed).Build();
    MergeConfig cfg;
    cfg.threads = threads;
    const auto parallel = MergeTraces(traces, cfg);
    ExpectIdenticalStreams(base.jframes, parallel.jframes);
    ExpectEqualStats(base.stats, parallel.stats);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDeterminism,
                         ::testing::Values(1u, 2u, 3u, 17u));

// The observability contract: metrics are write-only from the pipeline's
// point of view, so toggling the registry on/off must not change a single
// emitted byte — with the shards stepped inline or by a pool.
TEST(MetricsDeterminism, StreamIsByteIdenticalWithMetricsToggled) {
  auto oracle_traces = MultiChannelNetwork(7).Build();
  const auto oracle = OracleMerge(oracle_traces);
  for (unsigned threads : {1u, 3u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    MergeConfig cfg;
    cfg.threads = threads;

    obs::SetEnabled(true);
    auto on_traces = MultiChannelNetwork(7).Build();
    const auto with_metrics = MergeTraces(on_traces, cfg);
    ASSERT_GT(with_metrics.jframes.size(), 100u);

    obs::SetEnabled(false);
    auto off_traces = MultiChannelNetwork(7).Build();
    const auto without_metrics = MergeTraces(off_traces, cfg);
    obs::SetEnabled(true);

    ExpectIdenticalStreams(oracle.jframes, with_metrics.jframes);
    ExpectIdenticalStreams(oracle.jframes, without_metrics.jframes);
    ExpectEqualStats(oracle.stats, with_metrics.stats);
    ExpectEqualStats(oracle.stats, without_metrics.stats);
  }
}

// Metric names mean the same thing in every threading mode: whether the
// shards are stepped inline (threads=1) or by a pool (auto), the shard
// counters advance by exactly the merge's own UnifyStats.
TEST(MetricsConsistency, ShardCountersMatchStatsInEveryThreadMode) {
  obs::SetEnabled(true);
  for (unsigned threads : {1u, 0u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto traces = MultiChannelNetwork(5).Build();
    MergeConfig cfg;
    cfg.threads = threads;
    const auto before = obs::MetricRegistry::Global().Collect();
    const auto result = MergeTraces(traces, cfg);
    const auto after = obs::MetricRegistry::Global().Collect();
    const auto delta = [&](const char* name) {
      return after.Value(name) - before.Value(name);
    };
    ASSERT_GT(result.stats.jframes, 100u);
    EXPECT_EQ(delta("jig_shard_events_total"),
              static_cast<std::int64_t>(result.stats.events_in));
    EXPECT_EQ(delta("jig_shard_jframes_total"),
              static_cast<std::int64_t>(result.stats.jframes));
    EXPECT_EQ(delta("jig_merge_jframes_emitted_total"),
              static_cast<std::int64_t>(result.jframes.size()));
    EXPECT_GT(delta("jig_shard_rounds_total"), 0);
  }
}

TEST(ParallelMerge, ScenarioStreamMatchesOracle) {
  // End-to-end on the full simulator (39-pod channel plan 1/6/1/11): the
  // sharded merge must reproduce the oracle's stream exactly.
  ScenarioConfig cfg;
  cfg.seed = 77;
  cfg.duration = Seconds(2);
  cfg.clients = 10;
  cfg.pods_enabled = 6;
  Scenario scenario(cfg);
  scenario.Run();
  auto traces = scenario.TakeTraces();

  const auto oracle = OracleMerge(traces);
  ASSERT_GT(oracle.jframes.size(), 500u);
  // Every merge reuses the one trace set: the partition is reversed when a
  // session completes, so each run must see the same stream again.
  for (unsigned threads : {1u, 0u, 0u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    MergeConfig pcfg;
    pcfg.threads = threads;
    const auto merged = MergeTraces(traces, pcfg);
    ExpectIdenticalStreams(oracle.jframes, merged.jframes);
    ExpectEqualStats(oracle.stats, merged.stats);
  }
}

// The performance-knob matrix: thread count is a pure speed knob — every
// setting must emit the oracle's stream, byte for byte.  The traces go
// through a .jigt round trip so the block decoder is exercised (the oracle
// reads the same files).
TEST(PerfKnobMatrix, ByteIdenticalAcrossThreadsFromJigt) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "jig_pipeline_knob_matrix";
  fs::remove_all(dir);
  MultiChannelNetwork(21).Build().WriteDirectory(dir);
  TraceSet oracle_traces = TraceSet::OpenDirectory(dir);
  const auto base = OracleMerge(oracle_traces);
  ASSERT_GT(base.jframes.size(), 100u);

  for (unsigned threads : {1u, 2u, 0u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    TraceSet traces = TraceSet::OpenDirectory(dir);
    ASSERT_EQ(traces.size(), oracle_traces.size());
    MergeConfig cfg;
    cfg.threads = threads;
    const auto result = MergeTraces(traces, cfg);
    ExpectIdenticalStreams(base.jframes, result.jframes);
    ExpectEqualStats(base.stats, result.stats);
  }
  fs::remove_all(dir);
}

TEST(ParallelMerge, SinkRunsOnCallingThread) {
  auto traces = MultiChannelNetwork(9).Build();
  MergeConfig cfg;
  cfg.threads = 3;
  const auto caller = std::this_thread::get_id();
  std::size_t delivered = 0;
  bool all_on_caller = true;
  MergeTracesStreaming(traces, cfg, [&](JFrame&&) {
    ++delivered;
    if (std::this_thread::get_id() != caller) all_on_caller = false;
  });
  EXPECT_GT(delivered, 100u);
  EXPECT_TRUE(all_on_caller);
}

TEST(ParallelMerge, SinkExceptionPropagatesAndAbortsWorkers) {
  auto traces = MultiChannelNetwork(13).Build();
  MergeConfig cfg;
  cfg.threads = 3;
  std::size_t delivered = 0;
  EXPECT_THROW(MergeTracesStreaming(traces, cfg,
                                    [&](JFrame&&) {
                                      if (++delivered == 10) {
                                        throw std::runtime_error("sink");
                                      }
                                    }),
               std::runtime_error);
  EXPECT_EQ(delivered, 10u);
}

// A shard worker's failure reaches Poll() promptly: a corrupt block past
// the bootstrap window is hit on a worker thread, and the Poll() thread —
// whose merge gates on that dead shard sooner or later — must rethrow the
// worker's error instead of waiting on it (the ctest TIMEOUT is the hang
// detector).  The session stays failed, and its destructor joins cleanly.
TEST(ParallelMerge, WorkerFailurePropagatesWithoutHang) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "jig_pipeline_worker_failure";
  fs::remove_all(dir);
  const auto paths =
      MultiChannelNetwork(19, Seconds(30)).Build().WriteDirectory(dir);
  // Garbage length word over the last block of the channel-6 radio.
  const fs::path victim = paths.at(2);
  std::uint64_t last_block = 0;
  {
    TraceFileReader reader(victim);
    ASSERT_GE(reader.index().size(), 3u);
    last_block = reader.index().back().file_offset;
  }
  {
    std::FILE* f = std::fopen(victim.string().c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(last_block), SEEK_SET), 0);
    const std::uint8_t garbage_len[4] = {0xFF, 0xFF, 0xFF, 0x7F};
    ASSERT_EQ(std::fwrite(garbage_len, 1, 4, f), 4u);
    std::fclose(f);
  }

  for (unsigned threads : {2u, 0u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    TraceSet traces = TraceSet::OpenDirectory(dir);
    MergeConfig cfg;
    cfg.threads = threads;
    {
      MergeSession session(traces, cfg, [](JFrame&&) {});
      EXPECT_THROW(session.Poll(), TraceCorruptError);
      EXPECT_THROW(session.Poll(), std::logic_error);
    }  // destructor: joins the parked workers
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace jig
