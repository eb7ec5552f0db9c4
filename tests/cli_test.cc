// Exit-code contract of the jigtool CLI (documented in examples/jigtool.cpp
// and docs/OBSERVABILITY.md): 0 success, 1 unreadable/missing input or
// unreachable peer, 2 usage error, 3 corrupt or truncated input.  The
// contract covers the network doors too: serve-trace maps a refused
// connection to 1 and a mid-stream disconnect (either direction) to 3.
// Monitoring wrappers and the CI bench gate branch on these, so they are
// pinned here.
//
// The jigtool binary is located via the JIGTOOL environment variable, or
// ./jigtool relative to the test's working directory (ctest runs from the
// build root, where every target lands).  Skips if neither resolves.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "trace/net.h"
#include "trace/trace_file.h"

namespace {

namespace fs = std::filesystem;

// The binary named by environment variable `env`, else ./<name>, else "".
std::string ToolPath(const char* env, const std::string& name) {
  if (const char* path = std::getenv(env)) return path;
  if (fs::exists("./" + name)) return "./" + name;
  return "";
}

std::string JigtoolPath() { return ToolPath("JIGTOOL", "jigtool"); }

// Runs a shell command line, returns its exit code (-1 on system() failure
// or when it died on a signal, e.g. an uncaught-exception abort).
int RunShell(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  if (status == -1) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int RunJigtool(const std::string& args) {
  return RunShell(JigtoolPath() + " " + args + " >/dev/null 2>&1");
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (JigtoolPath().empty()) {
      GTEST_SKIP() << "jigtool binary not found (set JIGTOOL)";
    }
    dir_ = fs::temp_directory_path() /
           ("jig_cli_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  void WriteGarbage(const fs::path& path) {
    std::ofstream out(path, std::ios::binary);
    // Arbitrary non-magic bytes: enough to open, wrong from byte 0.
    for (int i = 0; i < 64; ++i) out.put(static_cast<char>(i * 7 + 1));
  }

  // A small, valid, finalized single-radio trace for the network tests.
  fs::path WriteValidTrace(const std::string& name, int records = 100) {
    const fs::path path = dir_ / name;
    jig::TraceHeader header;
    header.radio = 1;
    jig::TraceFileWriter writer(path, header, /*records_per_block=*/16);
    jig::CaptureRecord rec;
    rec.bytes = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14};
    rec.orig_len = 14;
    for (int i = 0; i < records; ++i) {
      rec.timestamp = 1'000 * (i + 1);
      writer.Append(rec);
    }
    writer.Finish();
    return path;
  }

  // A port with nothing listening on it: bind an ephemeral listener, note
  // the port, close it again.
  static std::uint16_t UnusedPort() {
    jig::net::Listener probe("127.0.0.1", 0);
    return probe.port();
  }

  fs::path dir_;
};

TEST_F(CliTest, UsageErrorsExitTwo) {
  EXPECT_EQ(RunJigtool(""), 2);
  EXPECT_EQ(RunJigtool("frobnicate " + dir_.string()), 2);
  EXPECT_EQ(RunJigtool("merge " + dir_.string() + " --spill-dir"), 2);
  EXPECT_EQ(RunJigtool("stats " + dir_.string() + " --stats-json"), 2);
  EXPECT_EQ(RunJigtool("follow " + dir_.string() + " --spill-dir"), 2);
}

// Every flag is listed with the commands that take it; given to any other
// command it is a usage error, not a warning the run goes on past.
TEST_F(CliTest, FlagForAnotherCommandExitsTwo) {
  WriteValidTrace("r1.jigt");
  EXPECT_EQ(RunJigtool("info " + dir_.string() + " --spill-dir x"), 2);
  EXPECT_EQ(RunJigtool("stats " + dir_.string() + " --spill-dir x"), 2);
  EXPECT_EQ(RunJigtool("follow " + dir_.string() + " --stats-json x"), 2);
  EXPECT_EQ(RunJigtool("merge " + dir_.string() + " --expected 1"), 2);
}

// Numbers are parsed strictly: an argument that is not a whole
// non-negative integer is a usage error.  std::atol read each of these as
// 0 and ran — auto threads, the default spill threshold, first-scan
// discovery — and exited 0.  The valid spellings run to 0 over the same
// input, so the 2s come from the numbers alone.
TEST_F(CliTest, MalformedNumberExitsTwo) {
  WriteValidTrace("r1.jigt");
  const std::string d = dir_.string();
  const std::string serve = "serve " + (dir_ / "state").string() + " " + d;
  EXPECT_EQ(RunJigtool("merge " + d + " two"), 2);
  EXPECT_EQ(RunJigtool("merge " + d + " --spill-threshold abc"), 2);
  EXPECT_EQ(RunJigtool(serve + " --expected x --until-done"), 2);
  EXPECT_EQ(RunJigtool("merge " + d + " 2"), 0);
  EXPECT_EQ(RunJigtool("merge " + d + " --spill-threshold 16"), 0);
  EXPECT_EQ(RunJigtool(serve + " --expected 1 --until-done"), 0);
}

TEST_F(CliTest, MissingOrEmptyInputExitsOne) {
  EXPECT_EQ(RunJigtool("stats " + (dir_ / "nonexistent").string()), 1);
  EXPECT_EQ(RunJigtool("stats " + dir_.string()), 1);  // no .jigt files
  EXPECT_EQ(RunJigtool("merge " + (dir_ / "nonexistent").string()), 1);
  EXPECT_EQ(RunJigtool("follow " + (dir_ / "nonexistent").string()), 1);
}

// An unknown option is a usage error, never a positional argument: read as
// one, `merge <dir> --pin-threads` would silently run with threads =
// atol("--pin-threads") = 0, i.e. auto.
TEST_F(CliTest, UnknownOptionExitsTwo) {
  EXPECT_EQ(RunJigtool("merge " + dir_.string() + " --pin-threads"), 2);
  EXPECT_EQ(RunJigtool("follow " + dir_.string() + " --no-such-flag"), 2);
  EXPECT_EQ(RunJigtool("stats " + dir_.string() + " --bogus 1"), 2);
}

TEST_F(CliTest, CorruptTraceExitsThree) {
  WriteGarbage(dir_ / "bad.jigt");
  EXPECT_EQ(RunJigtool("stats " + dir_.string()), 3);
  EXPECT_EQ(RunJigtool("merge " + dir_.string()), 3);
  EXPECT_EQ(RunJigtool("info " + dir_.string()), 3);
  EXPECT_EQ(RunJigtool("follow " + dir_.string() + " 1"), 3);
  EXPECT_EQ(RunJigtool("timeline " + dir_.string()), 3);
}

// A live follow ends with the summary a merge of the finished directory
// prints, byte for byte.  The directory exists before either tool starts:
// a follower that started first would otherwise exit 1.
TEST_F(CliTest, LiveFollowSummaryEqualsMerge) {
  const fs::path live = dir_ / "live";
  fs::create_directories(live);
  const std::string tool = JigtoolPath();
  const fs::path follow_out = dir_ / "follow.out";
  const fs::path merge_out = dir_ / "merge.out";
  const int combined = RunShell(
      tool + " demo-live " + live.string() +
      " 2 20 >/dev/null 2>&1 & wpid=$!; " + tool + " follow " +
      live.string() + " 156 >" + follow_out.string() +
      " 2>/dev/null; f=$?; wait $wpid; w=$?; exit $((f * 10 + w))");
  EXPECT_EQ(combined, 0) << "follow exit " << combined / 10
                         << ", demo-live exit " << combined % 10;
  ASSERT_EQ(RunShell(tool + " merge " + live.string() + " >" +
                     merge_out.string() + " 2>/dev/null"),
            0);
  const std::string merged = ReadFile(merge_out);
  const std::string followed = ReadFile(follow_out);
  ASSERT_TRUE(merged.starts_with("radios synced:")) << merged;
  EXPECT_TRUE(followed.ends_with(merged)) << "follow:\n"
                                          << followed << "merge:\n"
                                          << merged;
}

// --mmap was a merge read-mode knob; it is gone, so it is now an unknown
// option like any other.
TEST_F(CliTest, RemovedMmapOptionExitsTwo) {
  EXPECT_EQ(RunJigtool("merge " + dir_.string() + " --mmap"), 2);
}

TEST_F(CliTest, InspectSpillOnMissingOrEmptyInputExitsOne) {
  EXPECT_EQ(RunJigtool("inspect-spill " + (dir_ / "nonexistent").string()),
            1);
  EXPECT_EQ(RunJigtool("inspect-spill " + dir_.string()), 1);  // no .jigs
}

TEST_F(CliTest, InspectSpillOnCorruptSegmentExitsThree) {
  WriteGarbage(dir_ / "ch1-0.jigs");
  EXPECT_EQ(RunJigtool("inspect-spill " + dir_.string()), 3);
}

// ------------------------------------------------------------------------
// Network doors.

TEST_F(CliTest, ServeTraceUsageErrorsExitTwo) {
  const fs::path trace = WriteValidTrace("r1.jigt");
  EXPECT_EQ(RunJigtool("serve-trace " + trace.string()), 2);  // no host/port
  EXPECT_EQ(RunJigtool("serve-trace " + trace.string() + " 127.0.0.1"), 2);
  EXPECT_EQ(RunJigtool("collect " + dir_.string() + " 12345"), 2);  // no n
  EXPECT_EQ(RunJigtool("demo-live " + dir_.string() + " 1 10 --tcp"), 2);
}

TEST_F(CliTest, ServeTraceMissingFileExitsOne) {
  EXPECT_EQ(RunJigtool("serve-trace " + (dir_ / "nope.jigt").string() +
                       " 127.0.0.1 1"),
            1);
}

TEST_F(CliTest, ServeTraceConnectionRefusedExitsOne) {
  const fs::path trace = WriteValidTrace("r1.jigt");
  EXPECT_EQ(RunJigtool("serve-trace " + trace.string() + " 127.0.0.1 " +
                       std::to_string(UnusedPort())),
            1);
}

TEST_F(CliTest, ServeTraceCorruptSourceExitsThree) {
  WriteGarbage(dir_ / "bad.jigt");
  // Corruption is detected before the dial, so no collector is needed.
  EXPECT_EQ(RunJigtool("serve-trace " + (dir_ / "bad.jigt").string() +
                       " 127.0.0.1 1"),
            3);
}

// Shell fragment that blocks until `file` exists (up to ~10 s) — the
// readiness door: collect/serve write their ready/snapshot file once
// actually listening, so no fixed sleep has to guess startup latency.
std::string WaitForFile(const std::string& file) {
  return "i=0; while [ ! -e " + file +
         " ] && [ $i -lt 1000 ]; do sleep 0.01; i=$((i+1)); done; ";
}

// Composite runner for one collect (background) + one serve-trace
// (foreground) against the same port: returns serve_exit * 10 +
// collect_exit, so a single assertion pins both ends of the wire.  The
// sender dials only after the collector's --ready-file appears.
int RunServeCollectPair(const std::string& tool, const fs::path& trace,
                        const fs::path& out_dir, std::uint16_t port) {
  const std::string p = std::to_string(port);
  const std::string ready = out_dir.string() + ".ready";
  const std::string cmd = tool + " collect " + out_dir.string() + " " + p +
                          " 1 --ready-file " + ready +
                          " >/dev/null 2>&1 & cpid=$!; " +
                          WaitForFile(ready) + tool + " serve-trace " +
                          trace.string() + " 127.0.0.1 " + p +
                          " >/dev/null 2>&1; s=$?; wait $cpid; c=$?; "
                          "exit $((s * 10 + c))";
  return RunShell(cmd);
}

TEST_F(CliTest, ServeTraceToCollectRoundTripExitsZeroBothEnds) {
  const fs::path trace = WriteValidTrace("r1.jigt");
  const int combined = RunServeCollectPair(JigtoolPath(), trace,
                                           dir_ / "out", UnusedPort());
  EXPECT_EQ(combined, 0) << "serve exit " << combined / 10
                         << ", collect exit " << combined % 10;
  // The collector persisted the stream (byte-identical: same records,
  // same block framing, same index).
  EXPECT_TRUE(fs::exists(dir_ / "out" / "r1.jigt"));
}

TEST_F(CliTest, MidStreamDisconnectExitsThreeBothEnds) {
  // Truncate a valid trace mid-block: serve-trace relays the complete
  // blocks then closes WITHOUT the finalize marker (exit 3), and the
  // collector observes a genuine mid-stream disconnect (exit 3).
  const fs::path trace = WriteValidTrace("r1.jigt", 200);
  const auto full = fs::file_size(trace);
  fs::resize_file(trace, full / 2);
  const int combined = RunServeCollectPair(JigtoolPath(), trace,
                                           dir_ / "out", UnusedPort());
  EXPECT_EQ(combined, 33) << "serve exit " << combined / 10
                          << ", collect exit " << combined % 10;
}

// ------------------------------------------------------------------------
// The always-on service (`jigtool serve`).

TEST_F(CliTest, ServeUsageErrorsExitTwo) {
  EXPECT_EQ(RunJigtool("serve " + (dir_ / "state").string()), 2);
  EXPECT_EQ(RunJigtool("serve " + (dir_ / "state").string() + " " +
                       dir_.string() + " --expected"),
            2);
}

TEST_F(CliTest, ServeMissingTraceDirExitsOne) {
  EXPECT_EQ(RunJigtool("serve " + (dir_ / "state").string() + " " +
                       (dir_ / "nonexistent").string() + " --until-done"),
            1);
}

TEST_F(CliTest, ServeCorruptCheckpointExitsThree) {
  // A deployment whose recorded state cannot be loaded must refuse to
  // start (silently discarding a checkpoint would break the restart
  // determinism contract).
  const fs::path traces = dir_ / "traces";
  fs::create_directories(traces);
  WriteValidTrace("traces/r1.jigt");
  const fs::path state = dir_ / "state" / "traces";
  fs::create_directories(state);
  WriteGarbage(state / "checkpoint.jigc");
  EXPECT_EQ(RunJigtool("serve " + (dir_ / "state").string() + " " +
                       traces.string() + " --until-done --expected 1"),
            3);
}

TEST_F(CliTest, ServeUntilDoneExitsZeroAndWritesSnapshot) {
  const fs::path traces = dir_ / "traces";
  fs::create_directories(traces);
  WriteValidTrace("traces/r1.jigt");
  const fs::path state = dir_ / "state";
  EXPECT_EQ(RunJigtool("serve " + state.string() + " " + traces.string() +
                       " --until-done --expected 1"),
            0);
  EXPECT_TRUE(fs::exists(state / "snapshot.json"));
  EXPECT_TRUE(fs::exists(state / "metrics.prom"));
  EXPECT_TRUE(fs::exists(state / "traces" / "checkpoint.jigc"));
}

TEST_F(CliTest, ServeSigtermShutsDownCleanly) {
  // The SIGTERM door: start the daemon, wait for the snapshot exposition
  // (the readiness signal), signal it, and pin the clean-exit contract —
  // exit 0 after a final snapshot flush.  No fixed startup sleep: the
  // snapshot file IS the readiness door.
  const fs::path traces = dir_ / "traces";
  fs::create_directories(traces);
  WriteValidTrace("traces/r1.jigt");
  const fs::path state = dir_ / "state";
  const std::string snapshot = (state / "snapshot.json").string();
  const std::string cmd =
      JigtoolPath() + " serve " + state.string() + " " + traces.string() +
      " --expected 1 --interval-ms 50 >/dev/null 2>&1 & spid=$!; " +
      WaitForFile(snapshot) + "kill -TERM $spid; wait $spid";
  const int status = std::system(cmd.c_str());
  ASSERT_NE(status, -1);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_TRUE(fs::exists(state / "snapshot.json"));
}

}  // namespace
