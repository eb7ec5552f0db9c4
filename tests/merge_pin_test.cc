// Cross-version byte pin for the merge.
//
// The determinism suites compare every merge mode against
// tests/merge_oracle.h, which runs the same Unifier over the same decoded
// records as the pipeline, so a unifier or block-decoder bug would move
// the oracle and the pipeline together and pass.  This suite instead
// pins absolute values: a fixed-seed simulator run and a fixed synthetic
// deployment go through a .jigt round trip, are merged through both trace
// readers (the batch FileTrace and the tail-follow TailFileTrace) at
// threads {1, auto}, and the jframe count and the CRC-32 of the
// concatenated SerializeJFrame bytes must equal constants recorded from
// an earlier, independently reviewed build of the merge.  A change that
// moves either number changed the emitted bytes.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "jigsaw/pipeline.h"
#include "jigsaw/spill.h"
#include "sim/scenario.h"
#include "synthetic.h"
#include "util/crc32.h"

namespace jig {
namespace {

namespace fs = std::filesystem;

struct Pin {
  std::uint64_t jframes = 0;
  std::uint32_t crc = 0;
};

struct Digest {
  std::uint64_t jframes = 0;
  std::uint32_t crc = 0;
  std::uint64_t bytes = 0;
};

Digest MergeDigest(TraceSet& traces, unsigned threads) {
  MergeConfig cfg;
  cfg.threads = threads;
  Crc32Accumulator crc;
  Digest out;
  Bytes buf;
  MergeTracesStreaming(traces, cfg, [&](JFrame&& jf) {
    buf.clear();
    SerializeJFrame(jf, buf);
    crc.Update(buf);
    out.bytes += buf.size();
    ++out.jframes;
  });
  out.crc = crc.Value();
  return out;
}

// Merges `dir` through both readers at threads {1, auto} and checks each
// result against `pin`.
void ExpectPinned(const fs::path& dir, std::size_t radios, const Pin& pin) {
  for (const bool tail : {false, true}) {
    for (const unsigned threads : {1u, 0u}) {
      SCOPED_TRACE(std::string(tail ? "TailFileTrace" : "FileTrace") +
                   " threads=" + std::to_string(threads));
      TraceSet traces = tail ? TraceSet::FollowDirectory(dir, radios)
                             : TraceSet::OpenDirectory(dir);
      ASSERT_EQ(traces.size(), radios);
      const Digest d = MergeDigest(traces, threads);
      EXPECT_EQ(d.jframes, pin.jframes);
      EXPECT_EQ(d.crc, pin.crc) << "jframe bytes=" << d.bytes;
    }
  }
}

TEST(MergeBytePin, ScenarioSeed77) {
  // 6 s of a 6-pod, 20-client simulator run on the 1/6/1/11 channel plan.
  ScenarioConfig cfg;
  cfg.seed = 77;
  cfg.duration = Seconds(6);
  cfg.clients = 20;
  cfg.pods_enabled = 6;
  Scenario scenario(cfg);
  scenario.Run();
  TraceSet traces = scenario.TakeTraces();
  const fs::path dir = fs::temp_directory_path() / "jig_merge_pin_scenario";
  fs::remove_all(dir);
  traces.WriteDirectory(dir);
  ExpectPinned(dir, traces.size(), Pin{.jframes = 2409, .crc = 0xD7DE83E9});
  fs::remove_all(dir);
}

TEST(MergeBytePin, MultiChannelSynthetic) {
  const fs::path dir = fs::temp_directory_path() / "jig_merge_pin_synthetic";
  fs::remove_all(dir);
  TraceSet traces = testing::MultiChannelNetwork(21).Build();
  traces.WriteDirectory(dir);
  ExpectPinned(dir, traces.size(), Pin{.jframes = 1265, .crc = 0xC81E8E1D});
  fs::remove_all(dir);
}

}  // namespace
}  // namespace jig
