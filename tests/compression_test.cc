#include "util/compression.h"

#include "util/byte_io.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace jig {
namespace {

Bytes RandomBytes(std::size_t n, std::uint64_t seed, int alphabet = 256) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.NextBelow(alphabet));
  }
  return out;
}

TEST(Compression, EmptyRoundtrip) {
  const Bytes empty;
  const auto packed = LzCompress(empty);
  EXPECT_EQ(LzDecompress(packed), empty);
}

TEST(Compression, RepetitiveDataShrinks) {
  Bytes data(10000, 0xAB);
  const auto packed = LzCompress(data);
  EXPECT_LT(packed.size(), data.size() / 10);
  EXPECT_EQ(LzDecompress(packed), data);
}

TEST(Compression, CaptureLikeDataShrinks) {
  // 802.11 captures repeat headers heavily: simulate with a repeating
  // 36-byte header + varying payload bytes.
  Bytes data;
  Rng rng(5);
  for (int frame = 0; frame < 200; ++frame) {
    for (int i = 0; i < 36; ++i) data.push_back(static_cast<std::uint8_t>(i));
    for (int i = 0; i < 20; ++i) {
      data.push_back(static_cast<std::uint8_t>(rng.NextBelow(256)));
    }
  }
  const auto packed = LzCompress(data);
  EXPECT_LT(packed.size(), data.size() * 2 / 3);
  EXPECT_EQ(LzDecompress(packed), data);
}

TEST(Compression, IncompressibleDataSurvives) {
  const auto data = RandomBytes(4096, 99);
  const auto packed = LzCompress(data);
  EXPECT_EQ(LzDecompress(packed), data);
  // Worst-case expansion is bounded (1 control byte per 128 literals + hdr).
  EXPECT_LT(packed.size(), data.size() + data.size() / 64 + 64);
}

TEST(Compression, OverlappingMatchRun) {
  // "abcabcabc..." forces overlapping match copies (dist < len).
  Bytes data;
  for (int i = 0; i < 1000; ++i) data.push_back("abc"[i % 3]);
  const auto packed = LzCompress(data);
  EXPECT_EQ(LzDecompress(packed), data);
}

TEST(Compression, RejectsTruncatedHeader) {
  EXPECT_THROW(LzDecompress(Bytes{1, 2}), std::runtime_error);
}

TEST(Compression, RejectsCorruptStream) {
  Bytes data(1000, 0x77);
  auto packed = LzCompress(data);
  // Declare a larger raw size than the stream produces.
  packed[0] ^= 0xFF;
  EXPECT_THROW(LzDecompress(packed), std::runtime_error);
}

TEST(Compression, RejectsBadDistance) {
  // Hand-craft: raw_size=4, match token with distance beyond output.
  Bytes bad = {4, 0, 0, 0, 0x80, 9, 0};
  EXPECT_THROW(LzDecompress(bad), std::runtime_error);
}

class CompressionRoundtripTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(CompressionRoundtripTest, Roundtrip) {
  const auto [size, alphabet] = GetParam();
  const auto data = RandomBytes(size, size * 131 + alphabet, alphabet);
  EXPECT_EQ(LzDecompress(LzCompress(data)), data);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndAlphabets, CompressionRoundtripTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 15, 16, 17, 100, 1000,
                                         65535, 65536, 200000),
                       ::testing::Values(2, 16, 256)));

// ---- compression levels ---------------------------------------------------

TEST(CompressionLevels, FastLevelRoundtripsEveryShape) {
  for (std::size_t size : {1u, 5u, 100u, 65536u, 200000u}) {
    for (int alphabet : {2, 16, 256}) {
      const auto data = RandomBytes(size, size * 733 + alphabet, alphabet);
      EXPECT_EQ(LzDecompress(LzCompress(data, LzLevel::kFast)), data)
          << "size " << size << " alphabet " << alphabet;
    }
  }
}

TEST(CompressionLevels, LevelsShareOneTokenFormat) {
  // Both levels feed the same decoder and reproduce the same bytes; the
  // deeper finder only ever finds better matches, never a new format.
  Bytes data;
  Rng rng(17);
  for (int frame = 0; frame < 300; ++frame) {
    for (int i = 0; i < 36; ++i) data.push_back(static_cast<std::uint8_t>(i));
    for (int i = 0; i < 24; ++i) {
      data.push_back(static_cast<std::uint8_t>(rng.NextBelow(64)));
    }
  }
  const auto fast = LzCompress(data, LzLevel::kFast);
  const auto deep = LzCompress(data, LzLevel::kDefault);
  EXPECT_EQ(LzDecompress(fast), data);
  EXPECT_EQ(LzDecompress(deep), data);
  EXPECT_LE(deep.size(), fast.size());
}

TEST(CompressionLevels, CompressionIsDeterministicPerLevel) {
  const auto data = RandomBytes(50000, 4242, 32);
  EXPECT_EQ(LzCompress(data, LzLevel::kFast),
            LzCompress(data, LzLevel::kFast));
  EXPECT_EQ(LzCompress(data, LzLevel::kDefault),
            LzCompress(data, LzLevel::kDefault));
}

TEST(CompressionLevels, DecodesLegacyGreedyFixture) {
  // Hand-assembled stream in the frozen on-disk token format (the bytes
  // the original greedy matcher emitted for "abcdabcd"): a 4-literal run
  // then a length-4 match at distance 4.  Blocks written before the
  // hash-chain finder must keep decoding forever.
  const Bytes fixture = {8,    0,   0,   0,    // raw_size = 8
                         0x03, 'a', 'b', 'c', 'd',
                         0x80, 4,   0};        // match len 4, dist 4
  const Bytes expected = {'a', 'b', 'c', 'd', 'a', 'b', 'c', 'd'};
  EXPECT_EQ(LzDecompress(fixture), expected);
}

// ---- error taxonomy -------------------------------------------------------
//
// Truncation (more bytes could repair it) and corruption (no bytes ever
// could) surface as distinct types so the trace layer can map them onto
// TraceTruncatedError / TraceCorruptError.

TEST(CompressionErrors, ShortHeaderIsTruncated) {
  EXPECT_THROW(LzDecompress(Bytes{}), LzTruncatedError);
  EXPECT_THROW(LzDecompress(Bytes{1, 2}), LzTruncatedError);
}

TEST(CompressionErrors, CutLiteralRunIsTruncated) {
  const Bytes cut = {4, 0, 0, 0, 0x03, 'a'};  // run promises 4, holds 1
  EXPECT_THROW(LzDecompress(cut), LzTruncatedError);
}

TEST(CompressionErrors, CutMatchTokenIsTruncated) {
  const Bytes cut = {8, 0, 0, 0, 0x03, 'a', 'b', 'c', 'd',
                     0x80, 4};  // one distance byte missing
  EXPECT_THROW(LzDecompress(cut), LzTruncatedError);
}

TEST(CompressionErrors, ShortOutputIsTruncated) {
  const Bytes cut = {8, 0, 0, 0, 0x03, 'a', 'b', 'c', 'd'};  // 4 of 8
  EXPECT_THROW(LzDecompress(cut), LzTruncatedError);
}

TEST(CompressionErrors, BadDistanceIsCorrupt) {
  EXPECT_THROW(LzDecompress(Bytes{4, 0, 0, 0, 0x80, 9, 0}), LzCorruptError);
  const Bytes zero_dist = {8, 0, 0, 0, 0x03, 'a', 'b', 'c', 'd',
                           0x80, 0, 0};
  EXPECT_THROW(LzDecompress(zero_dist), LzCorruptError);
}

TEST(CompressionErrors, OverlongOutputIsCorrupt) {
  // Declared raw size 4 but the stream produces 8: garbage, not a torn
  // write — waiting for more bytes cannot fix it.
  const Bytes overlong = {4, 0, 0, 0, 0x03, 'a', 'b', 'c', 'd',
                          0x80, 1, 0};
  EXPECT_THROW(LzDecompress(overlong), LzCorruptError);
}

TEST(CompressionErrors, BothKindsAreLzErrorsAndRuntimeErrors) {
  // Pre-taxonomy call sites caught std::runtime_error; that must keep
  // working.
  EXPECT_THROW(LzDecompress(Bytes{1, 2}), LzError);
  EXPECT_THROW(LzDecompress(Bytes{1, 2}), std::runtime_error);
  EXPECT_THROW(LzDecompress(Bytes{4, 0, 0, 0, 0x80, 9, 0}), LzError);
  EXPECT_THROW(LzDecompress(Bytes{4, 0, 0, 0, 0x80, 9, 0}),
               std::runtime_error);
}

// ---- LzDecompressInto: one reused output buffer --------------------------

// Packs `raw` as a stream of single literal runs and explicit matches, so
// tests can pin exact match geometry rather than whatever the finder picks.
struct Token {
  Bytes literals;        // emitted as one literal run when non-empty
  std::size_t len = 0;   // match length (0 = no match)
  std::size_t dist = 0;  // match distance
};

Bytes Assemble(std::uint32_t raw_size, const std::vector<Token>& tokens) {
  Bytes out = {static_cast<std::uint8_t>(raw_size),
               static_cast<std::uint8_t>(raw_size >> 8),
               static_cast<std::uint8_t>(raw_size >> 16),
               static_cast<std::uint8_t>(raw_size >> 24)};
  for (const Token& t : tokens) {
    if (!t.literals.empty()) {
      out.push_back(static_cast<std::uint8_t>(t.literals.size() - 1));
      out.insert(out.end(), t.literals.begin(), t.literals.end());
    }
    if (t.len > 0) {
      out.push_back(static_cast<std::uint8_t>(0x80 | (t.len - kLzMinMatch)));
      out.push_back(static_cast<std::uint8_t>(t.dist));
      out.push_back(static_cast<std::uint8_t>(t.dist >> 8));
    }
  }
  return out;
}

TEST(CompressionInto, ReusedBufferHoldsExactlyTheLatestBlock) {
  Bytes big = RandomBytes(300000, 11, 16);
  Bytes small = RandomBytes(1000, 12, 16);
  Bytes out;
  LzDecompressInto(LzCompress(big), out);
  EXPECT_EQ(out, big);
  LzDecompressInto(LzCompress(small), out);
  EXPECT_EQ(out.size(), small.size());
  EXPECT_EQ(out, small);
  LzDecompressInto(LzCompress(Bytes{}), out);
  EXPECT_TRUE(out.empty());
  LzDecompressInto(LzCompress(big), out);
  EXPECT_EQ(out, big);
}

TEST(CompressionInto, MatchesLzDecompressAcrossShapes) {
  Bytes out(7, 0xEE);  // stale contents must never leak into a result
  for (std::size_t size : {1u, 100u, 65536u, 200000u}) {
    for (int alphabet : {2, 256}) {
      const auto packed =
          LzCompress(RandomBytes(size, size + alphabet, alphabet));
      LzDecompressInto(packed, out);
      EXPECT_EQ(out, LzDecompress(packed))
          << "size " << size << " alphabet " << alphabet;
    }
  }
}

TEST(CompressionInto, GrowsPastTheReserveCapForRealOutput) {
  const Bytes data = RandomBytes(3 * kLzReserveCap + 17, 13, 4);
  Bytes out;
  LzDecompressInto(LzCompress(data), out);
  EXPECT_EQ(out, data);
}

// The thread's scratch buffer: every view holds exactly its own block,
// past the reserve cap too, and an error class survives the scratch path.
TEST(CompressionInto, ThreadScratchHoldsExactlyTheLatestBlock) {
  for (const std::size_t size :
       {std::size_t{300000}, std::size_t{1000}, std::size_t{0},
        2 * kLzReserveCap + 5, std::size_t{70}}) {
    const Bytes data = RandomBytes(size, size + 3, 8);
    const auto view = LzDecompressScratch(LzCompress(data));
    EXPECT_EQ(Bytes(view.begin(), view.end()), data) << "size " << size;
  }
  EXPECT_THROW(LzDecompressScratch(Bytes{4, 0, 0, 0, 0x80, 9, 0}),
               LzCorruptError);
  EXPECT_THROW(LzDecompressScratch(Bytes{8, 0, 0, 0, 0x03, 'a', 'b', 'c'}),
               LzTruncatedError);
}

TEST(CompressionInto, MatchWithDistanceEqualToLength) {
  // dist == len: the source ends exactly where the copy starts, the last
  // case a plain memcpy may serve.
  const Bytes packed =
      Assemble(12, {{.literals = {1, 2, 3, 4, 5, 6}, .len = 6, .dist = 6}});
  Bytes out;
  LzDecompressInto(packed, out);
  EXPECT_EQ(out, (Bytes{1, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(LzDecompress(packed), out);
}

TEST(CompressionInto, OverlappingMatchRepeatsThePeriod) {
  // dist < len: each copied byte may be one the copy itself just wrote.
  const Bytes packed =
      Assemble(10, {{.literals = {'a', 'b', 'c'}, .len = 7, .dist = 3}});
  Bytes out;
  LzDecompressInto(packed, out);
  EXPECT_EQ(out, (Bytes{'a', 'b', 'c', 'a', 'b', 'c', 'a', 'b', 'c', 'a'}));
  EXPECT_EQ(LzDecompress(packed), out);
}

TEST(CompressionInto, DistanceOneRunReplicatesOneByte) {
  const Bytes packed = Assemble(
      1 + kLzMaxMatch + 5,
      {{.literals = {0x5A}, .len = kLzMaxMatch, .dist = 1},
       {.literals = {}, .len = 5, .dist = 1}});
  Bytes out = RandomBytes(4000, 14);  // larger stale buffer
  LzDecompressInto(packed, out);
  EXPECT_EQ(out, Bytes(1 + kLzMaxMatch + 5, 0x5A));
}

TEST(CompressionInto, HostileDeclaredSizeNeverAllocatesPastTheCap) {
  // Unreachable declared size: rejected before anything is sized.
  Bytes out;
  EXPECT_THROW(LzDecompressInto(Bytes{0xFF, 0xFF, 0xFF, 0xFF}, out),
               LzCorruptError);
  EXPECT_EQ(out.capacity(), 0u);

  // Reachable declared size (64 MiB from ~600 KB of tokens) that the
  // stream never fills: a truncation, and the buffer stays within the
  // upfront cap because the literals actually produce < 1 MiB.
  const std::size_t runs = 4600;
  Bytes packed = Assemble(64u << 20, {});
  for (std::size_t i = 0; i < runs; ++i) {
    packed.push_back(0x7F);  // literal run of 128
    packed.insert(packed.end(), 128, static_cast<std::uint8_t>(i));
  }
  EXPECT_THROW(LzDecompressInto(packed, out), LzTruncatedError);
  EXPECT_TRUE(out.empty());
  EXPECT_LE(out.capacity(), kLzReserveCap);
}

TEST(CompressionInto, EveryErrorKeepsItsClassAndEmptiesTheBuffer) {
  const std::vector<std::pair<Bytes, bool>> cases = {
      // {stream, is_truncation}
      {Bytes{}, true},
      {Bytes{1, 2}, true},
      {Bytes{4, 0, 0, 0, 0x03, 'a'}, true},
      {Bytes{8, 0, 0, 0, 0x03, 'a', 'b', 'c', 'd', 0x80, 4}, true},
      {Bytes{8, 0, 0, 0, 0x03, 'a', 'b', 'c', 'd'}, true},
      {Bytes{100, 0, 0, 0, 0x00, 0xAB}, true},
      {Bytes{4, 0, 0, 0, 0x80, 9, 0}, false},
      {Bytes{8, 0, 0, 0, 0x03, 'a', 'b', 'c', 'd', 0x80, 0, 0}, false},
      {Bytes{4, 0, 0, 0, 0x03, 'a', 'b', 'c', 'd', 0x80, 1, 0}, false},
      {Bytes{2, 0, 0, 0, 0x03, 'a', 'b', 'c', 'd'}, false},
      {Bytes{0xFF, 0xFF, 0xFF, 0xFF}, false},
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    const auto& [stream, truncated] = cases[i];
    Bytes out = {9, 9, 9};
    if (truncated) {
      EXPECT_THROW(LzDecompress(stream), LzTruncatedError);
      EXPECT_THROW(LzDecompressInto(stream, out), LzTruncatedError);
    } else {
      EXPECT_THROW(LzDecompress(stream), LzCorruptError);
      EXPECT_THROW(LzDecompressInto(stream, out), LzCorruptError);
    }
    EXPECT_TRUE(out.empty());
  }
}

}  // namespace
}  // namespace jig
