// Metric math of the benchmark, kept free of the jig library so that
// metrics_test.cc can pin it on synthetic inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

// A tail percentile is reported only when at least this many samples lie
// beyond it; with fewer, the value is set by a handful of outliers.
inline constexpr std::size_t kMinSamplesBeyond = 10;

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct TailValue {
  double value = 0.0;
  std::size_t samples = 0;  // sample count the percentile was taken over
  std::size_t beyond = 0;   // samples ranked above it
};

// Nearest-rank p-th percentile (0 < p < 100): the sample at 1-based rank
// ceil(p/100 * n).  nullopt when fewer than kMinSamplesBeyond samples rank
// above it, i.e. when the sample cannot support that percentile.
inline std::optional<TailValue> TailPercentile(std::vector<double> v,
                                               double p) {
  const std::size_t n = v.size();
  if (n == 0) return std::nullopt;
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  const std::size_t beyond = n - rank;
  if (beyond < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return TailValue{v[rank - 1], n, beyond};
}

// Open-loop schedule of one published chunk (times in ns on one clock).
struct ChunkTimes {
  std::int64_t due = 0;        // when the schedule said it should appear
  std::int64_t published = 0;  // when the writer had actually synced it
};

struct PollTimes {
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

// Freshness of each chunk: from its due time to the end of the first poll
// that began at or after its publication.  Measuring from the due time,
// not the publish time, charges a late generator's delay to the chunk (an
// open loop must not hide a stall that held the writer back).  A chunk
// published while the last poll was running has no such poll; when that
// poll completed the stream (`completed`), everything was durable at its
// end, so the chunk is attributed to it.  Otherwise it is unserved
// (nullopt).  `polls` must be ordered by begin.
inline std::vector<std::optional<std::int64_t>> AttributeFreshness(
    const std::vector<ChunkTimes>& chunks,
    const std::vector<PollTimes>& polls, bool completed) {
  std::vector<std::optional<std::int64_t>> out;
  out.reserve(chunks.size());
  for (const ChunkTimes& c : chunks) {
    const auto it = std::lower_bound(
        polls.begin(), polls.end(), c.published,
        [](const PollTimes& p, std::int64_t t) { return p.begin < t; });
    if (it != polls.end()) {
      out.emplace_back(it->end - c.due);
    } else if (completed && !polls.empty()) {
      out.emplace_back(polls.back().end - c.due);
    } else {
      out.emplace_back(std::nullopt);
    }
  }
  return out;
}

}  // namespace perfbench
