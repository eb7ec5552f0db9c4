// Independent reference merge for the byte-identity suites: one global
// unifier over the whole, unpartitioned trace set, run to completion with
// no pool, then a stable sort on (timestamp, channel) — FIFO among equal
// keys, the tiebreak the pipeline's reorder buffers keep.  It shares no
// shard, queue, reorder or k-way code with MergeSession, so comparing any
// `threads` setting against it does not compare the pipeline with itself.
// Finished (finalized) inputs only.
#pragma once

#include <algorithm>

#include "jigsaw/pipeline.h"

namespace jig::testing {

inline MergeResult OracleMerge(TraceSet& traces,
                               const MergeConfig& config = {}) {
  MergeResult out;
  out.bootstrap = BootstrapSynchronize(traces, config.bootstrap);
  Unifier unifier(
      traces, out.bootstrap, config.unifier,
      [&out](JFrame&& jf) { out.jframes.push_back(std::move(jf)); });
  unifier.Run();
  out.stats = unifier.stats();
  std::stable_sort(out.jframes.begin(), out.jframes.end(),
                   [](const JFrame& a, const JFrame& b) {
                     if (a.timestamp != b.timestamp) {
                       return a.timestamp < b.timestamp;
                     }
                     return static_cast<int>(a.channel) <
                            static_cast<int>(b.channel);
                   });
  return out;
}

}  // namespace jig::testing
