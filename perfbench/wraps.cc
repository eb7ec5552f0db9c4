// Link-time interposers of the traced build (see CMakeLists.txt).  The
// linker's --wrap=<sym> sends every call to <sym> from another object file
// to __wrap_<sym>, and __real_<sym> to the original, so each layer is
// timed at its public entry point without touching src/.  If a change
// renames or removes one of these entry points, perfbench_traced stops
// linking (perfbench, which reports the end-to-end metrics, does not use
// this file): update the list here and in CMakeLists.txt.
#include "jigsaw/analysis/interference.h"
#include "jigsaw/bootstrap.h"
#include "jigsaw/pipeline.h"
#include "jigsaw/spill.h"
#include "jigsaw/tcp_reconstruct.h"
#include "obs/export.h"
#include "tracer.h"

#define PERFBENCH_WRAP(layer, ret, sym, params, args) \
  ret __real_##sym params;                            \
  ret __wrap_##sym params {                           \
    perfbench::Span span(perfbench::Layer::layer);    \
    return __real_##sym args;                         \
  }

extern "C" {

PERFBENCH_WRAP(kBootstrap, jig::BootstrapResult,
               _ZN3jig20BootstrapSynchronizeERNS_8TraceSetERKNS_15BootstrapConfigE,
               (jig::TraceSet & traces, const jig::BootstrapConfig& config),
               (traces, config))

PERFBENCH_WRAP(kMergePoll, jig::MergeSession::Status,
               _ZN3jig12MergeSession4PollEv, (jig::MergeSession * self),
               (self))

PERFBENCH_WRAP(kLogAppend, void,
               _ZN3jig18SpillSegmentWriter6AppendERKNS_6JFrameE,
               (jig::SpillSegmentWriter * self, const jig::JFrame& jf),
               (self, jf))

PERFBENCH_WRAP(kLogSync, void, _ZN3jig18SpillSegmentWriter4SyncEv,
               (jig::SpillSegmentWriter * self), (self))

PERFBENCH_WRAP(kLogSync, void, _ZN3jig18SpillSegmentWriter6FinishEv,
               (jig::SpillSegmentWriter * self), (self))

PERFBENCH_WRAP(
    kCheckpoint, void,
    _ZN3jig3obs15WriteFileAtomicERKNSt10filesystem7__cxx114pathESt17basic_string_viewIcSt11char_traitsIcEE,
    (const std::filesystem::path& path, std::string_view content),
    (path, content))

PERFBENCH_WRAP(kInterference, void,
               _ZN3jig19InterferenceTracker8OnJFrameERKNS_6JFrameE,
               (jig::InterferenceTracker * self, const jig::JFrame& jf),
               (self, jf))

PERFBENCH_WRAP(kInterference, void,
               _ZN3jig19InterferenceTracker9OnAttemptERKNS_19TransmissionAttemptE,
               (jig::InterferenceTracker * self,
                const jig::TransmissionAttempt& attempt),
               (self, attempt))

PERFBENCH_WRAP(kInterference, void, _ZN3jig19InterferenceTracker6RetireEm,
               (jig::InterferenceTracker * self, std::uint64_t min_live),
               (self, min_live))

PERFBENCH_WRAP(
    kTcpLoss, void,
    _ZN3jig16TransportTracker10OnExchangeERKNS_13FrameExchangeEPKNS_5FrameE,
    (jig::TransportTracker * self, const jig::FrameExchange& exchange,
     const jig::Frame* data),
    (self, exchange, data))

}  // extern "C"
