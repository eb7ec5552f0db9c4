// Deterministic fault injection for the service / crash-recovery tests.
//
// Three seams, all keyed to exact record or call offsets so every "crash"
// is reproducible:
//
//   * FaultyStream — a RecordStream wrapper (installed through
//     DeploymentMonitor's StreamWrapper hook) that can kill the process
//     model at record #k, stall like a disconnected tail, or withhold the
//     finalize marker until released.
//   * ServiceFaultHooks factories — throw KillPoint after output-append
//     #k or around the Nth checkpoint replace (crash-between-emit-and-
//     checkpoint and crash-between-checkpoint-and-emit).
//   * TearFileTail — chops bytes off a file, simulating the torn final
//     write a power cut leaves behind.
//
// A KillPoint thrown anywhere inside DeploymentMonitor::PollOnce marks the
// monitor failed; its destructor then abandons the open output segment
// (pending block dropped, no finalize marker) — on-disk state is exactly
// what SIGKILL at that instant would leave, which is what the recovery
// tests restart from.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "jigsaw/service.h"
#include "trace/trace_set.h"

namespace jig::testing {

// Simulated SIGKILL: thrown by armed hooks/streams at the chosen point.
class KillPoint : public std::runtime_error {
 public:
  explicit KillPoint(const std::string& where)
      : std::runtime_error("injected kill: " + where) {}
};

// Pass-through record stream with offset-keyed faults.  Offsets are
// positions in the stream (0-based), so a Rewind (the merge's late
// bootstrap re-read) replays the same fault at the same record — the
// behaviour a real half-dead source would show on every pass.
class FaultyStream final : public RecordStream {
 public:
  // Every member has a default initializer, so designated initializers
  // naming only some faults stay clean under -Wmissing-field-initializers.
  struct Faults {
    // Throw KillPoint when the consumer pulls record #kill_at.
    std::optional<std::uint64_t> kill_at = std::nullopt;
    // From record #stall_at on, behave like a disconnected tail: the
    // record is withheld (NextRef -> nullptr, Finalized() -> false) until
    // Release().
    std::optional<std::uint64_t> stall_at = std::nullopt;
    // Withhold the finalize marker until Release() even after the inner
    // stream finalizes (a radio that lags on its marker).
    bool delay_finalize = false;
  };

  FaultyStream(std::unique_ptr<RecordStream> inner, Faults faults)
      : inner_(std::move(inner)), faults_(faults) {}

  // Clears the stall / delayed-finalize faults (the "sender came back"
  // transition).  kill_at stays armed.
  void Release() { released_ = true; }

  const TraceHeader& header() const override { return inner_->header(); }

  std::optional<CaptureRecord> Next() override {
    const CaptureRecord* rec = NextRef();
    if (rec == nullptr) return std::nullopt;
    return *rec;
  }

  const CaptureRecord* NextRef() override {
    if (faults_.kill_at && pos_ == *faults_.kill_at) {
      throw KillPoint("record " + std::to_string(pos_) + " of radio " +
                      std::to_string(inner_->header().radio));
    }
    if (!released_ && faults_.stall_at && pos_ >= *faults_.stall_at) {
      return nullptr;  // parked, like a dead socket awaiting its resume
    }
    const CaptureRecord* rec = inner_->NextRef();
    if (rec != nullptr) ++pos_;
    return rec;
  }

  void Rewind() override {
    pos_ = 0;
    inner_->Rewind();
  }

  bool Finalized() const override {
    if (!released_ && (faults_.delay_finalize ||
                       (faults_.stall_at && pos_ >= *faults_.stall_at))) {
      return false;
    }
    return inner_->Finalized();
  }

 private:
  std::unique_ptr<RecordStream> inner_;
  Faults faults_;
  std::uint64_t pos_ = 0;
  bool released_ = false;
};

// StreamWrapper that wraps ONE radio's stream with the given faults and
// reports the wrapper's address through `out` (for Release()); every
// other radio passes through untouched.
inline DeploymentMonitor::StreamWrapper WrapRadio(
    std::uint32_t radio, FaultyStream::Faults faults,
    FaultyStream** out = nullptr) {
  return [radio, faults, out](std::unique_ptr<RecordStream> inner,
                              std::uint32_t r)
             -> std::unique_ptr<RecordStream> {
    if (r != radio) return inner;
    auto wrapped = std::make_unique<FaultyStream>(std::move(inner), faults);
    if (out != nullptr) *out = wrapped.get();
    return wrapped;
  };
}

// Kill while writing the output log: throws once jframe #index has been
// handed to the segment writer (it may still sit in the writer's pending
// block — exactly the window a real crash tears).
inline std::function<void(std::uint64_t)> KillAfterAppend(
    std::uint64_t index) {
  return [index](std::uint64_t i) {
    if (i == index) {
      throw KillPoint("after output append #" + std::to_string(i));
    }
  };
}

// Kill on the Nth call (1-based) of a void hook — arm as before_checkpoint
// ("crash between emit and checkpoint": the log is ahead of the table) or
// after_checkpoint ("crash between checkpoint and the next emit").  Note
// the checkpoint written by the monitor's constructor counts as call #1.
inline std::function<void()> KillOnNthCall(std::string what, int n) {
  auto calls = std::make_shared<int>(0);
  return [what = std::move(what), n, calls]() {
    if (++*calls == n) {
      throw KillPoint(what + " (call #" + std::to_string(n) + ")");
    }
  };
}

// Chops `bytes` off the end of `path` — the torn trailing write of a
// power cut (a crash mid-fwrite leaves a prefix of the block on disk).
inline void TearFileTail(const std::filesystem::path& path,
                         std::uint64_t bytes) {
  const std::uint64_t size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size > bytes ? size - bytes : 0);
}

}  // namespace jig::testing
