// Fuzz harness for the LZ block decoder (src/util/compression.h).
//
// Invariant under test: for ANY input bytes, LzDecompress either returns a
// decoded buffer or throws exactly the documented taxonomy (LzError:
// LzTruncatedError / LzCorruptError).  Anything else — a crash, a hang, an
// OOM from a hostile declared size, or a different exception type — is a
// bug.  On success, a compress→decompress round trip of the decoded bytes
// must reproduce them exactly.
//
// LzDecompressInto is driven alongside it into one buffer reused across
// every input of the run, and so is LzDecompressScratch, the thread
// buffer the trace readers decode every block into: both must throw the
// same error class (LzDecompressInto then leaves its buffer empty) and
// otherwise produce exactly LzDecompress's bytes, whatever the previous
// input left behind.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/compression.h"

#include "standalone_driver.h"

namespace {

// Which outcome a decode had: bytes, or one of the two error classes.
enum class Outcome { kOk, kTruncated, kCorrupt };

template <typename Decode>
Outcome Classify(Decode&& decode) {
  try {
    decode();
    return Outcome::kOk;
  } catch (const jig::LzTruncatedError&) {
    return Outcome::kTruncated;
  } catch (const jig::LzCorruptError&) {
    return Outcome::kCorrupt;
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  static std::vector<std::uint8_t> reused;
  const std::span<const std::uint8_t> input(data, size);
  std::vector<std::uint8_t> raw;
  const Outcome fresh = Classify([&] { raw = jig::LzDecompress(input); });
  const Outcome into =
      Classify([&] { jig::LzDecompressInto(input, reused); });
  std::span<const std::uint8_t> view;
  const Outcome scratch =
      Classify([&] { view = jig::LzDecompressScratch(input); });
  if (fresh != into || fresh != scratch) __builtin_trap();
  if (fresh != Outcome::kOk) {
    if (!reused.empty()) __builtin_trap();
    return 0;
  }
  if (reused != raw) __builtin_trap();
  if (!std::equal(view.begin(), view.end(), raw.begin(), raw.end())) {
    __builtin_trap();
  }
  // Decoded OK: the codec must round-trip its own output.
  const auto repacked = jig::LzCompress(raw);
  const auto again = jig::LzDecompress(repacked);
  if (again != raw) __builtin_trap();
  return 0;
}
