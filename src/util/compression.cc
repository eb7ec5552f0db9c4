#include "util/compression.h"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>

namespace jig {
namespace {

constexpr std::size_t kHashBits = 15;
constexpr std::size_t kHashSize = 1u << kHashBits;
// Hash-chain walk bound for LzLevel::kDefault.  Deep enough to find the
// long header repeats capture data is full of, small enough that worst-case
// input degrades to O(n * 32) rather than O(n * window).
constexpr int kDefaultChainDepth = 32;
// Sentinel for "no previous position with this hash".
constexpr std::uint32_t kNilPos = 0xFFFFFFFFu;

std::uint32_t Hash4(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

void PutU16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void PutU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  PutU16(out, static_cast<std::uint16_t>(v));
  PutU16(out, static_cast<std::uint16_t>(v >> 16));
}

// Flushes pending literals as runs of <=128 bytes.
void FlushLiterals(std::vector<std::uint8_t>& out, const std::uint8_t* base,
                   std::size_t start, std::size_t end) {
  while (start < end) {
    const std::size_t run = std::min<std::size_t>(end - start, 0x80);
    out.push_back(static_cast<std::uint8_t>(run - 1));
    out.insert(out.end(), base + start, base + start + run);
    start += run;
  }
}

std::size_t MatchLength(const std::uint8_t* a, const std::uint8_t* b,
                        std::size_t limit) {
  std::size_t len = 0;
  while (len + 8 <= limit) {
    std::uint64_t va;
    std::uint64_t vb;
    std::memcpy(&va, a + len, 8);
    std::memcpy(&vb, b + len, 8);
    if (va != vb) {
      return len + static_cast<std::size_t>(std::countr_zero(va ^ vb) >> 3);
    }
    len += 8;
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

// Spare bytes the decoder keeps past its write cursor; also the chunk
// CopyChunks moves at a time.
constexpr std::size_t kCopySlack = 16;

// Copies `len` bytes as whole kCopySlack-byte chunks, so it may write up to
// kCopySlack - 1 bytes past dst + len and read as far past src + len; the
// caller guarantees both are in bounds and that no chunk read overlaps a
// chunk write (src + kCopySlack <= dst, or separate buffers).  The spill
// past dst + len lands on bytes the next token overwrites.  Fixed-size
// memcpy compiles to one vector load/store pair, where a short
// variable-length memcpy is a library call per token.
void CopyChunks(std::uint8_t* dst, const std::uint8_t* src, std::size_t len) {
  for (std::size_t i = 0; i < len; i += kCopySlack) {
    std::memcpy(dst + i, src + i, kCopySlack);
  }
}

}  // namespace

std::vector<std::uint8_t> LzCompress(std::span<const std::uint8_t> raw,
                                     LzLevel level) {
  std::vector<std::uint8_t> out;
  out.reserve(raw.size() / 2 + 16);
  PutU32(out, static_cast<std::uint32_t>(raw.size()));

  const std::uint8_t* data = raw.data();
  const std::size_t n = raw.size();
  const int max_chain = level == LzLevel::kFast ? 1 : kDefaultChainDepth;

  // head[h] is the most recent position hashing to h; prev[pos] links each
  // inserted position to the previous one with the same hash, forming the
  // chain the finder walks newest-first (so equal-length ties resolve to
  // the nearest, i.e. smallest, distance).
  std::vector<std::uint32_t> head(kHashSize, kNilPos);
  std::vector<std::uint32_t> prev(n >= kLzMinMatch ? n : 0);

  const auto insert = [&](std::size_t i) {
    const std::uint32_t h = Hash4(data + i);
    prev[i] = head[h];
    head[h] = static_cast<std::uint32_t>(i);
  };

  std::size_t pos = 0;
  std::size_t literal_start = 0;
  while (pos + kLzMinMatch <= n) {
    std::uint32_t cand = head[Hash4(data + pos)];
    insert(pos);

    std::size_t best_len = 0;
    std::size_t best_dist = 0;
    const std::size_t limit = std::min(n - pos, kLzMaxMatch);
    for (int depth = 0; depth < max_chain && cand != kNilPos; ++depth) {
      const std::size_t dist = pos - cand;
      if (dist > kLzWindow) break;  // chain positions only get older
      // Cheap reject: a longer match must agree at the first byte the
      // current best got wrong.
      if (best_len == 0 || data[cand + best_len] == data[pos + best_len]) {
        const std::size_t len = MatchLength(data + cand, data + pos, limit);
        if (len > best_len) {
          best_len = len;
          best_dist = dist;
          if (len == limit) break;
        }
      }
      cand = prev[cand];
    }

    if (best_len >= kLzMinMatch) {
      FlushLiterals(out, data, literal_start, pos);
      out.push_back(static_cast<std::uint8_t>(
          0x80u | static_cast<std::uint8_t>(best_len - kLzMinMatch)));
      PutU16(out, static_cast<std::uint16_t>(best_dist));
      // Insert hashes inside the match so later data can reference it.
      const std::size_t stop = std::min(pos + best_len, n - kLzMinMatch + 1);
      for (std::size_t i = pos + 1; i < stop; ++i) insert(i);
      pos += best_len;
      literal_start = pos;
    } else {
      ++pos;
    }
  }
  FlushLiterals(out, data, literal_start, n);
  return out;
}

namespace {

template <typename Buffer>
void DecodeInto(std::span<const std::uint8_t> packed, Buffer& out) {
  if (packed.size() < 4) {
    throw LzTruncatedError("LzDecompress: short header");
  }
  const std::uint32_t raw_size = static_cast<std::uint32_t>(packed[0]) |
                                 (static_cast<std::uint32_t>(packed[1]) << 8) |
                                 (static_cast<std::uint32_t>(packed[2]) << 16) |
                                 (static_cast<std::uint32_t>(packed[3]) << 24);

  // A match token (3 bytes) emits at most kLzMaxMatch bytes, so no
  // conforming stream expands beyond kLzMaxMatch per input byte; a declared
  // raw size past that is self-inconsistent.  Rejecting it here (and capping
  // the upfront sizing) keeps a hostile 4-byte header from demanding a
  // 4 GiB allocation — std::bad_alloc is not part of the error taxonomy.
  if (raw_size > (packed.size() - 4) * kLzMaxMatch) {
    throw LzCorruptError("LzDecompress: declared raw size unreachable");
  }
  // `out` is sized ahead of the write cursor `o` and written through a
  // pointer, with kCopySlack spare bytes past the furthest write so short
  // copies can move whole chunks (see CopyChunks).  The upfront size stays
  // within kLzReserveCap; past it `out` grows geometrically with the bytes
  // actually produced, so a reachable but inflated declared size costs
  // memory only as the stream really delivers it.  Whatever `out` held
  // before is overwritten or cut off by the final resize.
  out.resize(std::min<std::size_t>(std::size_t{raw_size} + kCopySlack,
                                    kLzReserveCap));
  const auto ensure = [&out, raw_size](std::size_t need) {
    if (need + kCopySlack > out.size()) {
      out.resize(std::min<std::size_t>(raw_size,
                                       std::max(need, 2 * out.size())) +
                 kCopySlack);
    }
  };
  std::size_t o = 0;
  std::size_t pos = 4;
  const std::size_t n = packed.size();
  while (pos < n) {
    const std::uint8_t control = packed[pos++];
    if (control < 0x80) {
      const std::size_t run = static_cast<std::size_t>(control) + 1;
      if (pos + run > n) {
        throw LzTruncatedError("LzDecompress: literal run truncated");
      }
      if (o + run > raw_size) {
        throw LzCorruptError("LzDecompress: output exceeds declared raw size");
      }
      ensure(o + run);
      if (n - pos >= run + kCopySlack) {
        CopyChunks(out.data() + o, packed.data() + pos, run);
      } else {
        std::memcpy(out.data() + o, packed.data() + pos, run);
      }
      o += run;
      pos += run;
    } else {
      const std::size_t len = (control & 0x7Fu) + kLzMinMatch;
      if (pos + 2 > n) {
        throw LzTruncatedError("LzDecompress: match token truncated");
      }
      const std::size_t dist = static_cast<std::size_t>(packed[pos]) |
                               (static_cast<std::size_t>(packed[pos + 1]) << 8);
      pos += 2;
      if (dist == 0 || dist > o) {
        throw LzCorruptError("LzDecompress: bad match distance");
      }
      if (o + len > raw_size) {
        throw LzCorruptError("LzDecompress: output exceeds declared raw size");
      }
      ensure(o + len);
      std::uint8_t* dst = out.data() + o;
      const std::uint8_t* src = dst - dist;
      if (dist >= kCopySlack) {
        CopyChunks(dst, src, len);
      } else if (dist >= len) {
        std::memcpy(dst, src, len);
      } else if (dist == 1) {
        std::memset(dst, *src, len);
      } else {
        // Overlapping match (dist < len): legal, and how runs are encoded —
        // each byte may read one this copy just wrote, so no memcpy.
        for (std::size_t i = 0; i < len; ++i) dst[i] = src[i];
      }
      o += len;
    }
  }
  if (o != raw_size) {
    throw LzTruncatedError("LzDecompress: stream ends before declared raw size");
  }
  out.resize(o);
}

template <typename Buffer>
void DecodeOrClear(std::span<const std::uint8_t> packed, Buffer& out) {
  try {
    DecodeInto(packed, out);
  } catch (...) {
    out.clear();  // never leave a half-decoded block behind
    throw;
  }
}

// Maps whole pages straight from the kernel, outside malloc's heaps.
template <typename T>
struct PageAllocator {
  using value_type = T;
  T* allocate(std::size_t n) {
    void* p = mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t n) { munmap(p, n * sizeof(T)); }
  friend bool operator==(const PageAllocator&, const PageAllocator&) {
    return true;
  }
};

}  // namespace

void LzDecompressInto(std::span<const std::uint8_t> packed,
                      std::vector<std::uint8_t>& out) {
  DecodeOrClear(packed, out);
}

std::span<const std::uint8_t> LzDecompressScratch(
    std::span<const std::uint8_t> packed) {
  // Mapped once at kLzReserveCap and never moved: only the pages a block
  // actually fills become resident, and the buffer sits outside malloc's
  // heaps.  Kept in a heap it pinned the memory the records decoded after
  // it had freed, and peak RSS rose 9-12% (perfbench merge-1t with the
  // buffer reserved up front, catchup with it grown on demand).
  thread_local std::vector<std::uint8_t, PageAllocator<std::uint8_t>>
      scratch;
  if (scratch.capacity() == 0) scratch.reserve(kLzReserveCap);
  DecodeOrClear(packed, scratch);
  return scratch;
}

std::vector<std::uint8_t> LzDecompress(std::span<const std::uint8_t> packed) {
  std::vector<std::uint8_t> out;
  LzDecompressInto(packed, out);
  return out;
}

}  // namespace jig
