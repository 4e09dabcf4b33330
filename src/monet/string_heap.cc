#include "monet/string_heap.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "base/logging.h"
#include "monet/cache_info.h"
#include "monet/worker_pool.h"

namespace mirror::monet {

namespace {

/// Table size for `strings` distinct spellings: the smallest power of two
/// that keeps the table at most half full.
size_t SlotsFor(size_t strings) {
  size_t slots = 16;
  while (slots < 2 * strings) slots <<= 1;
  return slots;
}

size_t HashOf(std::string_view s) { return std::hash<std::string_view>{}(s); }

/// Bulk builds keep row ids and slot indexes in 32 bits, with UINT32_MAX
/// free as a marker: at most 2^30 rows, so at most 2^31 slots.
constexpr size_t kMaxBuildRows = size_t{1} << 30;

/// Row chunks of a bulk pass over `n` rows: a few per thread of `pool`
/// for balance, none under 16K rows (smaller inputs run inline).
size_t ChunksFor(size_t n, WorkerPool* pool) {
  constexpr size_t kMinChunkRows = 16 * 1024;
  const size_t threads =
      pool == nullptr ? 1 : static_cast<size_t>(pool->size()) + 1;
  return std::max<size_t>(1, std::min(n / kMinChunkRows, 4 * threads));
}

}  // namespace

size_t StringHeap::BuildRegionSlots() {
  constexpr size_t kMaxRegionBytes = 1024 * 1024;
  const size_t bytes = std::min(L2CacheBytes() / 2, kMaxRegionBytes);
  // The largest power of two that fits, so regions tile the table.
  return NextPowerOfTwo(bytes / sizeof(uint32_t) + 1) / 2;
}

void StringHeap::FillWithFirstRows(size_t n, const SpellingFn& spelling,
                                   uint32_t* slot_of, uint32_t* sizes,
                                   uint8_t* first, WorkerPool* pool) {
  const size_t table = slots_.size();
  const size_t mask = table - 1;
  const size_t region = std::min(table, BuildRegionSlots());
  const size_t regions = table / region;
  const int shift = __builtin_ctzll(region);
  const size_t chunks = ChunksFor(n, pool);

  // Hash every row (the table has at most 2^31 slots, so the low 32 bits
  // give the home slot) and count each chunk's rows per region.
  std::vector<uint32_t> hashes(n);
  std::vector<size_t> next(chunks * regions, 0);
  ParallelForChunks(pool, n, chunks, [&](size_t c, size_t lo, size_t hi) {
    size_t* count = &next[c * regions];
    for (size_t r = lo; r < hi; ++r) {
      const std::string_view s = spelling(r);
      const auto h = static_cast<uint32_t>(HashOf(s));
      hashes[r] = h;
      sizes[r] = static_cast<uint32_t>(s.size());
      ++count[(h & mask) >> shift];
    }
  });
  // Region-major prefix sum, then a stable scatter: each region's rows
  // land contiguously and in row order.
  std::vector<size_t> region_begin(regions + 1);
  size_t at = 0;
  for (size_t p = 0; p < regions; ++p) {
    region_begin[p] = at;
    for (size_t c = 0; c < chunks; ++c) {
      const size_t count = next[c * regions + p];
      next[c * regions + p] = at;
      at += count;
    }
  }
  region_begin[regions] = at;
  std::vector<uint32_t> rows(n);
  ParallelForChunks(pool, n, chunks, [&](size_t c, size_t lo, size_t hi) {
    size_t* cursor = &next[c * regions];
    for (size_t r = lo; r < hi; ++r) {
      rows[cursor[(hashes[r] & mask) >> shift]++] = static_cast<uint32_t>(r);
    }
  });

  // Every row of one spelling shares a home slot, hence a region, and
  // arrives there in row order, so the first row claims the slot. Once a
  // spelling's first row is deferred, its later rows run past the region
  // end too (slots only fill up) and are deferred behind it.
  auto same = [&](uint32_t q, size_t r) {
    return hashes[q] == hashes[r] && sizes[q] == sizes[r] &&
           spelling(q) == spelling(r);
  };
  ParallelFor(pool, regions, [&](size_t p) {
    const size_t end = (p + 1) * region;
    for (size_t k = region_begin[p]; k < region_begin[p + 1]; ++k) {
      const uint32_t r = rows[k];
      size_t i = hashes[r] & mask;
      while (i < end && slots_[i] != kEmpty && !same(slots_[i], r)) ++i;
      if (i == end) {
        slot_of[r] = kEmpty;  // deferred
        continue;
      }
      if (slots_[i] == kEmpty) {
        slots_[i] = r;
        first[r] = 1;
      }
      slot_of[r] = static_cast<uint32_t>(i);
    }
  });
  for (size_t r = 0; r < n; ++r) {
    if (slot_of[r] != kEmpty) continue;
    size_t i = hashes[r] & mask;
    while (slots_[i] != kEmpty && !same(slots_[i], r)) i = (i + 1) & mask;
    if (slots_[i] == kEmpty) {
      slots_[i] = static_cast<uint32_t>(r);
      first[r] = 1;
    }
    slot_of[r] = static_cast<uint32_t>(i);
  }
}

StringHeap StringHeap::Build(size_t n, const SpellingFn& spelling,
                             std::vector<uint32_t>* offsets,
                             WorkerPool* pool) {
  MIRROR_CHECK_LE(n, kMaxBuildRows) << "string heap bulk build too large";
  StringHeap heap;
  offsets->resize(n);
  if (n == 0) return heap;
  heap.slots_.assign(SlotsFor(n), kEmpty);
  uint32_t* slot_of = offsets->data();
  std::vector<uint32_t> sizes(n);
  std::vector<uint8_t> first(n);
  heap.FillWithFirstRows(n, spelling, slot_of, sizes.data(), first.data(),
                         pool);

  // First occurrences are laid out in row order: byte totals per chunk, a
  // prefix sum, then each chunk copies its first occurrences to their
  // final offsets and points their slots there.
  const size_t chunks = ChunksFor(n, pool);
  std::vector<size_t> chunk_at(chunks + 1, 0);
  std::vector<size_t> chunk_firsts(chunks, 0);
  ParallelForChunks(pool, n, chunks, [&](size_t c, size_t lo, size_t hi) {
    size_t bytes = 0;
    for (size_t r = lo; r < hi; ++r) {
      if (!first[r]) continue;
      bytes += sizes[r] + 1;
      ++chunk_firsts[c];
    }
    chunk_at[c + 1] = bytes;
  });
  for (size_t c = 0; c < chunks; ++c) {
    chunk_at[c + 1] += chunk_at[c];
    heap.count_ += chunk_firsts[c];
  }
  MIRROR_CHECK_LT(chunk_at[chunks], static_cast<size_t>(UINT32_MAX))
      << "string heap overflow";
  // Zero-filled, so every terminator is already in place.
  heap.buffer_.resize(chunk_at[chunks]);
  char* buf = heap.buffer_.data();
  ParallelForChunks(pool, n, chunks, [&](size_t c, size_t lo, size_t hi) {
    size_t at = chunk_at[c];
    for (size_t r = lo; r < hi; ++r) {
      if (!first[r]) continue;
      std::memcpy(buf + at, spelling(r).data(), sizes[r]);
      heap.slots_[slot_of[r]] = static_cast<uint32_t>(at);
      at += sizes[r] + 1;
    }
  });
  ParallelForChunks(pool, n, chunks, [&](size_t, size_t lo, size_t hi) {
    for (size_t r = lo; r < hi; ++r) slot_of[r] = heap.slots_[slot_of[r]];
  });
  heap.ShrinkToFit();
  return heap;
}

size_t StringHeap::Probe(std::string_view s) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = HashOf(s) & mask;; i = (i + 1) & mask) {
    const uint32_t off = slots_[i];
    if (off == kEmpty) return i;
    // The stored spelling equals `s` iff its bytes match and its
    // terminator sits right after them (a buffer without a final NUL
    // still ends in std::string's own terminator).
    const size_t end = off + s.size();
    if (end <= buffer_.size() && buffer_[end] == '\0' &&
        std::memcmp(buffer_.data() + off, s.data(), s.size()) == 0) {
      return i;
    }
  }
}

void StringHeap::Rehash(size_t slots) {
  std::vector<uint32_t> old = std::move(slots_);
  slots_.assign(slots, kEmpty);
  const size_t mask = slots - 1;
  for (uint32_t off : old) {
    if (off == kEmpty) continue;
    size_t i = HashOf(At(off)) & mask;
    while (slots_[i] != kEmpty) i = (i + 1) & mask;
    slots_[i] = off;
  }
}

uint32_t StringHeap::Intern(std::string_view s) {
  size_t slot = 0;
  if (!slots_.empty()) {
    slot = Probe(s);
    if (slots_[slot] != kEmpty) return slots_[slot];
  }
  MIRROR_CHECK_LT(buffer_.size() + s.size() + 1,
                  static_cast<size_t>(UINT32_MAX))
      << "string heap overflow";
  if (2 * (count_ + 1) > slots_.size()) {
    Rehash(SlotsFor(count_ + 1));
    slot = Probe(s);
  }
  const auto offset = static_cast<uint32_t>(buffer_.size());
  buffer_.append(s.data(), s.size());
  buffer_.push_back('\0');
  slots_[slot] = offset;
  ++count_;
  return offset;
}

void StringHeap::Reserve(size_t strings, size_t bytes) {
  buffer_.reserve(buffer_.size() + bytes);
  const size_t slots = SlotsFor(count_ + strings);
  if (slots > slots_.size()) Rehash(slots);
}

void StringHeap::ShrinkToFit() {
  buffer_.shrink_to_fit();
  const size_t slots = SlotsFor(count_);
  if (slots < slots_.size()) Rehash(slots);
}

std::string_view StringHeap::At(uint32_t offset) const {
  MIRROR_CHECK_LT(static_cast<size_t>(offset), buffer_.size());
  const char* p = buffer_.data() + offset;
  return std::string_view(p, std::strlen(p));
}

StringHeap StringHeap::FromBuffer(std::string buffer) {
  StringHeap heap;
  heap.buffer_ = std::move(buffer);
  const std::string& buf = heap.buffer_;
  // Row r is the spelling starting at starts[r]; the last one may lack
  // its terminator (std::string's own ends it).
  std::vector<uint32_t> starts;
  for (size_t pos = 0; pos < buf.size();) {
    starts.push_back(static_cast<uint32_t>(pos));
    const void* nul = std::memchr(buf.data() + pos, '\0', buf.size() - pos);
    pos = nul == nullptr ? buf.size()
                         : static_cast<const char*>(nul) - buf.data() + 1;
  }
  const size_t n = starts.size();
  if (n == 0) return heap;
  MIRROR_CHECK_LE(n, kMaxBuildRows) << "string heap bulk build too large";
  heap.slots_.assign(SlotsFor(n), kEmpty);
  std::vector<uint32_t> slot_of(n);
  std::vector<uint32_t> sizes(n);
  std::vector<uint8_t> first(n);
  heap.FillWithFirstRows(
      n,
      [&](size_t r) { return std::string_view(buf.data() + starts[r]); },
      slot_of.data(), sizes.data(), first.data(), &SharedWorkerPool());
  // Every spelling stays where the buffer has it: a slot takes its first
  // row's offset, and a repeat keeps its bytes but no slot.
  for (uint32_t& slot : heap.slots_) {
    if (slot != kEmpty) slot = starts[slot];
  }
  heap.count_ = static_cast<size_t>(std::count(first.begin(), first.end(), 1));
  return heap;
}

}  // namespace mirror::monet
