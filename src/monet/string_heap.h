#ifndef MIRROR_MONET_STRING_HEAP_H_
#define MIRROR_MONET_STRING_HEAP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace mirror::monet {

class WorkerPool;

/// Interned, append-only string storage shared by string columns, modeled
/// after MonetDB's string heaps. A string is identified by its byte offset
/// into the heap; equal strings are stored once, so offset equality implies
/// string equality (and string columns can compare on offsets without
/// touching bytes when both sides share a heap).
///
/// The dedup index is one open-addressing table of heap offsets: a power
/// of two, at most half full, probed linearly from the spelling's hash and
/// compared against the NUL-terminated bytes already in the buffer. It
/// holds no copy of any spelling.
///
/// Bulk builders (Build, FromBuffer) fill the same table in parallel:
/// rows are hashed, radix-partitioned by the top bits of their home slot
/// (row order kept within a partition), and one worker fills each
/// partition's contiguous, cache-sized region of the table with the first
/// row of every spelling. A probe that runs past its region's end is
/// deferred to a sequential pass in row order. Linear probing without
/// deletes finds a key from its home slot whatever the insertion order,
/// so Probe and Intern read the result unchanged.
class StringHeap {
 public:
  /// Spelling of row i of a bulk build.
  using SpellingFn = std::function<std::string_view(size_t)>;

  StringHeap() = default;

  /// Interns rows 0..n-1 (`spelling(i)`) into a fresh heap and writes each
  /// row's offset to `offsets` (resized to n). The buffer and every offset
  /// equal what Intern(spelling(0)), ..., Intern(spelling(n-1)) on an
  /// empty heap followed by ShrinkToFit() gives: first occurrences are
  /// laid out in row order with a parallel prefix sum over their sizes.
  /// Runs on `pool` (nullptr: the calling thread alone); `spelling` must
  /// tolerate concurrent calls. Workers allocate nothing: all scratch
  /// (hashes, sizes, partitioned row ids, first-occurrence marks) belongs
  /// to the calling thread and is freed on return.
  static StringHeap Build(size_t n, const SpellingFn& spelling,
                          std::vector<uint32_t>* offsets, WorkerPool* pool);

  /// Returns the offset for `s`, appending it if not yet present.
  uint32_t Intern(std::string_view s);

  /// Makes room for `strings` more distinct spellings totalling `bytes`
  /// more payload bytes (terminators included), so a bulk build that
  /// knows its upper bound grows the buffer and the table once. Offsets
  /// already handed out do not change.
  void Reserve(size_t strings, size_t bytes);

  /// Releases what a Reserve() for an upper bound left unused: the spare
  /// buffer capacity, and table slots beyond twice the distinct count.
  void ShrinkToFit();

  /// Returns the string stored at `offset`. Offsets must come from
  /// Intern() on this heap. The view is invalidated by further Intern()
  /// calls (the heap may reallocate); copy if retaining.
  std::string_view At(uint32_t offset) const;

  /// Number of distinct strings interned.
  size_t size() const { return count_; }

  /// Total bytes of string payload (including NUL terminators).
  size_t payload_bytes() const { return buffer_.size(); }

  /// Bytes held by the buffer and the table (their capacities).
  size_t footprint_bytes() const {
    return buffer_.capacity() + slots_.capacity() * sizeof(uint32_t);
  }

  /// Serialization for catalog persistence: the raw buffer
  /// (NUL-terminated strings back to back).
  const std::string& buffer() const { return buffer_; }

  /// Rebuilds a heap from a persisted buffer, indexing it on the shared
  /// worker pool. A spelling stored twice keeps its first offset.
  static StringHeap FromBuffer(std::string buffer);

  /// Table slots one worker fills in a bulk build: half of L2, at most
  /// 1 MiB of slots.
  static size_t BuildRegionSlots();

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  /// Fills the empty table, already sized for `n` rows, with the first
  /// row id of every distinct spelling among rows 0..n-1 (the partitioned
  /// scheme above). Writes each row's slot to `slot_of` and its spelling's
  /// size to `sizes`, and sets `first[r]` (zeroed by the caller) for each
  /// spelling's first row. The slots then hold row ids, not offsets; the
  /// caller rewrites them.
  void FillWithFirstRows(size_t n, const SpellingFn& spelling,
                         uint32_t* slot_of, uint32_t* sizes, uint8_t* first,
                         WorkerPool* pool);

  /// The slot holding `s`, or the empty slot where it would go.
  size_t Probe(std::string_view s) const;
  /// Rehashes into a table of `slots` slots (a power of two).
  void Rehash(size_t slots);

  std::string buffer_;           // NUL-terminated strings back to back
  std::vector<uint32_t> slots_;  // heap offsets; kEmpty marks a free slot
  size_t count_ = 0;
};

}  // namespace mirror::monet

#endif  // MIRROR_MONET_STRING_HEAP_H_
