#ifndef MIRROR_MONET_STRING_HEAP_H_
#define MIRROR_MONET_STRING_HEAP_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mirror::monet {

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
class StringHeap {
 public:
  StringHeap() = default;

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

  /// Rebuilds a heap from a persisted buffer. A spelling stored twice
  /// keeps its first offset.
  static StringHeap FromBuffer(std::string buffer);

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

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
