#include "monet/string_heap.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "base/logging.h"

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

}  // namespace

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
  auto strings =
      static_cast<size_t>(std::count(buf.begin(), buf.end(), '\0'));
  if (!buf.empty() && buf.back() != '\0') ++strings;
  heap.Reserve(strings, 0);
  size_t pos = 0;
  while (pos < buf.size()) {
    const char* p = buf.data() + pos;
    const size_t len = std::strlen(p);
    const size_t slot = heap.Probe(std::string_view(p, len));
    if (heap.slots_[slot] == kEmpty) {  // else a repeat: keep the first
      heap.slots_[slot] = static_cast<uint32_t>(pos);
      ++heap.count_;
    }
    pos += len + 1;
  }
  return heap;
}

}  // namespace mirror::monet
