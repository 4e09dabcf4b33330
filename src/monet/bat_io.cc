#include "monet/bat_io.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>

#include "monet/string_heap.h"

namespace mirror::monet {

// Packed words and raw payloads are copied with memcpy, so the encoding's
// little-endian byte order is the host's.
static_assert(std::endian::native == std::endian::little,
              "bat_io assumes a little-endian host");

namespace {

base::Status Truncated() {
  return base::Status::ParseError("truncated column encoding");
}

template <typename T>
void AppendPod(const T& v, std::vector<uint8_t>* out) {
  static_assert(std::is_trivially_copyable_v<T>);
  const uint8_t* p = reinterpret_cast<const uint8_t*>(&v);
  out->insert(out->end(), p, p + sizeof(T));
}

template <typename T>
base::Status ReadPod(const std::vector<uint8_t>& buf, size_t* pos, T* v) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (*pos > buf.size() || buf.size() - *pos < sizeof(T)) return Truncated();
  std::memcpy(v, buf.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return base::Status::Ok();
}

void AppendBytes(const void* data, size_t n, std::vector<uint8_t>* out) {
  AppendVarint(n, out);
  const uint8_t* p = static_cast<const uint8_t*>(data);
  out->insert(out->end(), p, p + n);
}

/// Reads a varint length and checks that many bytes follow.
base::Status ReadLength(const std::vector<uint8_t>& buf, size_t* pos,
                        uint64_t* n) {
  MIRROR_RETURN_IF_ERROR(ReadVarint(buf, pos, n));
  if (buf.size() - *pos < *n) return Truncated();
  return base::Status::Ok();
}

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (0 - (v & 1)));
}

/// Bits needed for `span` (the largest delta), at least 1.
unsigned WidthOf(uint64_t span) {
  return std::max(1u, static_cast<unsigned>(std::bit_width(span)));
}

/// Checks a decoded count's unpacked size against the caller's bound.
base::Status CheckUnpacked(uint64_t count, size_t elem_bytes,
                           size_t max_unpacked_bytes) {
  if (count > max_unpacked_bytes / elem_bytes) {
    return base::Status::OutOfRange(
        "column would unpack past the decode size limit");
  }
  return base::Status::Ok();
}

/// Frame of reference: every value as its delta from the minimum
/// `min_word`, `width` bits each (the bits of `span`, the largest delta),
/// LSB-first. Values and deltas are taken as uint64_t words (two's
/// complement for ints), so a span of 2^64 - 1 packs at width 64.
template <typename T>
void PackFor(std::span<const T> v, uint64_t min_word, uint64_t span,
             std::vector<uint8_t>* out) {
  const unsigned width = WidthOf(span);
  AppendPod<uint8_t>(static_cast<uint8_t>(width), out);
  const size_t start = out->size();
  out->resize(start + (v.size() * width + 7) / 8);
  uint8_t* dst = out->data() + start;
  uint64_t acc = 0;
  unsigned fill = 0;  // bits pending in acc, always < 64 between values
  for (const T& x : v) {
    const uint64_t d = static_cast<uint64_t>(x) - min_word;
    acc |= d << fill;
    fill += width;
    if (fill >= 64) {
      std::memcpy(dst, &acc, 8);
      dst += 8;
      fill -= 64;
      acc = fill == 0 ? 0 : d >> (width - fill);
    }
  }
  std::memcpy(dst, &acc, (fill + 7) / 8);
}

/// Decodes `n` FOR deltas at `*pos` into `*v` as T(min_word + d).
/// Refuses any encoding the packer would not have produced: a width
/// outside [1, 64], fewer bytes than `n * width` bits need, nonzero pad
/// bits, a delta above `max_span` (a value past the type's range), or a
/// minimum or width that is not the vector's own. Decoding therefore
/// accepts exactly one encoding per vector. Only once the bits are known
/// to be present is `n` checked against `max_unpacked_bytes`.
template <typename T>
base::Status UnpackFor(const std::vector<uint8_t>& buf, size_t* pos,
                       size_t n, uint64_t min_word, uint64_t max_span,
                       size_t max_unpacked_bytes, std::vector<T>* v) {
  uint8_t width = 0;
  MIRROR_RETURN_IF_ERROR(ReadPod(buf, pos, &width));
  if (width == 0 || width > 64) {
    return base::Status::ParseError("bad column bit width");
  }
  if (n > (buf.size() - *pos) * 8 / width) return Truncated();
  MIRROR_RETURN_IF_ERROR(CheckUnpacked(n, sizeof(T), max_unpacked_bytes));
  const size_t nbytes = (n * width + 7) / 8;
  const uint8_t* src = buf.data() + *pos;
  const uint8_t* end = src + nbytes;
  const uint64_t mask =
      width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
  v->resize(n);
  uint64_t acc = 0;
  unsigned avail = 0;  // unread bits in acc, at most 63
  uint64_t lo = ~uint64_t{0};
  uint64_t hi = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t d;
    if (avail >= width) {
      d = acc & mask;
      acc >>= width;
      avail -= width;
    } else {
      uint64_t word = 0;
      const size_t k = std::min<size_t>(8, static_cast<size_t>(end - src));
      std::memcpy(&word, src, k);
      src += k;
      const unsigned used = width - avail;  // bits taken from word
      d = (acc | (word << avail)) & mask;
      acc = used == 64 ? 0 : word >> used;
      avail = static_cast<unsigned>(8 * k) - used;
    }
    lo = std::min(lo, d);
    hi = std::max(hi, d);
    (*v)[i] = static_cast<T>(min_word + d);
  }
  if (acc != 0) return base::Status::ParseError("nonzero column pad bits");
  if (n > 0 && (hi > max_span || lo != 0 || WidthOf(hi) != width)) {
    return base::Status::ParseError("non-canonical packed column");
  }
  *pos += nbytes;
  return base::Status::Ok();
}

}  // namespace

void AppendVarint(uint64_t v, std::vector<uint8_t>* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

base::Status ReadVarint(const std::vector<uint8_t>& buf, size_t* pos,
                        uint64_t* v) {
  uint64_t r = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    if (*pos >= buf.size()) return Truncated();
    const uint8_t b = buf[(*pos)++];
    // The tenth byte may carry only bit 63; a zero final byte after the
    // first would be an overlong spelling of a shorter varint.
    if (shift == 63 && b > 1) break;
    r |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      if (b == 0 && shift > 0) break;
      *v = r;
      return base::Status::Ok();
    }
  }
  return base::Status::ParseError("malformed varint");
}

void EncodeColumn(const Column& c, std::vector<uint8_t>* out) {
  AppendPod<uint8_t>(static_cast<uint8_t>(c.type()), out);
  AppendVarint(c.size(), out);
  switch (c.type()) {
    case ValueType::kVoid:
      AppendVarint(c.void_base(), out);
      break;
    case ValueType::kOid: {
      if (c.size() == 0) break;
      const auto oids = c.oids();
      const auto [lo, hi] = std::minmax_element(oids.begin(), oids.end());
      AppendVarint(*lo, out);
      PackFor(oids, *lo, *hi - *lo, out);
      break;
    }
    case ValueType::kInt: {
      if (c.size() == 0) break;
      const auto ints = c.ints();
      const auto [lo, hi] = std::minmax_element(ints.begin(), ints.end());
      AppendVarint(ZigZag(*lo), out);
      const auto min = static_cast<uint64_t>(*lo);
      PackFor(ints, min, static_cast<uint64_t>(*hi) - min, out);
      break;
    }
    case ValueType::kDbl: {
      const uint8_t* p = reinterpret_cast<const uint8_t*>(c.dbls().data());
      out->insert(out->end(), p, p + c.size() * sizeof(double));
      break;
    }
    case ValueType::kStr: {
      const std::string& heap = c.heap()->buffer();
      AppendBytes(heap.data(), heap.size(), out);
      if (c.size() == 0) break;
      const auto offs = c.str_offsets();
      const auto [lo, hi] = std::minmax_element(offs.begin(), offs.end());
      AppendVarint(*lo, out);
      PackFor(offs, *lo, uint64_t{*hi - *lo}, out);
      break;
    }
  }
}

base::Result<Column> DecodeColumn(const std::vector<uint8_t>& buf,
                                  size_t* pos, size_t max_unpacked_bytes) {
  uint8_t type = 0;
  uint64_t count = 0;
  MIRROR_RETURN_IF_ERROR(ReadPod(buf, pos, &type));
  MIRROR_RETURN_IF_ERROR(ReadVarint(buf, pos, &count));
  // An empty vector carries no minimum and no width.
  uint64_t min = 0;
  switch (static_cast<ValueType>(type)) {
    case ValueType::kVoid: {
      uint64_t base_oid = 0;
      MIRROR_RETURN_IF_ERROR(ReadVarint(buf, pos, &base_oid));
      if (count > std::numeric_limits<uint64_t>::max() - base_oid) {
        return base::Status::ParseError("void column oids overflow");
      }
      return Column::MakeVoid(base_oid, static_cast<size_t>(count));
    }
    case ValueType::kOid: {
      std::vector<Oid> v;
      if (count > 0) {
        MIRROR_RETURN_IF_ERROR(ReadVarint(buf, pos, &min));
        MIRROR_RETURN_IF_ERROR(UnpackFor(
            buf, pos, count, min, std::numeric_limits<uint64_t>::max() - min,
            max_unpacked_bytes, &v));
      }
      return Column::MakeOids(std::move(v));
    }
    case ValueType::kInt: {
      std::vector<int64_t> v;
      if (count > 0) {
        MIRROR_RETURN_IF_ERROR(ReadVarint(buf, pos, &min));
        min = static_cast<uint64_t>(UnZigZag(min));
        // Deltas wrap through the unsigned words, so the largest legal
        // one lands exactly on INT64_MAX.
        constexpr auto kMax =
            static_cast<uint64_t>(std::numeric_limits<int64_t>::max());
        MIRROR_RETURN_IF_ERROR(UnpackFor(buf, pos, count, min, kMax - min,
                                         max_unpacked_bytes, &v));
      }
      return Column::MakeInts(std::move(v));
    }
    case ValueType::kDbl: {
      if ((buf.size() - *pos) / sizeof(double) < count) return Truncated();
      MIRROR_RETURN_IF_ERROR(
          CheckUnpacked(count, sizeof(double), max_unpacked_bytes));
      std::vector<double> v(count);
      // An empty vector's data() may be null, and memcpy from or to null
      // is undefined even for zero bytes.
      if (count > 0) {
        std::memcpy(v.data(), buf.data() + *pos, count * sizeof(double));
      }
      *pos += count * sizeof(double);
      return Column::MakeDbls(std::move(v));
    }
    case ValueType::kStr: {
      uint64_t heap_len = 0;
      MIRROR_RETURN_IF_ERROR(ReadLength(buf, pos, &heap_len));
      std::string heap_buf(reinterpret_cast<const char*>(buf.data() + *pos),
                           static_cast<size_t>(heap_len));
      *pos += heap_len;
      // A heap holds NUL-terminated spellings back to back; an
      // unterminated last one would run into the next Intern().
      if (!heap_buf.empty() && heap_buf.back() != '\0') {
        return base::Status::ParseError("unterminated string heap");
      }
      std::vector<uint32_t> offsets;
      if (count > 0) {
        MIRROR_RETURN_IF_ERROR(ReadVarint(buf, pos, &min));
        constexpr uint64_t kOffsets =
            uint64_t{std::numeric_limits<uint32_t>::max()} + 1;
        const uint64_t end = std::min<uint64_t>(heap_buf.size(), kOffsets);
        if (min >= end) {
          return base::Status::ParseError("str offset outside heap");
        }
        MIRROR_RETURN_IF_ERROR(UnpackFor(buf, pos, count, min, end - 1 - min,
                                         max_unpacked_bytes, &offsets));
        // Every offset must start a spelling: one inside a spelling
        // would name a suffix that the heap may also hold on its own.
        std::vector<bool> starts(heap_buf.size(), false);
        starts[0] = true;
        for (size_t i = 0; i + 1 < heap_buf.size(); ++i) {
          if (heap_buf[i] == '\0') starts[i + 1] = true;
        }
        for (uint32_t off : offsets) {
          if (!starts[off]) {
            return base::Status::ParseError("str offset inside a spelling");
          }
        }
      }
      auto heap = std::make_shared<StringHeap>(
          StringHeap::FromBuffer(std::move(heap_buf)));
      return Column::MakeStrsShared(std::move(heap), std::move(offsets));
    }
  }
  return base::Status::ParseError("unknown column type tag");
}

void EncodeBat(const Bat& bat, std::vector<uint8_t>* out) {
  EncodeColumn(bat.head(), out);
  EncodeColumn(bat.tail(), out);
}

base::Result<Bat> DecodeBat(const std::vector<uint8_t>& buf, size_t* pos) {
  auto head = DecodeColumn(buf, pos);
  if (!head.ok()) return head.status();
  auto tail = DecodeColumn(buf, pos);
  if (!tail.ok()) return tail.status();
  if (head.value().size() != tail.value().size()) {
    return base::Status::ParseError("bat head/tail size mismatch");
  }
  return Bat(head.TakeValue(), tail.TakeValue());
}

void EncodeValue(const Value& v, std::vector<uint8_t>* out) {
  AppendPod<uint8_t>(static_cast<uint8_t>(v.type()), out);
  switch (v.type()) {
    case ValueType::kOid:
      AppendPod<uint64_t>(v.oid(), out);
      break;
    case ValueType::kInt:
      AppendPod<int64_t>(v.i(), out);
      break;
    case ValueType::kDbl:
      AppendPod<double>(v.d(), out);
      break;
    case ValueType::kStr:
      AppendBytes(v.s().data(), v.s().size(), out);
      break;
    case ValueType::kVoid:
      break;  // no payload; decoder rejects the tag
  }
}

base::Result<Value> DecodeValue(const std::vector<uint8_t>& buf,
                                size_t* pos) {
  uint8_t type = 0;
  MIRROR_RETURN_IF_ERROR(ReadPod(buf, pos, &type));
  switch (static_cast<ValueType>(type)) {
    case ValueType::kOid: {
      uint64_t v = 0;
      MIRROR_RETURN_IF_ERROR(ReadPod(buf, pos, &v));
      return Value::MakeOid(v);
    }
    case ValueType::kInt: {
      int64_t v = 0;
      MIRROR_RETURN_IF_ERROR(ReadPod(buf, pos, &v));
      return Value::MakeInt(v);
    }
    case ValueType::kDbl: {
      double v = 0;
      MIRROR_RETURN_IF_ERROR(ReadPod(buf, pos, &v));
      return Value::MakeDbl(v);
    }
    case ValueType::kStr: {
      uint64_t n = 0;
      MIRROR_RETURN_IF_ERROR(ReadLength(buf, pos, &n));
      std::string v(reinterpret_cast<const char*>(buf.data() + *pos),
                    static_cast<size_t>(n));
      *pos += n;
      return Value::MakeStr(std::move(v));
    }
    default:
      return base::Status::ParseError("unknown value type tag");
  }
}

namespace {

/// 256-entry lookup table for the reflected IEEE polynomial, built once.
const uint32_t* Crc32Table() {
  static const auto table = [] {
    auto t = std::make_unique<std::array<uint32_t, 256>>();
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      (*t)[i] = c;
    }
    return t;
  }();
  return table->data();
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t n) {
  const uint32_t* table = Crc32Table();
  uint32_t c = 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    c = table[(c ^ data[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace mirror::monet
