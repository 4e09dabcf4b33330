#ifndef MIRROR_MONET_BAT_IO_H_
#define MIRROR_MONET_BAT_IO_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "base/status.h"
#include "monet/bat.h"
#include "monet/value.h"

namespace mirror::monet {

/// Binary serialization of columns, BATs and boxed Values: the one codec
/// behind the daemon's APPEND/DELETE/RESULT frames (daemon/wire.h), the
/// write-ahead log's record payloads (monet/wal.h) and the catalog's
/// checkpoint files (catalog.cc). In-memory columns stay uncompressed;
/// only these bytes are compact.
///
/// The encoding is representation-exact, not merely value-preserving:
/// void bases, oid/int/dbl payloads and string heaps round-trip without
/// re-boxing (string columns ship the interned heap buffer plus the
/// offset vector), so a decoded result table is bit-identical to the BAT
/// the engine produced — the property the server's equivalence tests
/// check against direct MirrorDb execution. Grammar (varint = LEB128,
/// little-endian):
///
///   column := type:u8 count:varint body
///   body   := base:varint                        (void)
///           | for                                (oid, int)
///           | heap_len:varint heap[] for         (str: offsets)
///           | f64[count]                         (dbl, raw IEEE bits)
///   for    := ""                                 (count = 0)
///           | min:varint width:u8 bits[ceil(count * width / 8)]
///
/// `for` is frame-of-reference bit-packing: `min` is the smallest value
/// (zigzag-mapped for ints), `width` in [1, 64] the bits of the largest
/// delta, and `bits` each value's delta from `min`, LSB-first; deltas are
/// taken in uint64_t, so INT64_MIN and INT64_MAX together pack at width
/// 64. Exactly one encoding decodes per column: decoders refuse
/// overlong varints, nonzero pad bits, a width or minimum that is not the
/// column's own, a value outside its type, a void range past UINT64_MAX,
/// and a string heap that is unterminated or an offset that does not
/// start one of its spellings.
///
/// Decoders never trust a count: before allocating they check that
/// `count * width` bits (8 bytes per dbl) are actually present, so an
/// encoding can describe at most 64 values per byte it holds.

/// Appends the encoding of `c` to `out`.
void EncodeColumn(const Column& c, std::vector<uint8_t>* out);

/// Decodes one column starting at `*pos`, advancing `*pos` past it. A
/// column whose values would take more than `max_unpacked_bytes` once
/// unpacked (count times the element size) is refused with OutOfRange
/// before anything is allocated; the daemon passes its frame limit.
base::Result<Column> DecodeColumn(
    const std::vector<uint8_t>& buf, size_t* pos,
    size_t max_unpacked_bytes = std::numeric_limits<size_t>::max());

/// Appends the encoding of `bat` (head column, then tail column).
void EncodeBat(const Bat& bat, std::vector<uint8_t>* out);

/// Decodes one BAT starting at `*pos`, advancing `*pos` past it.
base::Result<Bat> DecodeBat(const std::vector<uint8_t>& buf, size_t* pos);

/// Appends the encoding of a boxed scalar (type tag + payload: oids, ints
/// and doubles as raw 8-byte words, so NaNs and signed zeros survive;
/// strings as a varint length + bytes).
void EncodeValue(const Value& v, std::vector<uint8_t>* out);

/// Decodes one boxed scalar starting at `*pos`, advancing `*pos`.
base::Result<Value> DecodeValue(const std::vector<uint8_t>& buf,
                                size_t* pos);

/// Appends `v` as a LEB128 varint (7 bits per byte, low group first).
void AppendVarint(uint64_t v, std::vector<uint8_t>* out);

/// Reads one varint at `*pos`, advancing past it. Truncated, overlong
/// (a zero final byte after the first) and over-64-bit spellings are
/// ParseErrors.
base::Status ReadVarint(const std::vector<uint8_t>& buf, size_t* pos,
                        uint64_t* v);

/// CRC-32 (IEEE 802.3 polynomial, the zlib convention) of `n` bytes. The
/// integrity check behind the write-ahead log's per-record framing
/// (monet/wal.h): recovery accepts a record only if its stored CRC
/// matches the recomputed one.
uint32_t Crc32(const uint8_t* data, size_t n);

}  // namespace mirror::monet

#endif  // MIRROR_MONET_BAT_IO_H_
