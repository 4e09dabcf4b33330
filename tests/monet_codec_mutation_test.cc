// Structure-aware mutation of the bat_io column codec, EncodeBat and WAL
// records. Every case starts from a valid encoding, damages one field
// (counts, widths, minima, varint continuation bytes, heap lengths and
// bytes, packed string offsets, record header fields) or truncates it at
// a byte boundary, and must end in one of two ways: a ParseError, or a
// decode whose re-encoding reproduces the consumed bytes exactly. The
// run is seeded and deterministic; under ASan+UBSan it also shows that no
// case reads out of bounds or overflows.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "monet/bat.h"
#include "monet/bat_io.h"
#include "monet/wal.h"

namespace mirror::monet {
namespace {

using Bytes = std::vector<uint8_t>;

/// What a segment of an encoding holds, which picks its mutations.
enum class Field { kType, kVarint, kWidth, kPayload, kHeap, kKind, kFrame };

struct Segment {
  Field field;
  Bytes bytes;
};

Bytes Slice(const Bytes& buf, size_t from, size_t to) {
  return Bytes(buf.begin() + static_cast<ptrdiff_t>(from),
               buf.begin() + static_cast<ptrdiff_t>(to));
}

/// Splits the valid column encoding at `*pos` into its fields (the
/// grammar in monet/bat_io.h), advancing `*pos` past it.
void SplitColumn(const Bytes& buf, size_t* pos, std::vector<Segment>* out) {
  auto take = [&](Field f, size_t n) {
    out->push_back({f, Slice(buf, *pos, *pos + n)});
    *pos += n;
  };
  auto take_varint = [&](uint64_t* v) {
    size_t start = *pos;
    ASSERT_TRUE(ReadVarint(buf, pos, v).ok());
    out->push_back({Field::kVarint, Slice(buf, start, *pos)});
  };
  auto take_for = [&](uint64_t count) {
    if (count == 0) return;
    uint64_t min = 0;
    take_varint(&min);
    const uint8_t width = buf[*pos];
    take(Field::kWidth, 1);
    take(Field::kPayload, (count * width + 7) / 8);
  };
  const auto type = static_cast<ValueType>(buf[*pos]);
  take(Field::kType, 1);
  uint64_t count = 0;
  take_varint(&count);
  uint64_t v = 0;
  switch (type) {
    case ValueType::kVoid:
      take_varint(&v);
      break;
    case ValueType::kOid:
    case ValueType::kInt:
      take_for(count);
      break;
    case ValueType::kDbl:
      take(Field::kPayload, count * sizeof(double));
      break;
    case ValueType::kStr:
      take_varint(&v);
      take(Field::kHeap, v);
      take_for(count);
      break;
  }
}

Bytes Join(const std::vector<Segment>& segs) {
  Bytes out;
  for (const Segment& s : segs) {
    out.insert(out.end(), s.bytes.begin(), s.bytes.end());
  }
  return out;
}

Bytes Varint(uint64_t v) {
  Bytes out;
  AppendVarint(v, &out);
  return out;
}

/// Every damaged spelling of one segment this test tries.
std::vector<Bytes> MutationsOf(const Segment& seg, base::Rng* rng) {
  std::vector<Bytes> out;
  const Bytes& b = seg.bytes;
  switch (seg.field) {
    case Field::kType:
    case Field::kKind:
      for (uint8_t t : {0, 1, 2, 3, 4, 5, 0x80, 0xff}) out.push_back({t});
      break;
    case Field::kVarint: {
      size_t p = 0;
      uint64_t v = 0;
      (void)ReadVarint(b, &p, &v);
      constexpr uint64_t kTop = std::numeric_limits<uint64_t>::max();
      for (uint64_t nv : {uint64_t{0}, uint64_t{1}, v - 1, v + 1, v * 2,
                          v / 2, uint64_t{127}, uint64_t{128},
                          uint64_t{1} << 32, kTop, kTop - v, kTop / 8,
                          rng->Next()}) {
        out.push_back(Varint(nv));
      }
      Bytes overlong = b;  // same value, one continuation byte too many
      overlong.back() |= 0x80;
      overlong.push_back(0);
      out.push_back(overlong);
      Bytes runs_on = b;  // the last byte claims another follows
      runs_on.back() |= 0x80;
      out.push_back(runs_on);
      if (b.size() > 1) {  // a middle byte ends the varint early
        Bytes cut = b;
        cut[0] &= 0x7f;
        out.push_back(cut);
      }
      out.push_back(Bytes(11, 0xff));  // past 64 bits
      Bytes tenth(9, 0x80);  // the tenth byte carries more than bit 63
      tenth.push_back(0x02);
      out.push_back(tenth);
      break;
    }
    case Field::kWidth:
      for (int w : {0, 1, b[0] - 1, b[0] + 1, 63, 64, 65, 0xff}) {
        out.push_back({static_cast<uint8_t>(w)});
      }
      break;
    case Field::kPayload:
    case Field::kHeap:
    case Field::kFrame: {
      if (b.empty()) {
        out.push_back({0});
        break;
      }
      for (int i = 0; i < 12; ++i) {  // single bit flips
        Bytes m = b;
        m[rng->Uniform(m.size())] ^=
            static_cast<uint8_t>(1u << rng->Uniform(8));
        out.push_back(m);
      }
      Bytes zero_byte = b;  // a NUL inside a heap starts a new spelling
      zero_byte[rng->Uniform(b.size())] = 0;
      out.push_back(zero_byte);
      Bytes ones = b;
      ones.back() = 0xff;  // sets the pad bits of a packed vector
      out.push_back(ones);
      out.push_back(Slice(b, 0, b.size() - 1));
      Bytes longer = b;
      longer.push_back(static_cast<uint8_t>(rng->Next()));
      out.push_back(longer);
      break;
    }
  }
  return out;
}

/// The tally of one target's cases.
struct Tally {
  size_t cases = 0;
  size_t round_trips = 0;
  size_t parse_errors = 0;
};

/// Runs `decode_encode` on `input`: it decodes from position 0 and, on
/// success, re-encodes what it decoded. Checks the oracle.
void CheckCase(
    const Bytes& input,
    const std::function<base::Result<Bytes>(const Bytes&, size_t*)>&
        decode_encode,
    const std::string& what, Tally* tally) {
  ++tally->cases;
  size_t pos = 0;
  auto re = decode_encode(input, &pos);
  if (!re.ok()) {
    EXPECT_EQ(re.status().code(), base::StatusCode::kParseError)
        << what << ": " << re.status().ToString();
    ++tally->parse_errors;
    return;
  }
  ASSERT_LE(pos, input.size()) << what;
  EXPECT_EQ(re.value(), Slice(input, 0, pos))
      << what << ": decoded, but re-encoding changed the bytes";
  ++tally->round_trips;
}

/// Mutates every segment of `segs` every way, then truncates the clean
/// encoding at every byte boundary and flips random bits anywhere.
/// `reframe` rebuilds a mutated encoding (the WAL recomputes its frame).
void MutateAll(
    const std::vector<Segment>& segs,
    const std::function<base::Result<Bytes>(const Bytes&, size_t*)>&
        decode_encode,
    const std::function<Bytes(const std::vector<Segment>&)>& reframe,
    const std::string& what, base::Rng* rng, Tally* tally) {
  const Bytes clean = reframe(segs);
  CheckCase(clean, decode_encode, what + " (clean)", tally);
  ASSERT_EQ(tally->round_trips, 1u) << what << ": the seed itself fails";
  for (size_t i = 0; i < segs.size(); ++i) {
    for (const Bytes& m : MutationsOf(segs[i], rng)) {
      std::vector<Segment> mutated = segs;
      mutated[i].bytes = m;
      CheckCase(reframe(mutated), decode_encode,
                what + " segment " + std::to_string(i), tally);
    }
  }
  for (size_t cut = 0; cut < clean.size(); ++cut) {
    Bytes torn = Slice(clean, 0, cut);
    size_t pos = 0;
    auto re = decode_encode(torn, &pos);
    ++tally->cases;
    ASSERT_FALSE(re.ok()) << what << " decoded from a " << cut
                          << "-byte prefix";
    EXPECT_EQ(re.status().code(), base::StatusCode::kParseError) << what;
    ++tally->parse_errors;
  }
  for (int i = 0; i < 64; ++i) {
    Bytes flipped = clean;
    flipped[rng->Uniform(flipped.size())] ^=
        static_cast<uint8_t>(1u << rng->Uniform(8));
    CheckCase(flipped, decode_encode, what + " bit flip", tally);
  }
}

std::vector<Column> SeedColumns() {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr uint64_t kTop = std::numeric_limits<uint64_t>::max();
  base::Rng rng(7);
  std::vector<int64_t> ints;
  for (int i = 0; i < 37; ++i) {
    ints.push_back(static_cast<int64_t>(rng.Uniform(2001)) - 1000);
  }
  std::vector<Oid> oids;
  for (int i = 0; i < 50; ++i) oids.push_back(rng.Uniform(1u << 20));
  Column words = Column::MakeStrs({"sun", "sea", "", "sky", "sun", "reef"});
  std::vector<size_t> picks = {3, 0, 0, 5};
  return {
      Column::MakeVoid(0, 0),
      Column::MakeVoid(5, 10),
      Column::MakeVoid(kTop - 3, 3),
      Column::MakeOids({}),
      Column::MakeOids({7}),
      Column::MakeOids({0, kTop}),
      Column::MakeOids({kTop - 2, kTop, kTop - 1}),
      Column::MakeOids(oids),
      Column::MakeInts({}),
      Column::MakeInts({kMin, kMax}),
      Column::MakeInts({-5, 0, 7}),
      Column::MakeInts({42, 42, 42}),
      Column::MakeInts(ints),
      Column::MakeDbls({}),
      Column::MakeDbls({0.5, -2.25, -0.0,
                        std::numeric_limits<double>::quiet_NaN()}),
      Column::MakeStrs({}),
      Column::MakeStrs({"alpha", "beta", "alpha"}),
      Column::MakeStrs({""}),
      words,
      words.Gather(picks),  // shares a heap it uses only part of
  };
}

/// The invariants every Column relies on, which a round trip alone does
/// not show: a void range ends at or below UINT64_MAX, and a string
/// offset starts a NUL-terminated spelling of its heap.
void ExpectValidColumn(const Column& c) {
  if (c.type() == ValueType::kVoid) {
    EXPECT_LE(c.size(), std::numeric_limits<uint64_t>::max() - c.void_base())
        << "void oids wrap past UINT64_MAX";
  }
  if (c.type() == ValueType::kStr) {
    const std::string& heap = c.heap()->buffer();
    if (!heap.empty()) {
      EXPECT_EQ(heap.back(), '\0') << "unterminated heap";
    }
    for (uint32_t off : c.str_offsets()) {
      ASSERT_LT(off, heap.size());
      EXPECT_TRUE(off == 0 || heap[off - 1] == '\0')
          << "offset " << off << " inside a spelling";
    }
  }
}

base::Result<Bytes> ColumnDecodeEncode(const Bytes& buf, size_t* pos) {
  auto c = DecodeColumn(buf, pos);
  if (!c.ok()) return c.status();
  ExpectValidColumn(c.value());
  Bytes re;
  EncodeColumn(c.value(), &re);
  return re;
}

base::Result<Bytes> BatDecodeEncode(const Bytes& buf, size_t* pos) {
  auto b = DecodeBat(buf, pos);
  if (!b.ok()) return b.status();
  ExpectValidColumn(b.value().head());
  ExpectValidColumn(b.value().tail());
  Bytes re;
  EncodeBat(b.value(), &re);
  return re;
}

base::Result<Bytes> WalDecodeEncode(const Bytes& buf, size_t* pos) {
  auto r = DecodeWalRecord(buf, pos);
  if (!r.ok()) return r.status();
  ExpectValidColumn(r.value().payload);
  Bytes re;
  EncodeWalRecord(r.value(), &re);
  return re;
}

TEST(CodecMutationTest, ColumnsOfEveryType) {
  base::Rng rng(20261017);
  Tally tally;
  const std::vector<Column> seeds = SeedColumns();
  for (size_t i = 0; i < seeds.size(); ++i) {
    Bytes enc;
    EncodeColumn(seeds[i], &enc);
    std::vector<Segment> segs;
    size_t pos = 0;
    SplitColumn(enc, &pos, &segs);
    ASSERT_EQ(pos, enc.size());
    Tally one;
    MutateAll(segs, ColumnDecodeEncode, Join,
              "column " + std::to_string(i), &rng, &one);
    tally.cases += one.cases;
    tally.round_trips += one.round_trips;
    tally.parse_errors += one.parse_errors;
  }
  std::printf("columns: %zu cases, %zu round trips, %zu parse errors\n",
              tally.cases, tally.round_trips, tally.parse_errors);
  // Both outcomes occur: the mutations reach past the first check.
  EXPECT_GT(tally.round_trips, seeds.size());
  EXPECT_GT(tally.parse_errors, tally.cases / 2);
}

TEST(CodecMutationTest, BatsPairHeadAndTail) {
  base::Rng rng(11);
  const std::vector<Column> seeds = SeedColumns();
  // Pair columns of equal size; a head/tail size mismatch is one of the
  // mutations (through either count).
  for (size_t h = 0; h < seeds.size(); ++h) {
    for (size_t t = 0; t < seeds.size(); ++t) {
      if (seeds[h].size() != seeds[t].size() || seeds[h].size() == 0) continue;
      Bytes enc;
      EncodeBat(Bat(seeds[h], seeds[t]), &enc);
      std::vector<Segment> segs;
      size_t pos = 0;
      SplitColumn(enc, &pos, &segs);
      SplitColumn(enc, &pos, &segs);
      ASSERT_EQ(pos, enc.size());
      Tally tally;
      MutateAll(segs, BatDecodeEncode, Join,
                "bat " + std::to_string(h) + "/" + std::to_string(t), &rng,
                &tally);
    }
  }
}

/// Splits a valid WAL record into frame fields, header fields and its
/// payload column's fields.
std::vector<Segment> SplitWalRecord(const Bytes& enc) {
  std::vector<Segment> segs;
  size_t pos = 0;
  auto take = [&](Field f, size_t n) {
    segs.push_back({f, Slice(enc, pos, pos + n)});
    pos += n;
  };
  auto take_varint = [&] {
    size_t start = pos;
    uint64_t v = 0;
    EXPECT_TRUE(ReadVarint(enc, &pos, &v).ok());
    segs.push_back({Field::kVarint, Slice(enc, start, pos)});
    return v;
  };
  take(Field::kFrame, 12);
  take_varint();  // lsn
  take(Field::kKind, 1);
  take(Field::kHeap, take_varint());  // name_len, name
  take_varint();                       // expected_rows
  SplitColumn(enc, &pos, &segs);
  EXPECT_EQ(pos, enc.size());
  return segs;
}

/// Rebuilds a record from segments with a frame that matches the body,
/// so body mutations reach the header and payload parsers instead of
/// stopping at the CRC. A mutated frame segment is kept as mutated.
Bytes Reframe(const std::vector<Segment>& segs, const Bytes& clean_frame) {
  Bytes body;
  for (size_t i = 1; i < segs.size(); ++i) {
    body.insert(body.end(), segs[i].bytes.begin(), segs[i].bytes.end());
  }
  Bytes out = segs[0].bytes;
  if (out == clean_frame) {
    const auto len = static_cast<uint32_t>(body.size());
    const uint32_t crc = Crc32(body.data(), body.size());
    std::memcpy(out.data() + 4, &len, 4);
    std::memcpy(out.data() + 8, &crc, 4);
  }
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

std::vector<WalRecord> SeedRecords() {
  std::vector<WalRecord> recs;
  const std::vector<Column> cols = SeedColumns();
  uint64_t lsn = 1;
  for (const Column& c : cols) {
    if (c.type() == ValueType::kVoid) continue;  // never logged
    WalRecord rec;
    rec.lsn = lsn;
    lsn = lsn * 131 + 7;  // one-, two- and many-byte varints
    rec.kind = c.type() == ValueType::kOid ? kWalDelete : kWalAppend;
    rec.name = c.type() == ValueType::kStr ? "Cat.u" : "Feed.v";
    rec.expected_rows = 100000 + c.size();
    rec.payload = c;
    recs.push_back(rec);
  }
  return recs;
}

TEST(CodecMutationTest, WalRecords) {
  base::Rng rng(99);
  for (const WalRecord& rec : SeedRecords()) {
    Bytes enc;
    EncodeWalRecord(rec, &enc);
    std::vector<Segment> segs = SplitWalRecord(enc);
    const Bytes clean_frame = segs[0].bytes;
    Tally tally;
    MutateAll(
        segs, WalDecodeEncode,
        [&](const std::vector<Segment>& s) { return Reframe(s, clean_frame); },
        "wal lsn " + std::to_string(rec.lsn), &rng, &tally);
  }
}

TEST(CodecMutationTest, WalOpenSurvivesEveryMutatedRecord) {
  // Wal::Open parses frames and headers but leaves payloads encoded: a
  // mutated middle record must end the valid log there (or be accepted
  // whole), never crash, and leave the clean first record recovered.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("mirror_codec_mutation_" + std::to_string(::getpid())))
          .string();
  base::Rng rng(5);
  const std::vector<WalRecord> recs = SeedRecords();
  Bytes first;
  EncodeWalRecord(recs[0], &first);
  size_t opened = 0;
  for (size_t r = 1; r < recs.size(); r += 3) {
    Bytes enc;
    EncodeWalRecord(recs[r], &enc);
    std::vector<Segment> segs = SplitWalRecord(enc);
    const Bytes clean_frame = segs[0].bytes;
    for (size_t i = 0; i < segs.size(); ++i) {
      for (const Bytes& m : MutationsOf(segs[i], &rng)) {
        std::vector<Segment> mutated = segs;
        mutated[i].bytes = m;
        Bytes file = first;
        const Bytes middle = Reframe(mutated, clean_frame);
        file.insert(file.end(), middle.begin(), middle.end());
        file.insert(file.end(), first.begin(), first.end());
        {
          std::ofstream out(path, std::ios::binary | std::ios::trunc);
          out.write(reinterpret_cast<const char*>(file.data()),
                    static_cast<std::streamsize>(file.size()));
        }
        auto wal = Wal::Open(path);
        ASSERT_TRUE(wal.ok()) << wal.status().ToString();
        const WalStats stats = wal.value()->stats();
        EXPECT_GE(stats.recovered_records, 1u);
        EXPECT_LE(stats.recovered_records, 3u);
        EXPECT_LE(stats.truncated_bytes, file.size() - first.size());
        ++opened;
      }
    }
  }
  std::filesystem::remove(path);
  EXPECT_GT(opened, 100u);
}

}  // namespace
}  // namespace mirror::monet
