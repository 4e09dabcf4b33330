// The indexed WAL and the catalog delta layers: record codec corruption
// (truncation at every byte boundary, CRC bit flips), fault-injected torn
// writes and fsync failures, replay idempotence, lazy per-BAT replay, and
// the atomic checkpoint protocol.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "monet/bat_io.h"
#include "monet/catalog.h"
#include "monet/fault_injector.h"
#include "monet/wal.h"

namespace mirror::monet {
namespace {

std::string TempPath(const char* tag) {
  std::string path =
      (std::filesystem::temp_directory_path() /
       (std::string("mirror_wal_") + tag + "_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(path);
  return path;
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

WalRecord MakeAppendRecord(uint64_t lsn, const std::string& name,
                           uint64_t expected, std::vector<int64_t> ints) {
  WalRecord rec;
  rec.lsn = lsn;
  rec.kind = kWalAppend;
  rec.name = name;
  rec.expected_rows = expected;
  rec.payload = Column::MakeInts(std::move(ints));
  return rec;
}

// ---------------------------------------------------------------------------
// Record codec.

TEST(WalCodecTest, RoundTripAllPayloadTypes) {
  std::vector<WalRecord> records;
  records.push_back(MakeAppendRecord(1, "t.ints", 10, {-5, 0, 7}));
  WalRecord dbls;
  dbls.lsn = 2;
  dbls.kind = kWalAppend;
  dbls.name = "t.dbls";
  dbls.expected_rows = 3;
  dbls.payload = Column::MakeDbls({0.5, -2.25});
  records.push_back(dbls);
  WalRecord strs;
  strs.lsn = 3;
  strs.kind = kWalAppend;
  strs.name = "t.strs";
  strs.expected_rows = 0;
  strs.payload = Column::MakeStrs({"alpha", "beta", "alpha"});
  records.push_back(strs);
  WalRecord del;
  del.lsn = 4;
  del.kind = kWalDelete;
  del.name = "t.ints";
  del.expected_rows = 13;
  del.payload = Column::MakeOids({2, 5});
  records.push_back(del);

  std::vector<uint8_t> buf;
  for (const WalRecord& rec : records) EncodeWalRecord(rec, &buf);

  size_t pos = 0;
  for (const WalRecord& expected : records) {
    auto got = DecodeWalRecord(buf, &pos);
    ASSERT_TRUE(got.ok()) << got.status().message();
    EXPECT_EQ(got.value().lsn, expected.lsn);
    EXPECT_EQ(got.value().kind, expected.kind);
    EXPECT_EQ(got.value().name, expected.name);
    EXPECT_EQ(got.value().expected_rows, expected.expected_rows);
    EXPECT_EQ(got.value().payload.type(), expected.payload.type());
    EXPECT_EQ(got.value().payload.size(), expected.payload.size());
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(WalCodecTest, TruncationSweepEveryByteBoundary) {
  // A record truncated at ANY byte boundary must fail to decode — no
  // proper prefix of a record may parse as a valid record.
  std::vector<uint8_t> buf;
  EncodeWalRecord(MakeAppendRecord(9, "doc.score", 128, {1, 2, 3}), &buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    std::vector<uint8_t> torn(buf.begin(),
                              buf.begin() + static_cast<ptrdiff_t>(cut));
    size_t pos = 0;
    auto rec = DecodeWalRecord(torn, &pos);
    EXPECT_FALSE(rec.ok()) << "decoded from a " << cut << "-byte prefix of a "
                           << buf.size() << "-byte record";
  }
  size_t pos = 0;
  EXPECT_TRUE(DecodeWalRecord(buf, &pos).ok());
}

TEST(WalCodecTest, EveryBitFlipIsDetected) {
  // The CRC (or framing) must catch a flipped bit anywhere in the record.
  std::vector<uint8_t> clean;
  EncodeWalRecord(MakeAppendRecord(3, "b", 4, {42, -7}), &clean);
  for (size_t byte = 0; byte < clean.size(); ++byte) {
    std::vector<uint8_t> corrupt = clean;
    corrupt[byte] ^= 0x10;
    size_t pos = 0;
    auto rec = DecodeWalRecord(corrupt, &pos);
    EXPECT_FALSE(rec.ok()) << "bit flip at byte " << byte
                           << " went undetected";
  }
}

// ---------------------------------------------------------------------------
// The packed column codec, gated on byte counts (no clocks).

/// True if `a` and `b` hold the same representation: type, size, void
/// base, payload bits and string heap bytes.
bool BitIdentical(const Column& a, const Column& b) {
  if (a.type() != b.type() || a.size() != b.size()) return false;
  switch (a.type()) {
    case ValueType::kVoid:
      return a.void_base() == b.void_base();
    case ValueType::kOid:
      return std::ranges::equal(a.oids(), b.oids());
    case ValueType::kInt:
      return std::ranges::equal(a.ints(), b.ints());
    case ValueType::kDbl:
      return a.size() == 0 ||
             std::memcmp(a.dbls().data(), b.dbls().data(),
                         a.size() * sizeof(double)) == 0;
    case ValueType::kStr:
      return std::ranges::equal(a.str_offsets(), b.str_offsets()) &&
             a.heap()->buffer() == b.heap()->buffer();
  }
  return false;
}

/// Encodes `c`, decodes it back and checks the decode consumed every
/// byte and rebuilt `c` bit for bit. Returns the encoding.
std::vector<uint8_t> ExpectColumnRoundTrip(const Column& c) {
  std::vector<uint8_t> buf;
  EncodeColumn(c, &buf);
  size_t pos = 0;
  auto back = DecodeColumn(buf, &pos);
  EXPECT_TRUE(back.ok()) << back.status().ToString();
  if (!back.ok()) return buf;
  EXPECT_EQ(pos, buf.size());
  EXPECT_TRUE(BitIdentical(back.value(), c))
      << "column of " << c.size() << " values did not round-trip";
  return buf;
}

/// The width byte of a non-empty oid or int encoding: it follows the
/// type byte, the count and the minimum (all single varint bytes here).
uint8_t WidthByte(const std::vector<uint8_t>& enc, size_t min_bytes) {
  return enc[2 + min_bytes];
}

TEST(WalCodecTest, SixteenIntAppendRecordSizeIsPinned) {
  // The shape of a benchmark append: 16 ints in [0, 999] to Feed.v, an
  // LSN below 16384 and a six-figure row domain. Before the packed
  // codec this record was 184 bytes: a 12-byte frame, a 35-byte
  // fixed-width header and column prefix, and 128 bytes of raw words.
  WalRecord rec = MakeAppendRecord(
      /*lsn=*/9000, "Feed.v", /*expected=*/100000,
      {117, 998, 503, 260, 871, 444, 129, 730, 612, 385, 905, 201, 558, 333,
       777, 640});
  std::vector<uint8_t> buf;
  EncodeWalRecord(rec, &buf);
  // 12 frame + lsn 2 + kind 1 + name_len 1 + name 6 + expected_rows 3
  // + type 1 + count 1 + zigzag(117) 2 + width 1 + 16 x 10 bits 20.
  EXPECT_EQ(buf.size(), 50u);
  EXPECT_LE(buf.size(), 52u);
  size_t pos = 0;
  auto back = DecodeWalRecord(buf, &pos);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(pos, buf.size());
  EXPECT_EQ(back.value().lsn, 9000u);
  EXPECT_EQ(back.value().expected_rows, 100000u);
  EXPECT_TRUE(BitIdentical(back.value().payload, rec.payload));
}

TEST(WalCodecTest, FullRangeIntsEncodeNoLargerThanRawWords) {
  std::vector<int64_t> v = {std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max()};
  for (int i = 0; i < 14; ++i) v.push_back((i - 7) * 1234567890123LL);
  const Column c = Column::MakeInts(v);
  const std::vector<uint8_t> enc = ExpectColumnRoundTrip(c);
  // zigzag(INT64_MIN) is UINT64_MAX, a 10-byte varint; the span is
  // 2^64 - 1, so every value takes all 64 bits.
  EXPECT_EQ(WidthByte(enc, 10), 64);
  // The raw layout: type u8, count u64, repeated length u64, 8 B/value.
  const size_t raw = 1 + 8 + 8 + 8 * v.size();
  EXPECT_LE(enc.size(), raw);
}

TEST(WalCodecTest, EdgeValuesRoundTripBitIdentically) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr uint64_t kTop = std::numeric_limits<uint64_t>::max();
  ExpectColumnRoundTrip(Column::MakeInts({kMin}));
  ExpectColumnRoundTrip(Column::MakeInts({kMax}));
  ExpectColumnRoundTrip(Column::MakeInts({kMax, kMin, 0, -1, 1}));
  ExpectColumnRoundTrip(Column::MakeInts({-3, -300, -30000, -3000000000LL}));
  ExpectColumnRoundTrip(Column::MakeOids({kTop, kTop - 1, kTop - 70000}));
  ExpectColumnRoundTrip(Column::MakeOids({0, kTop}));
  ExpectColumnRoundTrip(Column::MakeVoid(kTop - 5, 5));
  ExpectColumnRoundTrip(Column::MakeDbls(
      {0.0, -0.0, std::numeric_limits<double>::quiet_NaN(), 1e308}));
  ExpectColumnRoundTrip(Column::MakeStrs({"", "alpha", "", "beta"}));

  // A constant column packs at width 1, every delta zero.
  const std::vector<uint8_t> constant =
      ExpectColumnRoundTrip(Column::MakeInts(std::vector<int64_t>(100, -42)));
  EXPECT_EQ(WidthByte(constant, 1), 1);
  // type 1 + count 1 + zigzag(-42) 1 + width 1 + 100 bits 13.
  EXPECT_EQ(constant.size(), 17u);

  // Widths 1..64 each pack and unpack at their exact byte count.
  for (unsigned w = 1; w <= 64; ++w) {
    const uint64_t top = w == 64 ? kTop : (uint64_t{1} << w) - 1;
    std::vector<Oid> v;
    for (uint64_t i = 0; i < 37; ++i) v.push_back(top - (i * 7919 & top));
    v.push_back(0);
    const std::vector<uint8_t> enc = ExpectColumnRoundTrip(Column::MakeOids(v));
    EXPECT_EQ(WidthByte(enc, 1), w);
    EXPECT_EQ(enc.size(), 4 + (v.size() * w + 7) / 8) << "width " << w;
  }

  // Empty columns of every type are the type byte and a zero count (a
  // string column adds its heap length).
  for (ValueType vt : {ValueType::kOid, ValueType::kInt, ValueType::kDbl}) {
    const Column empty = Bat::Empty(ValueType::kVoid, vt).tail();
    EXPECT_EQ(ExpectColumnRoundTrip(empty).size(), 2u);
  }
  EXPECT_EQ(ExpectColumnRoundTrip(Column::MakeVoid(0, 0)).size(), 3u);
  EXPECT_EQ(ExpectColumnRoundTrip(Column::MakeStrs({})).size(), 3u);
}

TEST(WalCodecTest, VoidRangePastTheLastOidIsRefused) {
  std::vector<uint8_t> buf = {static_cast<uint8_t>(ValueType::kVoid), 3};
  AppendVarint(std::numeric_limits<uint64_t>::max() - 1, &buf);
  size_t pos = 0;
  auto c = DecodeColumn(buf, &pos);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), base::StatusCode::kParseError);
}

TEST(WalCodecTest, UnpackedSizeLimitIsCheckedBeforeAllocating) {
  // 1,000 ints in 125 packed bytes: within the bits-present bound, but
  // 8,000 bytes once unpacked.
  std::vector<uint8_t> buf;
  EncodeColumn(Column::MakeInts(std::vector<int64_t>(1000, 5)), &buf);
  size_t pos = 0;
  EXPECT_TRUE(DecodeColumn(buf, &pos, 8000).ok());
  pos = 0;
  auto refused = DecodeColumn(buf, &pos, 7999);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), base::StatusCode::kOutOfRange);
}

TEST(WalTest, OldFormatLogIsRefusedNotTruncated) {
  const std::string path = TempPath("v1");
  std::vector<uint8_t> old = {'W', 'A', 'L', '1', 8, 0, 0, 0, 0, 0, 0, 0};
  old.resize(old.size() + 8, 0);
  WriteAll(path, old);
  auto wal = Wal::Open(path);
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), base::StatusCode::kParseError);
  EXPECT_EQ(ReadAll(path).size(), old.size());  // left as it was
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Log open / scan / repair.

TEST(WalTest, AppendSyncReopenRecovers) {
  std::string path = TempPath("reopen");
  {
    auto wal = Wal::Open(path);
    ASSERT_TRUE(wal.ok());
    auto lsn1 = wal.value()->Append(kWalAppend, "t", 2, Column::MakeInts({3}));
    ASSERT_TRUE(lsn1.ok());
    auto lsn2 = wal.value()->Append(kWalAppend, "t", 3, Column::MakeInts({4}));
    ASSERT_TRUE(lsn2.ok());
    EXPECT_LT(lsn1.value(), lsn2.value());
    ASSERT_TRUE(wal.value()->Sync(lsn2.value()).ok());
    EXPECT_EQ(wal.value()->stats().appends, 2u);
  }
  auto wal = Wal::Open(path);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(wal.value()->stats().recovered_records, 2u);
  EXPECT_EQ(wal.value()->stats().truncated_bytes, 0u);
  EXPECT_TRUE(wal.value()->HasPending("t"));
  EXPECT_EQ(wal.value()->PendingNames(), std::vector<std::string>{"t"});
  // LSNs continue past the recovered tail.
  auto lsn3 = wal.value()->Append(kWalAppend, "t", 4, Column::MakeInts({5}));
  ASSERT_TRUE(lsn3.ok());
  EXPECT_EQ(lsn3.value(), 3u);
}

TEST(WalTest, OpenTruncatesDamagedTailAtEveryBoundary) {
  // For every possible crash point inside the final record, Open must
  // recover exactly the intact prefix and repair the file in place.
  std::vector<uint8_t> rec1;
  std::vector<uint8_t> rec2;
  EncodeWalRecord(MakeAppendRecord(1, "t", 0, {10, 20}), &rec1);
  EncodeWalRecord(MakeAppendRecord(2, "t", 2, {30}), &rec2);
  for (size_t cut = 0; cut < rec2.size(); ++cut) {
    std::string path = TempPath("tail");
    std::vector<uint8_t> file = rec1;
    file.insert(file.end(), rec2.begin(),
                rec2.begin() + static_cast<ptrdiff_t>(cut));
    WriteAll(path, file);
    auto wal = Wal::Open(path);
    ASSERT_TRUE(wal.ok()) << "cut=" << cut;
    EXPECT_EQ(wal.value()->stats().recovered_records, 1u) << "cut=" << cut;
    EXPECT_EQ(wal.value()->stats().truncated_bytes, cut) << "cut=" << cut;
    wal.value().reset();  // close before inspecting the repaired file
    EXPECT_EQ(ReadAll(path).size(), rec1.size()) << "cut=" << cut;
  }
}

TEST(WalTest, OpenStopsAtBitFlippedRecord) {
  std::vector<uint8_t> rec1;
  std::vector<uint8_t> rec2;
  std::vector<uint8_t> rec3;
  EncodeWalRecord(MakeAppendRecord(1, "a", 0, {1}), &rec1);
  EncodeWalRecord(MakeAppendRecord(2, "b", 0, {2}), &rec2);
  EncodeWalRecord(MakeAppendRecord(3, "c", 0, {3}), &rec3);
  std::string path = TempPath("bitflip");
  std::vector<uint8_t> file = rec1;
  size_t flip_at = file.size() + rec2.size() / 2;  // mid-record 2
  file.insert(file.end(), rec2.begin(), rec2.end());
  file.insert(file.end(), rec3.begin(), rec3.end());
  file[flip_at] ^= 0x01;
  WriteAll(path, file);

  auto wal = Wal::Open(path);
  ASSERT_TRUE(wal.ok());
  // Record 2's CRC fails, so 2 AND the (intact) 3 behind it are dropped:
  // a log is only trusted up to its first damaged record.
  EXPECT_EQ(wal.value()->stats().recovered_records, 1u);
  EXPECT_EQ(wal.value()->stats().truncated_bytes, rec2.size() + rec3.size());
  EXPECT_TRUE(wal.value()->HasPending("a"));
  EXPECT_FALSE(wal.value()->HasPending("b"));
  EXPECT_FALSE(wal.value()->HasPending("c"));
}

// ---------------------------------------------------------------------------
// Fault injection.

class TornWriteInjector : public FaultInjector {
 public:
  explicit TornWriteInjector(size_t fail_after) : fail_after_(fail_after) {}

  size_t BeforeRecordWrite(std::vector<uint8_t>* bytes) override {
    if (writes_++ < fail_after_) return bytes->size();
    return bytes->size() / 2;  // tear every later record in the middle
  }

 private:
  size_t fail_after_;
  size_t writes_ = 0;
};

TEST(WalTest, InjectedTornWriteIsNotAcknowledgedAndRepairs) {
  std::string path = TempPath("torn");
  TornWriteInjector inject(/*fail_after=*/2);
  {
    auto wal = Wal::Open(path, &inject);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(
        wal.value()->Append(kWalAppend, "t", 0, Column::MakeInts({1})).ok());
    ASSERT_TRUE(
        wal.value()->Append(kWalAppend, "t", 1, Column::MakeInts({2})).ok());
    auto torn = wal.value()->Append(kWalAppend, "t", 2, Column::MakeInts({3}));
    EXPECT_FALSE(torn.ok());  // the write path must refuse to ack
  }
  auto wal = Wal::Open(path);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(wal.value()->stats().recovered_records, 2u);
  EXPECT_GT(wal.value()->stats().truncated_bytes, 0u);
}

class CrcFlipInjector : public FaultInjector {
 public:
  size_t BeforeRecordWrite(std::vector<uint8_t>* bytes) override {
    bytes->back() ^= 0xff;  // corrupt the record body in place
    return bytes->size();
  }
};

TEST(WalTest, InjectedCrcCorruptionIsDroppedOnRecovery) {
  std::string path = TempPath("crc");
  {
    auto clean = Wal::Open(path);
    ASSERT_TRUE(clean.ok());
    ASSERT_TRUE(
        clean.value()->Append(kWalAppend, "t", 0, Column::MakeInts({1})).ok());
  }
  CrcFlipInjector inject;
  {
    auto wal = Wal::Open(path, &inject);
    ASSERT_TRUE(wal.ok());
    // The corrupted record is fully written (same length), so the writer
    // itself cannot tell — only recovery's CRC check catches it.
    ASSERT_TRUE(
        wal.value()->Append(kWalAppend, "t", 1, Column::MakeInts({2})).ok());
  }
  auto wal = Wal::Open(path);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(wal.value()->stats().recovered_records, 1u);
  EXPECT_GT(wal.value()->stats().truncated_bytes, 0u);
}

class FsyncFailInjector : public FaultInjector {
 public:
  bool BeforeSync() override { return false; }
};

TEST(WalTest, InjectedFsyncFailureSurfacesAsError) {
  std::string path = TempPath("fsync");
  FsyncFailInjector inject;
  auto wal = Wal::Open(path, &inject);
  ASSERT_TRUE(wal.ok());
  auto lsn = wal.value()->Append(kWalAppend, "t", 0, Column::MakeInts({1}));
  ASSERT_TRUE(lsn.ok());
  EXPECT_FALSE(wal.value()->Sync(lsn.value()).ok());
}

// ---------------------------------------------------------------------------
// Replay.

TEST(WalTest, ReplayIsIdempotent) {
  std::string path = TempPath("replay");
  {
    auto wal = Wal::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(
        wal.value()->Append(kWalAppend, "t", 2, Column::MakeInts({7, 8})).ok());
    ASSERT_TRUE(
        wal.value()->Append(kWalAppend, "t", 4, Column::MakeInts({9})).ok());
    ASSERT_TRUE(
        wal.value()->Append(kWalDelete, "t", 5, Column::MakeOids({0})).ok());
    ASSERT_TRUE(wal.value()->Sync(wal.value()->last_lsn()).ok());
  }
  Catalog catalog;
  catalog.Put("t", Bat::DenseInts({1, 2}));
  auto wal = Wal::Open(path);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal.value()->ReplayAllInto(&catalog).ok());
  EXPECT_EQ(catalog.VisibleRows("t").value(), 4u);  // 2 base + 3 − 1 deleted
  EXPECT_EQ(wal.value()->stats().replayed_records, 3u);
  EXPECT_FALSE(wal.value()->HasPending("t"));

  // Replaying again through the same Wal is a no-op (records are marked).
  ASSERT_TRUE(wal.value()->ReplayAllInto(&catalog).ok());
  EXPECT_EQ(catalog.VisibleRows("t").value(), 4u);

  // A crash between replay and checkpoint re-reads the SAME log against
  // the already-updated catalog: the append-domain stamp skips every
  // append, and the delete re-applies as a no-op (set union).
  auto again = Wal::Open(path);
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(again.value()->ReplayAllInto(&catalog).ok());
  EXPECT_EQ(catalog.VisibleRows("t").value(), 4u);
  auto bat = catalog.Get("t");
  ASSERT_TRUE(bat.ok());
  EXPECT_EQ(bat.value()->tail().IntAt(0), 2);  // oid 0 deleted
}

TEST(WalTest, LazyPerNameReplayTouchesOnlyThatSlice) {
  std::string path = TempPath("lazy");
  {
    auto wal = Wal::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(
        wal.value()->Append(kWalAppend, "a", 1, Column::MakeInts({10})).ok());
    ASSERT_TRUE(
        wal.value()->Append(kWalAppend, "b", 1, Column::MakeInts({20})).ok());
    ASSERT_TRUE(wal.value()->Sync(wal.value()->last_lsn()).ok());
  }
  Catalog catalog;
  catalog.Put("a", Bat::DenseInts({1}));
  catalog.Put("b", Bat::DenseInts({2}));
  auto wal = Wal::Open(path);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal.value()->ReplayInto(&catalog, "a").ok());
  EXPECT_EQ(catalog.VisibleRows("a").value(), 2u);
  EXPECT_EQ(catalog.VisibleRows("b").value(), 1u);  // untouched
  EXPECT_FALSE(wal.value()->HasPending("a"));
  EXPECT_TRUE(wal.value()->HasPending("b"));
  ASSERT_TRUE(wal.value()->ReplayInto(&catalog, "b").ok());
  EXPECT_EQ(catalog.VisibleRows("b").value(), 2u);
}

TEST(WalTest, ResetTruncatesButKeepsLsnsMonotone) {
  std::string path = TempPath("reset");
  auto wal = Wal::Open(path);
  ASSERT_TRUE(wal.ok());
  auto lsn = wal.value()->Append(kWalAppend, "t", 0, Column::MakeInts({1}));
  ASSERT_TRUE(lsn.ok());
  ASSERT_TRUE(wal.value()->Reset().ok());
  EXPECT_EQ(ReadAll(path).size(), 0u);
  auto next = wal.value()->Append(kWalAppend, "t", 1, Column::MakeInts({2}));
  ASSERT_TRUE(next.ok());
  EXPECT_GT(next.value(), lsn.value());
}

TEST(WalTest, GroupCommitUnderConcurrentAppends) {
  std::string path = TempPath("group");
  auto wal = Wal::Open(path);
  ASSERT_TRUE(wal.ok());
  Wal* w = wal.value().get();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto lsn =
            w->Append(kWalAppend, "t", 0, Column::MakeInts({t * 1000 + i}));
        if (!lsn.ok() || !w->Sync(lsn.value()).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(w->stats().appends, static_cast<uint64_t>(kThreads * kPerThread));
  wal.value().reset();
  auto reopened = Wal::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->stats().recovered_records,
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(reopened.value()->stats().truncated_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Catalog delta layers.

TEST(CatalogDeltaTest, AppendMakesRowsVisible) {
  Catalog catalog;
  catalog.Put("t", Bat::DenseInts({1, 2}));
  uint64_t gen = catalog.generation();
  ASSERT_TRUE(catalog.Append("t", Column::MakeInts({3, 4})).ok());
  EXPECT_GT(catalog.generation(), gen);
  EXPECT_TRUE(catalog.HasDeltas("t"));
  EXPECT_EQ(catalog.AppendDomainRows("t").value(), 4u);
  EXPECT_EQ(catalog.VisibleRows("t").value(), 4u);
  auto bat = catalog.Get("t");
  ASSERT_TRUE(bat.ok());
  ASSERT_EQ(bat.value()->size(), 4u);
  EXPECT_EQ(bat.value()->tail().IntAt(2), 3);
  EXPECT_EQ(bat.value()->tail().IntAt(3), 4);
  // The merged head stays void: appends never disturb oid density.
  EXPECT_TRUE(bat.value()->head().is_void());
}

TEST(CatalogDeltaTest, AppendValidation) {
  Catalog catalog;
  catalog.Put("ints", Bat::DenseInts({1}));
  catalog.Put("oid_head", Bat(Column::MakeOids({5}), Column::MakeInts({1})));
  EXPECT_FALSE(catalog.Append("missing", Column::MakeInts({1})).ok());
  EXPECT_FALSE(catalog.Append("ints", Column::MakeDbls({0.5})).ok());
  EXPECT_FALSE(catalog.Append("oid_head", Column::MakeInts({2})).ok());
  // An empty chunk is an accepted no-op: it leaves no delta behind.
  EXPECT_TRUE(catalog.Append("ints", Column::MakeInts({})).ok());
  EXPECT_FALSE(catalog.HasDeltas("ints"));
}

TEST(CatalogDeltaTest, DeleteRowsMaterializesOidHead) {
  Catalog catalog;
  catalog.Put("t", Bat::DenseInts({10, 20, 30, 40}));
  auto deleted = catalog.DeleteRows("t", {1, 3});
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(deleted.value(), 2u);
  EXPECT_EQ(catalog.VisibleRows("t").value(), 2u);
  auto bat = catalog.Get("t");
  ASSERT_TRUE(bat.ok());
  ASSERT_EQ(bat.value()->size(), 2u);
  EXPECT_EQ(bat.value()->head().OidAt(0), 0u);
  EXPECT_EQ(bat.value()->head().OidAt(1), 2u);
  EXPECT_EQ(bat.value()->tail().IntAt(0), 10);
  EXPECT_EQ(bat.value()->tail().IntAt(1), 30);
  // Idempotence: re-deleting the same oids is a no-op.
  auto again = catalog.DeleteRows("t", {1, 3});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), 0u);
  // Out-of-domain oids fail atomically (nothing deleted).
  EXPECT_FALSE(catalog.DeleteRows("t", {0, 99}).ok());
  EXPECT_EQ(catalog.VisibleRows("t").value(), 2u);
}

TEST(CatalogDeltaTest, StringAppendsReintern) {
  Catalog catalog;
  catalog.Put("s", Bat::DenseStrs({"alpha", "beta"}));
  ASSERT_TRUE(catalog.Append("s", Column::MakeStrs({"alpha", "gamma"})).ok());
  auto bat = catalog.Get("s");
  ASSERT_TRUE(bat.ok());
  ASSERT_EQ(bat.value()->size(), 4u);
  EXPECT_EQ(bat.value()->tail().StrAt(0), "alpha");
  EXPECT_EQ(bat.value()->tail().StrAt(2), "alpha");
  EXPECT_EQ(bat.value()->tail().StrAt(3), "gamma");
  // Equal spellings keep equal heap offsets across the merge — the
  // invariant the string select/join kernels exploit.
  EXPECT_EQ(bat.value()->tail().StrOffsetAt(0),
            bat.value()->tail().StrOffsetAt(2));
}

TEST(CatalogDeltaTest, ShardAndZoneCachesRebuildAfterMutation) {
  Catalog catalog;
  std::vector<int64_t> v(100);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<int64_t>(i);
  catalog.Put("t", Bat::DenseInts(v));
  auto shards = catalog.SharedShards(4);
  ASSERT_NE(shards, nullptr);
  ASSERT_NE(catalog.Zones("t"), nullptr);

  ASSERT_TRUE(catalog.Append("t", Column::MakeInts({1000})).ok());
  auto shards2 = catalog.SharedShards(4);
  ASSERT_NE(shards2, nullptr);
  EXPECT_NE(shards.get(), shards2.get());  // rebuilt over the new snapshot
  size_t total = 0;
  for (size_t s = 0; s < shards2->num_shards(); ++s) {
    auto frag = shards2->shard(s).Get("t");
    ASSERT_TRUE(frag.ok());
    total += frag.value()->size();
  }
  EXPECT_EQ(total, 101u);
  // The pinned old layout still reads the old snapshot (generation
  // isolation for in-flight queries).
  size_t old_total = 0;
  for (size_t s = 0; s < shards->num_shards(); ++s) {
    old_total += shards->shard(s).Get("t").value()->size();
  }
  EXPECT_EQ(old_total, 100u);
  ASSERT_NE(catalog.Zones("t"), nullptr);
}

TEST(CatalogDeltaTest, SaveToPersistsVisibleSnapshot) {
  std::string dir = TempPath("snapshot");
  Catalog catalog;
  catalog.Put("t", Bat::DenseInts({1, 2, 3}));
  ASSERT_TRUE(catalog.Append("t", Column::MakeInts({4})).ok());
  ASSERT_TRUE(catalog.DeleteRows("t", {0}).ok());
  ASSERT_TRUE(catalog.SaveTo(dir).ok());

  Catalog restored;
  ASSERT_TRUE(restored.LoadFrom(dir).ok());
  auto bat = restored.Get("t");
  ASSERT_TRUE(bat.ok());
  ASSERT_EQ(bat.value()->size(), 3u);
  EXPECT_EQ(bat.value()->tail().IntAt(0), 2);
  EXPECT_EQ(bat.value()->tail().IntAt(2), 4);
  // The restored entry is a clean base again (deltas were folded in).
  EXPECT_FALSE(restored.HasDeltas("t"));
  std::filesystem::remove_all(dir);
}

TEST(CatalogDeltaTest, AtomicSaveToSurvivesRepeatedSaves) {
  std::string dir = TempPath("atomic");
  Catalog catalog;
  catalog.Put("a", Bat::DenseInts({1}));
  ASSERT_TRUE(catalog.SaveTo(dir).ok());
  // A stale temp manifest (crash between write and rename of a previous
  // save) must not confuse the next save or load.
  WriteAll(dir + "/manifest.txt.tmp", {0xde, 0xad});
  catalog.Put("b", Bat::DenseInts({2, 3}));
  ASSERT_TRUE(catalog.SaveTo(dir).ok());
  Catalog restored;
  ASSERT_TRUE(restored.LoadFrom(dir).ok());
  EXPECT_EQ(restored.Get("a").value()->size(), 1u);
  EXPECT_EQ(restored.Get("b").value()->size(), 2u);
  // Exactly one epoch's data files remain (older epochs reclaimed).
  size_t bat_files = 0;
  for (const auto& de : std::filesystem::directory_iterator(dir)) {
    if (de.path().filename().string().rfind("bat_e", 0) == 0) ++bat_files;
  }
  EXPECT_EQ(bat_files, 2u);
  std::filesystem::remove_all(dir);
}

TEST(CatalogDeltaTest, LoadBatFileRestoresSingleFragment) {
  std::string dir = TempPath("fragment");
  Catalog catalog;
  catalog.Put("a", Bat::DenseInts({1, 2}));
  catalog.Put("b", Bat::DenseInts({3}));
  ASSERT_TRUE(catalog.SaveTo(dir).ok());

  // Parse the manifest by hand (exactly what lazy recovery does) and
  // load just one fragment into an empty catalog.
  std::ifstream manifest(dir + "/manifest.txt");
  ASSERT_TRUE(manifest.good());
  std::string line;
  std::string a_file;
  while (std::getline(manifest, line)) {
    if (line.rfind("a\t", 0) == 0) a_file = line.substr(2);
  }
  ASSERT_FALSE(a_file.empty());
  Catalog lazy;
  ASSERT_TRUE(lazy.LoadBatFile(dir + "/" + a_file, "a").ok());
  EXPECT_EQ(lazy.Get("a").value()->size(), 2u);
  EXPECT_FALSE(lazy.Contains("b"));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mirror::monet
