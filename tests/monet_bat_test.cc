// Unit tests for the BAT building blocks: values, string heap, columns.

#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "monet/bat.h"
#include "monet/bat_io.h"
#include "monet/bat_ops.h"
#include "monet/candidate.h"
#include "monet/string_heap.h"
#include "monet/value.h"
#include "monet/worker_pool.h"
#include "monet/zone_map.h"

namespace mirror::monet {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value::MakeInt(5).i(), 5);
  EXPECT_EQ(Value::MakeDbl(2.5).d(), 2.5);
  EXPECT_EQ(Value::MakeStr("hi").s(), "hi");
  EXPECT_EQ(Value::MakeOid(9).oid(), 9u);
  EXPECT_EQ(Value().type(), ValueType::kInt);
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_TRUE(Value::MakeInt(2) == Value::MakeDbl(2.0));
  EXPECT_TRUE(Value::MakeInt(2) < Value::MakeDbl(2.5));
  EXPECT_FALSE(Value::MakeDbl(3.0) < Value::MakeInt(3));
}

TEST(ValueTest, StringOrdering) {
  EXPECT_TRUE(Value::MakeStr("apple") < Value::MakeStr("banana"));
  EXPECT_TRUE(Value::MakeStr("a") == Value::MakeStr("a"));
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::MakeInt(-3).ToString(), "int:-3");
  EXPECT_EQ(Value::MakeStr("x").ToString(), "str:\"x\"");
}

TEST(StringHeapTest, InterningDeduplicates) {
  StringHeap heap;
  uint32_t a = heap.Intern("cat");
  uint32_t b = heap.Intern("dog");
  uint32_t c = heap.Intern("cat");
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_EQ(heap.At(a), "cat");
  EXPECT_EQ(heap.At(b), "dog");
  EXPECT_EQ(heap.size(), 2u);
}

TEST(StringHeapTest, RoundTripsThroughBuffer) {
  StringHeap heap;
  heap.Intern("alpha");
  heap.Intern("beta");
  StringHeap restored = StringHeap::FromBuffer(heap.buffer());
  EXPECT_EQ(restored.size(), 2u);
  EXPECT_EQ(restored.Intern("alpha"), heap.Intern("alpha"));
  EXPECT_EQ(restored.At(restored.Intern("beta")), "beta");
}

// The open-addressing index is probed against the bytes in the buffer;
// the cases below pin what a probe must distinguish.

TEST(StringHeapTest, ManyDistinctSpellingsAcrossTableGrowths) {
  // "s<i>" interned longest-first: most short spellings arrive after
  // spellings they are a prefix of ("s1" after "s12", "s123", ...), so
  // probes step over their extensions many times.
  constexpr int kN = 100000;
  StringHeap heap;
  std::vector<uint32_t> first(kN);
  for (int i = kN - 1; i >= 0; --i) {
    first[i] = heap.Intern("s" + std::to_string(i));
  }
  ASSERT_EQ(heap.size(), static_cast<size_t>(kN));
  const size_t payload = heap.payload_bytes();
  for (int i = 0; i < kN; ++i) {
    const std::string s = "s" + std::to_string(i);
    ASSERT_EQ(heap.Intern(s), first[i]) << s;
    ASSERT_EQ(heap.At(first[i]), s);  // At round-trips every offset
  }
  EXPECT_EQ(heap.size(), static_cast<size_t>(kN));
  EXPECT_EQ(heap.payload_bytes(), payload);
}

TEST(StringHeapTest, EmptyStringIsOneSpelling) {
  StringHeap heap;
  uint32_t x = heap.Intern("x");
  uint32_t empty = heap.Intern("");
  EXPECT_NE(empty, x);
  EXPECT_EQ(heap.Intern(""), empty);
  EXPECT_EQ(heap.Intern("x"), x);
  EXPECT_EQ(heap.At(empty), "");
  EXPECT_EQ(heap.size(), 2u);
  StringHeap only_empty;
  EXPECT_EQ(only_empty.Intern(""), 0u);
  EXPECT_EQ(only_empty.Intern("a"), 1u);
  EXPECT_EQ(only_empty.Intern(""), 0u);
}

TEST(StringHeapTest, PrefixSpellingsAreDistinct) {
  for (const std::vector<std::string>& order :
       {std::vector<std::string>{"a", "ab", "abc"},
        std::vector<std::string>{"abc", "ab", "a"},
        std::vector<std::string>{"ab", "abc", "a"}}) {
    StringHeap heap;
    std::vector<uint32_t> offsets;
    for (const std::string& s : order) offsets.push_back(heap.Intern(s));
    EXPECT_EQ(heap.size(), 3u);
    for (size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(heap.Intern(order[i]), offsets[i]) << order[i];
      EXPECT_EQ(heap.At(offsets[i]), order[i]);
    }
  }
}

TEST(StringHeapTest, ReserveAndShrinkKeepOffsets) {
  StringHeap heap;
  heap.Reserve(1000, 8000);
  std::vector<uint32_t> offsets;
  for (int i = 0; i < 100; ++i) {
    offsets.push_back(heap.Intern("w" + std::to_string(i)));
  }
  const std::string bytes = heap.buffer();
  heap.Reserve(100000, 1 << 20);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(heap.Intern("w" + std::to_string(i)), offsets[i]);
  }
  heap.ShrinkToFit();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(heap.Intern("w" + std::to_string(i)), offsets[i]);
  }
  EXPECT_EQ(heap.buffer(), bytes);
  EXPECT_EQ(heap.size(), 100u);
  EXPECT_EQ(heap.Intern("new"), bytes.size());  // appends after the rest
}

TEST(StringHeapTest, FromBufferInternsPersistedSpellingsAtTheirOffsets) {
  StringHeap heap;
  std::vector<uint32_t> offsets;
  for (int i = 0; i < 5000; ++i) {
    offsets.push_back(heap.Intern("p" + std::to_string(i)));
  }
  offsets.push_back(heap.Intern(""));
  StringHeap restored = StringHeap::FromBuffer(heap.buffer());
  EXPECT_EQ(restored.size(), heap.size());
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(restored.Intern("p" + std::to_string(i)), offsets[i]);
  }
  EXPECT_EQ(restored.Intern(""), offsets.back());
  EXPECT_EQ(restored.buffer(), heap.buffer());
  EXPECT_EQ(restored.Intern("fresh"), heap.buffer().size());
}

TEST(StringHeapTest, FromBufferKeepsTheFirstOffsetOfARepeatedSpelling) {
  StringHeap heap = StringHeap::FromBuffer(std::string("a\0b\0a\0", 6));
  EXPECT_EQ(heap.size(), 2u);
  EXPECT_EQ(heap.Intern("a"), 0u);
  EXPECT_EQ(heap.Intern("b"), 2u);
  EXPECT_EQ(heap.At(4), "a");  // the repeat stays readable
  EXPECT_EQ(heap.Intern("c"), 6u);
}

TEST(StringHeapTest, BulkBuildReleasesTheUnusedUpperBound) {
  // MakeStrs reserves as if every value were distinct; with three
  // spellings over 10k values the heap must not keep that reservation.
  std::vector<std::string> v;
  for (int i = 0; i < 10000; ++i) v.push_back(i % 3 == 0 ? "x" : "yy");
  v[7] = "zzz";
  Column c = Column::MakeStrs(v);
  EXPECT_EQ(c.heap()->size(), 3u);
  EXPECT_LT(c.heap()->footprint_bytes(), 1024u);
  for (size_t i = 0; i < v.size(); ++i) ASSERT_EQ(c.StrAt(i), v[i]);
}

// ---------------------------------------------------------------------------
// Bulk builds: StringHeap::Build must give the buffer and offsets of the
// sequential Intern loop, on any pool.

/// Builds `rows` with StringHeap::Build on a private pool of `threads`
/// workers and checks it against the sequential Intern loop: same buffer,
/// same offsets, same distinct count, and later Intern/At calls agree.
void ExpectBuildMatchesInternLoop(const std::vector<std::string>& rows,
                                  int threads) {
  SCOPED_TRACE(std::to_string(rows.size()) + " rows, " +
               std::to_string(threads) + " threads");
  StringHeap want;
  std::vector<uint32_t> want_offsets;
  for (const std::string& s : rows) want_offsets.push_back(want.Intern(s));
  want.ShrinkToFit();

  WorkerPool pool;
  pool.EnsureWorkers(threads);
  std::vector<uint32_t> offsets = {7, 7, 7};  // overwritten
  StringHeap got = StringHeap::Build(
      rows.size(), [&](size_t i) -> std::string_view { return rows[i]; },
      &offsets, &pool);
  ASSERT_EQ(got.buffer(), want.buffer());
  ASSERT_EQ(offsets, want_offsets);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(got.At(offsets[i]), rows[i]) << i;
    ASSERT_EQ(got.Intern(rows[i]), offsets[i]) << i;
  }
  EXPECT_EQ(got.buffer(), want.buffer());  // the Interns found everything
  EXPECT_EQ(got.Intern("a spelling no row has"), want.buffer().size());
}

void ExpectBuildMatchesAtOneAndFourThreads(
    const std::vector<std::string>& rows) {
  ExpectBuildMatchesInternLoop(rows, 1);
  ExpectBuildMatchesInternLoop(rows, 4);
}

TEST(StringHeapBuildTest, EmptyInput) {
  ExpectBuildMatchesAtOneAndFourThreads({});
  std::vector<uint32_t> offsets;
  StringHeap heap = StringHeap::Build(
      0, [](size_t) { return std::string_view(); }, &offsets, nullptr);
  EXPECT_EQ(heap.size(), 0u);
  EXPECT_EQ(heap.Intern("x"), 0u);
}

TEST(StringHeapBuildTest, AllDuplicates) {
  ExpectBuildMatchesAtOneAndFourThreads(
      std::vector<std::string>(200000, "same"));
}

TEST(StringHeapBuildTest, EmptyStrings) {
  std::vector<std::string> rows;
  for (int i = 0; i < 100000; ++i) {
    rows.push_back(i % 3 == 0 ? "" : "e" + std::to_string(i % 1000));
  }
  ExpectBuildMatchesAtOneAndFourThreads(rows);
  ExpectBuildMatchesAtOneAndFourThreads({"", "", ""});
}

TEST(StringHeapBuildTest, MillionDistinctSpellings) {
  std::vector<std::string> rows;
  rows.reserve(1000000);
  for (int i = 0; i < 1000000; ++i) rows.push_back("c" + std::to_string(i));
  ExpectBuildMatchesAtOneAndFourThreads(rows);
}

TEST(StringHeapBuildTest, ProbesThatRunPastTheirRegionAreDeferred) {
  // `region` rows make a table of 2 * region slots: two regions, split at
  // slot `region`. Sixteen spellings whose home slots sit in the last
  // eight slots of the first region cannot all fit there, so their probes
  // run past the region's end; each repeats later (found after the
  // deferred insert) among distinct fillers.
  const size_t region = StringHeap::BuildRegionSlots();
  const size_t mask = 2 * region - 1;
  std::vector<std::string> crafted;
  for (uint64_t k = 0; crafted.size() < 16; ++k) {
    std::string s = "k" + std::to_string(k);
    const size_t home = std::hash<std::string_view>{}(s) & mask;
    if (home >= region - 8 && home < region) crafted.push_back(std::move(s));
  }
  std::vector<std::string> rows;
  for (size_t i = 0; rows.size() < region / 2; ++i) {
    rows.push_back("f" + std::to_string(i));
  }
  for (const std::string& s : crafted) rows.push_back(s);
  for (size_t i = 0; rows.size() < region - crafted.size(); ++i) {
    rows.push_back("g" + std::to_string(i));
  }
  for (const std::string& s : crafted) rows.push_back(s);
  ASSERT_EQ(rows.size(), region);
  ExpectBuildMatchesAtOneAndFourThreads(rows);
}

TEST(StringHeapBuildTest, FromBufferOnThePoolKeepsFirstOffsets) {
  // A persisted buffer holding every spelling twice: the index keeps each
  // spelling's first offset, and the repeats stay readable.
  SharedWorkerPool().EnsureWorkers(4);
  StringHeap heap;
  std::vector<uint32_t> first;
  for (int i = 0; i < 200000; ++i) {
    first.push_back(heap.Intern("p" + std::to_string(i)));
  }
  std::string buffer = heap.buffer() + heap.buffer();
  StringHeap restored = StringHeap::FromBuffer(buffer);
  EXPECT_EQ(restored.size(), first.size());
  EXPECT_EQ(restored.buffer(), buffer);
  for (int i = 0; i < 200000; ++i) {
    const std::string s = "p" + std::to_string(i);
    ASSERT_EQ(restored.Intern(s), first[i]) << s;
    ASSERT_EQ(restored.At(first[i] + heap.buffer().size()), s);
  }
  EXPECT_EQ(restored.Intern("fresh"), buffer.size());
}

TEST(ColumnTest, VoidColumnIsVirtual) {
  Column c = Column::MakeVoid(10, 5);
  EXPECT_TRUE(c.is_void());
  EXPECT_EQ(c.size(), 5u);
  EXPECT_EQ(c.OidAt(0), 10u);
  EXPECT_EQ(c.OidAt(4), 14u);
}

TEST(ColumnTest, MaterializeVoid) {
  Column c = Column::MakeVoid(3, 3).Materialized();
  EXPECT_EQ(c.type(), ValueType::kOid);
  EXPECT_EQ(c.OidAt(2), 5u);
}

TEST(ColumnTest, GatherPreservesTypes) {
  Column ints = Column::MakeInts({10, 20, 30, 40});
  Column picked = ints.Gather(std::vector<size_t>{3, 1});
  EXPECT_EQ(picked.size(), 2u);
  EXPECT_EQ(picked.IntAt(0), 40);
  EXPECT_EQ(picked.IntAt(1), 20);

  Column strs = Column::MakeStrs({"a", "b", "c"});
  Column s2 = strs.Gather(std::vector<uint32_t>{2, 0});
  EXPECT_EQ(s2.StrAt(0), "c");
  EXPECT_EQ(s2.StrAt(1), "a");
  EXPECT_EQ(s2.heap(), strs.heap());  // heap shared, not copied
}

TEST(ColumnTest, TypeCompatibility) {
  EXPECT_TRUE(Column::MakeInts({1}).TypeCompatible(ValueType::kDbl));
  EXPECT_TRUE(Column::MakeVoid(0, 1).TypeCompatible(ValueType::kOid));
  EXPECT_FALSE(Column::MakeStrs({"x"}).TypeCompatible(ValueType::kInt));
  EXPECT_FALSE(Column::MakeOids({1}).TypeCompatible(ValueType::kInt));
}

// The first row's address in a column's buffer (null for void).
const void* FirstRow(const Column& c) {
  switch (c.type()) {
    case ValueType::kVoid:
      return nullptr;
    case ValueType::kOid:
      return c.oids().data();
    case ValueType::kInt:
      return c.ints().data();
    case ValueType::kDbl:
      return c.dbls().data();
    case ValueType::kStr:
      return c.str_offsets().data();
  }
  return nullptr;
}

std::vector<uint8_t> Encoded(const Column& c) {
  std::vector<uint8_t> out;
  EncodeColumn(c, &out);
  return out;
}

std::vector<uint8_t> Encoded(const Bat& b) {
  std::vector<uint8_t> out;
  EncodeBat(b, &out);
  return out;
}

// Rows [lo, lo+count) of `c` in storage of their own: the form a view
// stands in for.
Column OwnedCopy(const Column& c, size_t lo, size_t count) {
  if (c.is_void()) return Column::MakeVoid(c.void_base() + lo, count);
  std::vector<size_t> positions(count);
  for (size_t i = 0; i < count; ++i) positions[i] = lo + i;
  return c.Gather(positions);
}

std::vector<Column> ColumnsOfAllTypes(size_t n) {
  std::vector<Oid> oids;
  std::vector<int64_t> ints;
  std::vector<double> dbls;
  std::vector<std::string> strs;
  for (size_t i = 0; i < n; ++i) {
    oids.push_back(1000 + 7 * i);
    ints.push_back(static_cast<int64_t>(i * i) - 50);
    dbls.push_back(0.25 * static_cast<double>(i % 13));
    strs.push_back("s" + std::to_string(i % 9));
  }
  return {Column::MakeVoid(40, n), Column::MakeOids(oids),
          Column::MakeInts(ints), Column::MakeDbls(dbls),
          Column::MakeStrs(strs)};
}

TEST(ColumnViewTest, CopiesAndStructuralOperatorsShareTheBuffer) {
  for (const Column& c : ColumnsOfAllTypes(6)) {
    if (c.is_void()) continue;
    const Column copy = c;
    EXPECT_EQ(FirstRow(copy), FirstRow(c));
    EXPECT_EQ(FirstRow(c.Materialized()), FirstRow(c));
    const Bat bat(Column::MakeVoid(0, c.size()), c);
    const Bat bat_copy = bat;
    EXPECT_EQ(FirstRow(bat_copy.tail()), FirstRow(c));
    EXPECT_EQ(FirstRow(Reverse(bat).head()), FirstRow(c));
    EXPECT_EQ(FirstRow(Mark(Reverse(bat), 0).head()), FirstRow(c));
    EXPECT_EQ(FirstRow(Mirror(Reverse(bat)).tail()), FirstRow(c));
  }
  const Column strs = Column::MakeStrs({"a", "b"});
  const Column copy = strs;
  EXPECT_EQ(copy.heap(), strs.heap());
}

TEST(ColumnViewTest, ViewsPointIntoTheBaseBuffer) {
  const size_t n = 10;
  for (const Column& c : ColumnsOfAllTypes(n)) {
    Column v = c.View(3, 4);
    EXPECT_EQ(v.type(), c.type());
    ASSERT_EQ(v.size(), 4u);
    if (c.is_void()) {
      EXPECT_EQ(v.void_base(), c.void_base() + 3);
      continue;
    }
    const auto width = c.type() == ValueType::kStr ? 4 : 8;
    EXPECT_EQ(FirstRow(v), static_cast<const char*>(FirstRow(c)) + 3 * width);
    EXPECT_EQ(v.heap(), c.heap());
    // A view of a view is a view of the base.
    EXPECT_EQ(FirstRow(v.View(1, 2)), FirstRow(c.View(4, 2)));
    for (size_t i = 0; i < v.size(); ++i) {
      EXPECT_EQ(v.ValueAt(i).ToString(), c.ValueAt(3 + i).ToString());
    }
  }
  EXPECT_DEATH(Column::MakeInts({1, 2}).View(1, 2), "CHECK");
}

TEST(ColumnViewTest, ViewsEncodeZoneAndSliceLikeOwnedCopies) {
  const size_t n = 700;
  const size_t block_rows = 64;
  // Middle, empty, at the end, empty at the end, whole column.
  const std::vector<std::pair<size_t, size_t>> ranges = {
      {130, 300}, {50, 0}, {n - 77, 77}, {n, 0}, {0, n}};
  for (const Column& c : ColumnsOfAllTypes(n)) {
    for (const auto& [lo, count] : ranges) {
      const std::string at = std::string(ValueTypeName(c.type())) + " [" +
                             std::to_string(lo) + ", +" +
                             std::to_string(count) + ")";
      const Column view = c.View(lo, count);
      const Column owned = OwnedCopy(c, lo, count);
      EXPECT_EQ(Encoded(view), Encoded(owned)) << at;

      const ZoneMap zv = BuildZoneMap(view, block_rows);
      const ZoneMap zo = BuildZoneMap(owned, block_rows);
      EXPECT_EQ(zv.valid, zo.valid) << at;
      EXPECT_EQ(zv.min, zo.min) << at;
      EXPECT_EQ(zv.max, zo.max) << at;
      EXPECT_EQ(zv.block_min, zo.block_min) << at;
      EXPECT_EQ(zv.block_max, zo.block_max) << at;

      const Bat bv(Column::MakeVoid(0, count), view);
      const Bat bo(Column::MakeVoid(0, count), owned);
      EXPECT_EQ(Encoded(Slice(bv, count / 3, count / 2)),
                Encoded(Slice(bo, count / 3, count / 2)))
          << at;
      const CandidateList dense = CandidateList::Dense(count / 4, count / 2);
      EXPECT_EQ(Encoded(Materialize(bv, dense)),
                Encoded(Materialize(bo, dense)))
          << at;
    }
  }
}

TEST(ColumnViewTest, SliceAndDenseMaterializeAreViews) {
  Bat b = Bat::DenseDbls({0.5, 1.5, 2.5, 3.5, 4.5}, /*base=*/20);
  Bat sliced = Slice(b, 1, 3);
  EXPECT_EQ(sliced.tail().dbls().data(), b.tail().dbls().data() + 1);
  EXPECT_TRUE(sliced.head().is_void());
  EXPECT_EQ(sliced.head().void_base(), 21u);
  Bat mat = Materialize(b, CandidateList::Dense(2, 3));
  EXPECT_EQ(mat.tail().dbls().data(), b.tail().dbls().data() + 2);
  EXPECT_EQ(mat.head().void_base(), 22u);
  EXPECT_EQ(mat.size(), 3u);
}

TEST(BatTest, DenseFactoriesAndRowAccess) {
  Bat b = Bat::DenseInts({5, 6, 7}, /*base=*/100);
  EXPECT_EQ(b.size(), 3u);
  auto [h, t] = b.Row(1);
  EXPECT_EQ(h.oid(), 101u);
  EXPECT_EQ(t.i(), 6);
}

TEST(BatTest, EmptyBatsOfAllTypes) {
  for (ValueType vt : {ValueType::kVoid, ValueType::kOid, ValueType::kInt,
                       ValueType::kDbl, ValueType::kStr}) {
    Bat b = Bat::Empty(ValueType::kVoid, vt);
    EXPECT_EQ(b.size(), 0u);
    EXPECT_EQ(b.tail().type(), vt);
  }
}

TEST(BatIoTest, EmptyColumnsOfAllTypesRoundTrip) {
  // Empty payload vectors may have a null data(): the decoder must not
  // hand that pointer to memcpy.
  for (ValueType vt : {ValueType::kVoid, ValueType::kOid, ValueType::kInt,
                       ValueType::kDbl, ValueType::kStr}) {
    Bat b = Bat::Empty(ValueType::kVoid, vt);
    std::vector<uint8_t> buf;
    EncodeBat(b, &buf);
    size_t pos = 0;
    auto decoded = DecodeBat(buf, &pos);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(pos, buf.size());
    EXPECT_EQ(decoded.value().size(), 0u);
    EXPECT_EQ(decoded.value().head().type(), ValueType::kVoid);
    EXPECT_EQ(decoded.value().tail().type(), vt);
  }
}

TEST(BatTest, DebugStringMentionsTypesAndSize) {
  Bat b = Bat::DenseStrs({"x"});
  std::string s = b.DebugString();
  EXPECT_NE(s.find("BAT[void,str]"), std::string::npos);
  EXPECT_NE(s.find("#1"), std::string::npos);
}

TEST(BatTest, MismatchedColumnsAbort) {
  EXPECT_DEATH(Bat(Column::MakeVoid(0, 2), Column::MakeInts({1})), "CHECK");
}

}  // namespace
}  // namespace mirror::monet
