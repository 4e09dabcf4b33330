// Unit tests for the BAT building blocks: values, string heap, columns.

#include <gtest/gtest.h>

#include "monet/bat.h"
#include "monet/bat_io.h"
#include "monet/string_heap.h"
#include "monet/value.h"

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
