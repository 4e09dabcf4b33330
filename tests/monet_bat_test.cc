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
