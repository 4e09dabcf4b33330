// Unit and property tests for the column-at-a-time operator set. The
// property tests (TEST_P sweeps over sizes and seeds) check algebraic
// identities against brute-force reference implementations.

#include <unistd.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "monet/bat_ops.h"
#include "monet/prob_ops.h"
#include "monet/profiler.h"

namespace mirror::monet {
namespace {

Bat RandomIntBat(size_t n, int64_t domain, base::Rng* rng, Oid base = 0) {
  std::vector<int64_t> tails(n);
  for (auto& t : tails) t = rng->UniformInt(0, domain - 1);
  return Bat::DenseInts(std::move(tails), base);
}

TEST(StructuralOpsTest, ReverseSwapsColumns) {
  Bat b = Bat::DenseInts({7, 8});
  Bat r = Reverse(b);
  EXPECT_EQ(r.head().type(), ValueType::kInt);
  EXPECT_EQ(r.tail().type(), ValueType::kOid);
  EXPECT_EQ(r.head().IntAt(0), 7);
  EXPECT_EQ(r.tail().OidAt(1), 1u);
}

TEST(StructuralOpsTest, MirrorPairsHeadWithItself) {
  Bat m = Mirror(Bat::DenseInts({5, 6}, /*base=*/3));
  EXPECT_EQ(m.head().OidAt(0), 3u);
  EXPECT_EQ(m.tail().OidAt(0), 3u);
}

TEST(StructuralOpsTest, MarkNumbersDensely) {
  Bat m = Mark(Bat::DenseInts({5, 6, 7}), /*base=*/100);
  EXPECT_TRUE(m.tail().is_void());
  EXPECT_EQ(m.tail().OidAt(2), 102u);
}

TEST(StructuralOpsTest, SliceClampsBounds) {
  Bat b = Bat::DenseInts({1, 2, 3, 4});
  EXPECT_EQ(Slice(b, 1, 2).size(), 2u);
  EXPECT_EQ(Slice(b, 3, 10).size(), 1u);
  EXPECT_EQ(Slice(b, 9, 1).size(), 0u);
}

TEST(StructuralOpsTest, ConcatKeepsDenseVoidHeads) {
  Bat a = Bat::DenseInts({1, 2}, 0);
  Bat b = Bat::DenseInts({3}, 2);
  Bat c = Concat(a, b);
  EXPECT_TRUE(c.head().is_void());
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.tail().IntAt(2), 3);
}

TEST(StructuralOpsTest, ConcatMaterializesNonContiguousHeads) {
  Bat a = Bat::DenseInts({1}, 0);
  Bat b = Bat::DenseInts({2}, 5);
  Bat c = Concat(a, b);
  EXPECT_EQ(c.head().type(), ValueType::kOid);
  EXPECT_EQ(c.head().OidAt(1), 5u);
}

TEST(StructuralOpsTest, ConcatWidensMixedNumerics) {
  Bat a = Bat::DenseInts({1});
  Bat b = Bat::DenseDbls({2.5}, 1);
  Bat c = Concat(a, b);
  EXPECT_EQ(c.tail().type(), ValueType::kDbl);
  EXPECT_EQ(c.tail().DblAt(0), 1.0);
  EXPECT_EQ(c.tail().DblAt(1), 2.5);
}

TEST(StructuralOpsTest, ConcatMergesStringHeaps) {
  Bat a = Bat::DenseStrs({"x", "y"});
  Bat b = Bat::DenseStrs({"y", "z"}, 2);
  Bat c = Concat(a, b);
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c.tail().StrAt(2), "y");
  EXPECT_EQ(c.tail().StrAt(3), "z");
  // Interned into a copy of a's heap: equal strings share offsets.
  EXPECT_EQ(c.tail().StrOffsetAt(1), c.tail().StrOffsetAt(2));
}

TEST(StructuralOpsTest, ConcatLeavesBothInputHeapsUntouched) {
  // The first input's heap may be a catalog base heap that concurrent
  // readers share: concatenating a foreign-heap part must not intern
  // anything into it.
  Bat a = Bat::DenseStrs({"x", "y", "x"});
  Bat b = Bat::DenseStrs({"y", "z", "w"}, 3);
  ASSERT_NE(a.tail().heap(), b.tail().heap());
  const std::string a_heap = a.tail().heap()->buffer();
  const std::string b_heap = b.tail().heap()->buffer();
  const size_t a_count = a.tail().heap()->size();
  Bat c = ConcatAll({&a, &b});
  EXPECT_EQ(a.tail().heap()->buffer(), a_heap);
  EXPECT_EQ(a.tail().heap()->size(), a_count);
  EXPECT_EQ(b.tail().heap()->buffer(), b_heap);
  EXPECT_NE(c.tail().heap(), a.tail().heap());
  const std::vector<std::string> want = {"x", "y", "x", "y", "z", "w"};
  ASSERT_EQ(c.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(c.tail().StrAt(i), want[i]) << i;
  }
  EXPECT_EQ(c.tail().StrOffsetAt(1), c.tail().StrOffsetAt(3));
  // Parts that share one heap share it with the output: nothing copied.
  Bat d = Concat(a, a);
  EXPECT_EQ(d.tail().heap(), a.tail().heap());
  EXPECT_EQ(a.tail().heap()->buffer(), a_heap);
}

TEST(SelectTest, SelectEqOnInts) {
  Bat b = Bat::DenseInts({5, 3, 5, 1});
  Bat s = SelectEq(b, Value::MakeInt(5));
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.head().OidAt(0), 0u);
  EXPECT_EQ(s.head().OidAt(1), 2u);
}

TEST(SelectTest, SelectEqOnStrings) {
  Bat b = Bat::DenseStrs({"cat", "dog", "cat"});
  EXPECT_EQ(SelectEq(b, Value::MakeStr("cat")).size(), 2u);
  EXPECT_EQ(SelectEq(b, Value::MakeStr("bird")).size(), 0u);
}

TEST(SelectTest, SelectRangeInclusivity) {
  Bat b = Bat::DenseInts({1, 2, 3, 4, 5});
  EXPECT_EQ(SelectRange(b, Value::MakeInt(2), Value::MakeInt(4), true, true)
                .size(),
            3u);
  EXPECT_EQ(SelectRange(b, Value::MakeInt(2), Value::MakeInt(4), false, false)
                .size(),
            1u);
}

TEST(SelectTest, SelectCmpAllOperators) {
  Bat b = Bat::DenseInts({1, 2, 3});
  EXPECT_EQ(SelectCmp(b, CmpOp::kLt, Value::MakeInt(2)).size(), 1u);
  EXPECT_EQ(SelectCmp(b, CmpOp::kLe, Value::MakeInt(2)).size(), 2u);
  EXPECT_EQ(SelectCmp(b, CmpOp::kGt, Value::MakeInt(2)).size(), 1u);
  EXPECT_EQ(SelectCmp(b, CmpOp::kGe, Value::MakeInt(2)).size(), 2u);
  EXPECT_EQ(SelectCmp(b, CmpOp::kNeq, Value::MakeInt(2)).size(), 2u);
  EXPECT_EQ(SelectCmp(b, CmpOp::kEq, Value::MakeInt(2)).size(), 1u);
}

TEST(SelectTest, SelectCmpOnStrings) {
  Bat b = Bat::DenseStrs({"apple", "banana", "cherry"});
  EXPECT_EQ(SelectCmp(b, CmpOp::kGe, Value::MakeStr("banana")).size(), 2u);
  EXPECT_EQ(SelectCmp(b, CmpOp::kLt, Value::MakeStr("banana")).size(), 1u);
}

TEST(JoinTest, FetchJoinThroughVoidHead) {
  // l: (void -> oid refs), r: (void -> str values).
  Bat l = Bat::DenseOids({2, 0, 7});  // 7 out of range
  Bat r = Bat::DenseStrs({"a", "b", "c"});
  Bat j = Join(l, r);
  ASSERT_EQ(j.size(), 2u);
  EXPECT_EQ(j.tail().StrAt(0), "c");
  EXPECT_EQ(j.tail().StrAt(1), "a");
}

TEST(JoinTest, HashJoinWithDuplicates) {
  Bat l(Column::MakeOids({10, 11}), Column::MakeInts({1, 2}));
  Bat r(Column::MakeInts({2, 1, 2}), Column::MakeStrs({"x", "y", "z"}));
  Bat j = Join(l, r);
  // 10->1 matches "y"; 11->2 matches "x" and "z".
  ASSERT_EQ(j.size(), 3u);
  EXPECT_EQ(j.head().OidAt(0), 10u);
  EXPECT_EQ(j.tail().StrAt(0), "y");
  EXPECT_EQ(j.head().OidAt(1), 11u);
}

TEST(JoinTest, StringKeysAcrossDifferentHeaps) {
  Bat l = Bat::DenseStrs({"cat", "dog"});
  Bat r(Column::MakeStrs({"dog", "bird"}), Column::MakeInts({1, 2}));
  Bat j = Join(l, r);
  ASSERT_EQ(j.size(), 1u);
  EXPECT_EQ(j.head().OidAt(0), 1u);
  EXPECT_EQ(j.tail().IntAt(0), 1);
}

TEST(SemiJoinTest, HeadMembership) {
  Bat l = Bat::DenseInts({10, 20, 30});        // heads 0,1,2
  Bat r(Column::MakeOids({2, 0}), Column::MakeInts({0, 0}));
  Bat s = SemiJoinHead(l, r);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.tail().IntAt(0), 10);
  EXPECT_EQ(s.tail().IntAt(1), 30);
  Bat a = AntiJoinHead(l, r);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a.tail().IntAt(0), 20);
}

TEST(SemiJoinTest, TailMembership) {
  Bat l = Bat::DenseInts({5, 6, 7});
  Bat r = Bat::DenseInts({7, 5});
  Bat s = SemiJoinTail(l, r);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.tail().IntAt(0), 5);
  EXPECT_EQ(s.tail().IntAt(1), 7);
}

TEST(SortTest, SortAndTopN) {
  Bat b = Bat::DenseInts({3, 1, 2});
  Bat asc = SortByTail(b, true);
  EXPECT_EQ(asc.tail().IntAt(0), 1);
  EXPECT_EQ(asc.tail().IntAt(2), 3);
  Bat top = TopNByTail(b, 2, /*descending=*/true);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top.tail().IntAt(0), 3);
  EXPECT_EQ(top.tail().IntAt(1), 2);
}

TEST(SortTest, SortIsStable) {
  Bat b(Column::MakeOids({0, 1, 2, 3}), Column::MakeInts({1, 0, 1, 0}));
  Bat s = SortByTail(b, true);
  // Equal keys keep original head order.
  EXPECT_EQ(s.head().OidAt(0), 1u);
  EXPECT_EQ(s.head().OidAt(1), 3u);
  EXPECT_EQ(s.head().OidAt(2), 0u);
  EXPECT_EQ(s.head().OidAt(3), 2u);
}

TEST(UniqueTest, FirstOccurrenceWins) {
  Bat b(Column::MakeOids({9, 8, 7}), Column::MakeInts({1, 1, 2}));
  Bat u = UniqueTail(b);
  ASSERT_EQ(u.size(), 2u);
  EXPECT_EQ(u.head().OidAt(0), 9u);
  Bat h = UniqueHead(Bat(Column::MakeOids({5, 5, 6}),
                         Column::MakeInts({1, 2, 3})));
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h.tail().IntAt(0), 1);
}

TEST(AggregateTest, GroupedAggregates) {
  Bat b(Column::MakeOids({1, 0, 1, 0, 2}),
        Column::MakeDbls({1.0, 2.0, 3.0, 4.0, 5.0}));
  Bat sum = AggregatePerHead(b, nullptr, AggKind::kSum);
  ASSERT_EQ(sum.size(), 3u);
  EXPECT_EQ(sum.head().OidAt(0), 0u);  // ascending heads
  EXPECT_DOUBLE_EQ(sum.tail().DblAt(0), 6.0);
  EXPECT_DOUBLE_EQ(sum.tail().DblAt(1), 4.0);
  EXPECT_DOUBLE_EQ(sum.tail().DblAt(2), 5.0);

  Bat count = AggregatePerHead(b, nullptr, AggKind::kCount);
  EXPECT_EQ(count.tail().IntAt(0), 2);
  EXPECT_EQ(count.tail().IntAt(2), 1);

  auto agg = [&](AggKind kind) { return AggregatePerHead(b, nullptr, kind); };
  EXPECT_DOUBLE_EQ(agg(AggKind::kMax).tail().DblAt(1), 3.0);
  EXPECT_DOUBLE_EQ(agg(AggKind::kMin).tail().DblAt(1), 1.0);
  EXPECT_DOUBLE_EQ(agg(AggKind::kAvg).tail().DblAt(0), 3.0);
}

TEST(AggregateTest, ScalarAggregates) {
  Bat b = Bat::DenseInts({2, 4, 6});
  EXPECT_DOUBLE_EQ(ScalarSum(b), 12.0);
  EXPECT_EQ(ScalarCount(b), 3);
  EXPECT_EQ(ScalarMax(b).i(), 6);
  EXPECT_EQ(ScalarMin(b).i(), 2);
}

TEST(AggregateTest, HistogramOverTails) {
  Bat b = Bat::DenseStrs({"b", "a", "b", "b"});
  Bat h = CountPerTailValue(b);
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h.head().StrAt(0), "a");  // lexicographic order
  EXPECT_EQ(h.tail().IntAt(0), 1);
  EXPECT_EQ(h.head().StrAt(1), "b");
  EXPECT_EQ(h.tail().IntAt(1), 3);
}

TEST(MultiplexTest, BinaryOpsIntClosure) {
  Bat a = Bat::DenseInts({1, 2});
  Bat b = Bat::DenseInts({3, 4});
  Bat sum = MapBinary(a, b, BinOp::kAdd);
  EXPECT_EQ(sum.tail().type(), ValueType::kInt);
  EXPECT_EQ(sum.tail().IntAt(1), 6);
  Bat div = MapBinary(a, b, BinOp::kDiv);
  EXPECT_EQ(div.tail().type(), ValueType::kDbl);
  EXPECT_DOUBLE_EQ(div.tail().DblAt(0), 1.0 / 3.0);
}

TEST(MultiplexTest, ScalarAndUnary) {
  Bat a = Bat::DenseDbls({1.0, 4.0});
  Bat plus = MapBinaryScalar(a, Value::MakeDbl(0.5), BinOp::kAdd);
  EXPECT_DOUBLE_EQ(plus.tail().DblAt(0), 1.5);
  Bat root = MapUnary(a, UnOp::kSqrt);
  EXPECT_DOUBLE_EQ(root.tail().DblAt(1), 2.0);
  Bat complement = MapUnary(a, UnOp::kOneMinus);
  EXPECT_DOUBLE_EQ(complement.tail().DblAt(0), 0.0);
}

TEST(MultiplexTest, FillTailConstants) {
  Bat b = Bat::DenseInts({1, 2, 3});
  Bat f = FillTail(b, Value::MakeDbl(0.4));
  EXPECT_EQ(f.size(), 3u);
  EXPECT_DOUBLE_EQ(f.tail().DblAt(2), 0.4);
  Bat s = FillTail(b, Value::MakeStr("x"));
  EXPECT_EQ(s.tail().StrAt(0), "x");
}

TEST(ProbOpsTest, BeliefBoundsAndMonotonicity) {
  // One posting per doc, increasing tf.
  Bat tf = Bat::DenseInts({1, 2, 8, 32});
  Bat df = Bat::DenseInts({4, 4, 4, 4});
  Bat len = Bat::DenseInts({40, 40, 40, 40});
  BeliefParams params;
  Bat bel = BeliefTfIdf(tf, df, len, /*num_docs=*/100, /*avg_doclen=*/40.0,
                        params);
  for (size_t i = 0; i < bel.size(); ++i) {
    double b = bel.tail().DblAt(i);
    EXPECT_GT(b, params.alpha);
    EXPECT_LT(b, 1.0);
    if (i > 0) EXPECT_GT(b, bel.tail().DblAt(i - 1)) << "tf monotone";
  }
}

TEST(ProbOpsTest, RareTermsScoreHigher) {
  Bat tf = Bat::DenseInts({3, 3});
  Bat df = Bat::DenseInts({2, 50});
  Bat len = Bat::DenseInts({40, 40});
  Bat bel = BeliefTfIdf(tf, df, len, 100, 40.0, BeliefParams());
  EXPECT_GT(bel.tail().DblAt(0), bel.tail().DblAt(1));
}

TEST(ProbOpsTest, ProdAndProbOrPerHead) {
  Bat b(Column::MakeOids({0, 0, 1}), Column::MakeDbls({0.5, 0.5, 0.3}));
  Bat prod = AggregatePerHead(b, nullptr, AggKind::kProd);
  EXPECT_DOUBLE_EQ(prod.tail().DblAt(0), 0.25);
  EXPECT_DOUBLE_EQ(prod.tail().DblAt(1), 0.3);
  Bat por = AggregatePerHead(b, nullptr, AggKind::kProbOr);
  EXPECT_DOUBLE_EQ(por.tail().DblAt(0), 0.75);
  EXPECT_DOUBLE_EQ(por.tail().DblAt(1), 0.3);
}

// ---------------------------------------------------------------------------
// Property tests against brute-force references.

struct PropertyParam {
  size_t size;
  uint64_t seed;
};

class OpsPropertyTest : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(OpsPropertyTest, ReverseIsInvolution) {
  base::Rng rng(GetParam().seed);
  Bat b = RandomIntBat(GetParam().size, 50, &rng);
  Bat rr = Reverse(Reverse(b));
  ASSERT_EQ(rr.size(), b.size());
  for (size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(rr.head().OidAt(i), b.head().OidAt(i));
    EXPECT_EQ(rr.tail().IntAt(i), b.tail().IntAt(i));
  }
}

TEST_P(OpsPropertyTest, JoinMatchesBruteForce) {
  base::Rng rng(GetParam().seed);
  size_t n = GetParam().size;
  Bat l(Column::MakeOids([&] {
          std::vector<Oid> v(n);
          for (auto& x : v) x = rng.Uniform(100);
          return v;
        }()),
        Column::MakeInts([&] {
          std::vector<int64_t> v(n);
          for (auto& x : v) x = rng.UniformInt(0, 19);
          return v;
        }()));
  Bat r(Column::MakeInts([&] {
          std::vector<int64_t> v(n / 2 + 1);
          for (auto& x : v) x = rng.UniformInt(0, 19);
          return v;
        }()),
        Column::MakeDbls([&] {
          std::vector<double> v(n / 2 + 1);
          for (auto& x : v) x = rng.UniformDouble();
          return v;
        }()));
  Bat j = Join(l, r);
  // Brute force count.
  size_t expected = 0;
  for (size_t i = 0; i < l.size(); ++i) {
    for (size_t k = 0; k < r.size(); ++k) {
      if (l.tail().IntAt(i) == r.head().IntAt(k)) ++expected;
    }
  }
  EXPECT_EQ(j.size(), expected);
  // Every output pair must be a genuine match (spot-check by multiset).
  std::multiset<std::pair<Oid, int64_t>> seen;
  for (size_t i = 0; i < j.size(); ++i) {
    seen.insert({j.head().OidAt(i), 0});
  }
  EXPECT_EQ(seen.size(), j.size());
}

TEST_P(OpsPropertyTest, SemiPlusAntiJoinPartitionInput) {
  base::Rng rng(GetParam().seed);
  size_t n = GetParam().size;
  Bat l(Column::MakeOids([&] {
          std::vector<Oid> v(n);
          for (auto& x : v) x = rng.Uniform(30);
          return v;
        }()),
        Column::MakeInts(std::vector<int64_t>(n, 1)));
  Bat r(Column::MakeOids([&] {
          std::vector<Oid> v(n / 3 + 1);
          for (auto& x : v) x = rng.Uniform(30);
          return v;
        }()),
        Column::MakeInts(std::vector<int64_t>(n / 3 + 1, 1)));
  EXPECT_EQ(SemiJoinHead(l, r).size() + AntiJoinHead(l, r).size(), l.size());
}

TEST_P(OpsPropertyTest, SumPerHeadMatchesScalarSum) {
  base::Rng rng(GetParam().seed);
  size_t n = GetParam().size;
  std::vector<Oid> heads(n);
  std::vector<double> tails(n);
  for (size_t i = 0; i < n; ++i) {
    heads[i] = rng.Uniform(10);
    tails[i] = rng.UniformDouble();
  }
  Bat b(Column::MakeOids(heads), Column::MakeDbls(tails));
  Bat grouped = AggregatePerHead(b, nullptr, AggKind::kSum);
  EXPECT_NEAR(ScalarSum(grouped), ScalarSum(b), 1e-9);
}

TEST_P(OpsPropertyTest, SortPreservesMultiset) {
  base::Rng rng(GetParam().seed);
  Bat b = RandomIntBat(GetParam().size, 25, &rng);
  Bat sorted = SortByTail(b, true);
  std::multiset<int64_t> before;
  std::multiset<int64_t> after;
  for (size_t i = 0; i < b.size(); ++i) {
    before.insert(b.tail().IntAt(i));
    after.insert(sorted.tail().IntAt(i));
  }
  EXPECT_EQ(before, after);
  for (size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_LE(sorted.tail().IntAt(i - 1), sorted.tail().IntAt(i));
  }
}

TEST_P(OpsPropertyTest, SelectEqPartitionWithSelectNeq) {
  base::Rng rng(GetParam().seed);
  Bat b = RandomIntBat(GetParam().size, 8, &rng);
  Value v = Value::MakeInt(3);
  EXPECT_EQ(SelectEq(b, v).size() + SelectNeq(b, v).size(), b.size());
}

TEST_P(OpsPropertyTest, HistogramCountsSumToSize) {
  base::Rng rng(GetParam().seed);
  Bat b = RandomIntBat(GetParam().size, 12, &rng);
  Bat h = CountPerTailValue(b);
  int64_t total = 0;
  for (size_t i = 0; i < h.size(); ++i) total += h.tail().IntAt(i);
  EXPECT_EQ(total, static_cast<int64_t>(b.size()));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, OpsPropertyTest,
    ::testing::Values(PropertyParam{0, 1}, PropertyParam{1, 2},
                      PropertyParam{17, 3}, PropertyParam{256, 4},
                      PropertyParam{1000, 5}),
    [](const ::testing::TestParamInfo<PropertyParam>& info) {
      return "n" + std::to_string(info.param.size) + "_seed" +
             std::to_string(info.param.seed);
    });

TEST(ProfilerTest, OpsAreCounted) {
  ResetKernelStats();
  Bat b = Bat::DenseInts({1, 2, 3});
  SelectEq(b, Value::MakeInt(2));
  Reverse(b);
  KernelStats stats = SnapshotKernelStats();
  EXPECT_EQ(stats.op_count[static_cast<int>(KernelOp::kSelect)], 1u);
  EXPECT_EQ(stats.op_count[static_cast<int>(KernelOp::kReverse)], 1u);
  EXPECT_GE(stats.TotalOps(), 2u);
  EXPECT_NE(stats.ToString().find("select=1"), std::string::npos);
}

TEST(ProfilerTest, CandidateAndMaterializationCountersTrack) {
  ResetKernelStats();
  Bat b = Bat::DenseInts({1, 2, 3, 4, 5});
  CandidateList c = SelectCmpCand(b, CmpOp::kGt, Value::MakeInt(2));
  Materialize(b, c);
  KernelStats stats = SnapshotKernelStats();
  EXPECT_EQ(stats.candidate_ops, 1u);
  EXPECT_EQ(stats.materializations, 1u);
  EXPECT_EQ(stats.materialized_tuples, 3u);
  EXPECT_EQ(stats.op_count[static_cast<int>(KernelOp::kMaterialize)], 1u);
}

// ---------------------------------------------------------------------------
// Candidate lists and candidate-vector kernels.

TEST(CandidateListTest, DenseAndSparseBasics) {
  CandidateList all = CandidateList::All(5);
  EXPECT_TRUE(all.is_dense());
  EXPECT_EQ(all.size(), 5u);
  EXPECT_EQ(all.PositionAt(3), 3u);

  CandidateList sparse = CandidateList::FromPositions({1, 4, 7});
  EXPECT_FALSE(sparse.is_dense());
  EXPECT_EQ(sparse.size(), 3u);
  EXPECT_EQ(sparse.PositionAt(2), 7u);

  CandidateList inter = sparse.Intersect(CandidateList::Dense(2, 10));
  ASSERT_EQ(inter.size(), 2u);
  EXPECT_EQ(inter.PositionAt(0), 4u);
  EXPECT_EQ(inter.PositionAt(1), 7u);
  // The dense range [4, 7) keeps 4 and drops 7, whichever side it is on.
  for (const CandidateList& clamped :
       {CandidateList::Dense(4, 3).Intersect(sparse),
        sparse.Intersect(CandidateList::Dense(4, 3))}) {
    ASSERT_EQ(clamped.size(), 1u);
    EXPECT_FALSE(clamped.is_dense());
    EXPECT_EQ(clamped.PositionAt(0), 4u);
  }
  EXPECT_TRUE(sparse.Intersect(CandidateList::Dense(8, 4)).empty());

  CandidateList uni =
      sparse.Union(CandidateList::FromPositions({2, 4}));
  ASSERT_EQ(uni.size(), 4u);
  EXPECT_EQ(uni.PositionAt(0), 1u);
  EXPECT_EQ(uni.PositionAt(1), 2u);

  CandidateList sliced = sparse.Sliced(1, 5);
  ASSERT_EQ(sliced.size(), 2u);
  EXPECT_EQ(sliced.PositionAt(0), 4u);
}

TEST(CandidateListTest, DifferenceAndUnionMixDenseAndSparse) {
  const CandidateList sparse = CandidateList::FromPositions({1, 4, 5, 9, 12});
  const CandidateList dense = CandidateList::Dense(4, 6);  // 4..9
  auto positions = [](const CandidateList& c) { return c.ToPositions(); };
  EXPECT_EQ(positions(sparse.Difference(dense)),
            (std::vector<size_t>{1, 12}));
  EXPECT_EQ(positions(dense.Difference(sparse)),
            (std::vector<size_t>{6, 7, 8}));
  EXPECT_EQ(positions(dense.Difference(CandidateList::Dense(6, 2))),
            (std::vector<size_t>{4, 5, 8, 9}));
  EXPECT_EQ(positions(sparse.Union(dense)),
            (std::vector<size_t>{1, 4, 5, 6, 7, 8, 9, 12}));
  EXPECT_EQ(positions(dense.Union(CandidateList::Dense(20, 2))),
            (std::vector<size_t>{4, 5, 6, 7, 8, 9, 20, 21}));
  EXPECT_FALSE(sparse.Difference(dense).is_dense());
  // Removing every row leaves an empty list; an empty side is a no-op.
  EXPECT_TRUE(sparse.Difference(CandidateList::Dense(0, 13)).empty());
  EXPECT_EQ(positions(sparse.Difference(CandidateList())), positions(sparse));
}

// Counts every block PageAllocator hands out and checks that each comes
// back with the element count it was allocated with.
template <typename T>
struct CheckedPageAllocator : PageAllocator<T> {
  static inline std::map<void*, size_t> live;
  CheckedPageAllocator() = default;
  template <typename U>
  CheckedPageAllocator(const CheckedPageAllocator<U>&) {}
  T* allocate(size_t n) {
    T* p = PageAllocator<T>::allocate(n);
    live[p] = n;
    if (kPageMapsLargeBlocks && n * sizeof(T) >= kPageMapFloorBytes) {
      EXPECT_EQ(reinterpret_cast<uintptr_t>(p) %
                    static_cast<uintptr_t>(sysconf(_SC_PAGESIZE)),
                0u);
    }
    return p;
  }
  void deallocate(T* p, size_t n) {
    auto it = live.find(p);
    ASSERT_NE(it, live.end());
    EXPECT_EQ(it->second, n);
    live.erase(it);
    PageAllocator<T>::deallocate(p, n);
  }
};

TEST(PositionVectorTest, MappedBlocksGrowShrinkCopyMoveAndRelease) {
  using Checked = std::vector<uint32_t, CheckedPageAllocator<uint32_t>>;
  const size_t floor_elems = kPageMapFloorBytes / sizeof(uint32_t);
  {
    Checked v;
    for (uint32_t i = 0; i < 3 * floor_elems; ++i) v.push_back(i);
    EXPECT_GE(v.capacity() * sizeof(uint32_t), kPageMapFloorBytes);
    Checked copy = v;
    Checked moved = std::move(v);
    EXPECT_EQ(copy, moved);
    moved.resize(10);
    moved.shrink_to_fit();
    EXPECT_LT(moved.capacity() * sizeof(uint32_t), kPageMapFloorBytes);
    EXPECT_EQ(moved[9], 9u);
    copy.resize(4 * floor_elems);  // grows across the floor again
    EXPECT_EQ(copy[floor_elems], floor_elems);
    Checked assigned;
    assigned = copy;
    EXPECT_EQ(assigned.size(), copy.size());
    assigned = std::move(moved);
    EXPECT_EQ(assigned.size(), 10u);
  }
  EXPECT_TRUE(CheckedPageAllocator<uint32_t>::live.empty());
  // The candidate lists built on it keep their positions through the
  // same moves and copies.
  PositionVector big(floor_elems + 1);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<uint32_t>(2 * i);
  const CandidateList list = CandidateList::FromPositions(std::move(big));
  const CandidateList copy = list;
  EXPECT_EQ(copy.PositionAt(floor_elems), 2 * floor_elems);
  EXPECT_EQ(copy.Sliced(floor_elems, 5).PositionAt(0), 2 * floor_elems);
}

TEST(CandidateOpsTest, SelectCandMatchesMaterializingSelect) {
  base::Rng rng(99);
  Bat b = RandomIntBat(500, 40, &rng);
  Value lo = Value::MakeInt(10);
  Bat classic = SelectCmp(b, CmpOp::kGe, lo);
  Bat late = Materialize(b, SelectCmpCand(b, CmpOp::kGe, lo));
  ASSERT_EQ(classic.size(), late.size());
  for (size_t i = 0; i < classic.size(); ++i) {
    EXPECT_EQ(classic.head().OidAt(i), late.head().OidAt(i));
    EXPECT_EQ(classic.tail().IntAt(i), late.tail().IntAt(i));
  }
}

TEST(CandidateOpsTest, MorselSelectsCompactOneBufferAcrossThreads) {
  WorkerPool pool;
  pool.EnsureWorkers(3);
  const MorselExec mx{&pool, 100};
  base::Rng rng(5);
  Bat b = RandomIntBat(5000, 50, &rng);
  const Value ten = Value::MakeInt(10);
  const CandidateList wide = SelectCmpCand(b, CmpOp::kGe, ten, nullptr, mx);
  EXPECT_EQ(wide.ToPositions(), SelectCmpCand(b, CmpOp::kGe, ten).ToPositions());
  // Over a sparse domain each morsel reads its span of `wide` in place.
  const Value lo = Value::MakeInt(20);
  const Value hi = Value::MakeInt(30);
  const CandidateList narrow =
      SelectRangeCand(b, lo, hi, true, false, &wide, mx);
  EXPECT_EQ(narrow.ToPositions(),
            SelectRangeCand(b, lo, hi, true, false, &wide).ToPositions());
  Bat keys = Bat::DenseInts({3, 7, 11, 42});
  EXPECT_EQ(SemiJoinTailCand(b, keys, &wide, mx).ToPositions(),
            SemiJoinTailCand(b, keys, &wide).ToPositions());
  EXPECT_EQ(wide.Difference(narrow).Union(narrow).ToPositions(),
            wide.ToPositions());
}

TEST(CandidateOpsTest, ChainedCandidatesMatchChainedSelects) {
  base::Rng rng(7);
  Bat b = RandomIntBat(800, 50, &rng);
  // Classic: materialize after every operator.
  Bat step1 = SelectCmp(b, CmpOp::kGe, Value::MakeInt(10));
  Bat step2 = SelectCmp(step1, CmpOp::kLe, Value::MakeInt(35));
  Bat classic = SelectNeq(step2, Value::MakeInt(20));
  // Late: one candidate pipeline, one copy.
  CandidateList c1 = SelectCmpCand(b, CmpOp::kGe, Value::MakeInt(10));
  CandidateList c2 = SelectCmpCand(b, CmpOp::kLe, Value::MakeInt(35), &c1);
  CandidateList c3 = SelectNeqCand(b, Value::MakeInt(20), &c2);
  Bat late = Materialize(b, c3);
  ASSERT_EQ(classic.size(), late.size());
  for (size_t i = 0; i < classic.size(); ++i) {
    EXPECT_EQ(classic.head().OidAt(i), late.head().OidAt(i));
    EXPECT_EQ(classic.tail().IntAt(i), late.tail().IntAt(i));
  }
}

TEST(CandidateOpsTest, SemiAndAntiJoinCandMatchMaterializing) {
  Bat l = Bat(Column::MakeOids({0, 1, 2, 3, 4, 5}),
              Column::MakeInts({10, 11, 12, 13, 14, 15}));
  Bat r = Bat(Column::MakeOids({1, 3, 5, 9}),
              Column::MakeInts({0, 0, 0, 0}));
  Bat classic_semi = SemiJoinHead(l, r);
  Bat late_semi = Materialize(l, SemiJoinHeadCand(l, r));
  ASSERT_EQ(classic_semi.size(), late_semi.size());
  for (size_t i = 0; i < classic_semi.size(); ++i) {
    EXPECT_EQ(classic_semi.head().OidAt(i), late_semi.head().OidAt(i));
  }
  Bat classic_anti = AntiJoinHead(l, r);
  Bat late_anti = Materialize(l, AntiJoinHeadCand(l, r));
  ASSERT_EQ(classic_anti.size(), late_anti.size());
  for (size_t i = 0; i < classic_anti.size(); ++i) {
    EXPECT_EQ(classic_anti.head().OidAt(i), late_anti.head().OidAt(i));
  }
  // Candidate domain composes: semijoin after a selection.
  CandidateList sel = SelectCmpCand(l, CmpOp::kGe, Value::MakeInt(12));
  Bat late_chain = Materialize(l, SemiJoinHeadCand(l, r, &sel));
  Bat classic_chain = SemiJoinHead(SelectCmp(l, CmpOp::kGe, Value::MakeInt(12)), r);
  ASSERT_EQ(classic_chain.size(), late_chain.size());
  for (size_t i = 0; i < classic_chain.size(); ++i) {
    EXPECT_EQ(classic_chain.head().OidAt(i), late_chain.head().OidAt(i));
    EXPECT_EQ(classic_chain.tail().IntAt(i), late_chain.tail().IntAt(i));
  }
}

TEST(CandidateOpsTest, StringSelectionOverCandidates) {
  Bat b = Bat::DenseStrs({"sun", "sea", "sun", "sky", "sun", "sea"});
  CandidateList c1 = SelectNeqCand(b, Value::MakeStr("sea"));
  CandidateList c2 = SelectEqCand(b, Value::MakeStr("sun"), &c1);
  Bat late = Materialize(b, c2);
  ASSERT_EQ(late.size(), 3u);
  EXPECT_EQ(late.head().OidAt(0), 0u);
  EXPECT_EQ(late.head().OidAt(1), 2u);
  EXPECT_EQ(late.head().OidAt(2), 4u);
  // The materialized result still shares the base BAT's string heap.
  EXPECT_EQ(late.tail().heap(), b.tail().heap());
}

// ---------------------------------------------------------------------------
// TopN: bounded partial sort must reproduce the stable full-sort prefix.

TEST(TopNTest, TiesBreakTowardEarlierRowsLikeStableSort) {
  // Duplicate tails: 5 at positions 0,2,4 and 3 at positions 1,5.
  Bat b = Bat(Column::MakeOids({0, 1, 2, 3, 4, 5}),
              Column::MakeInts({5, 3, 5, 1, 5, 3}));
  Bat top3 = TopNByTail(b, 3, /*descending=*/true);
  ASSERT_EQ(top3.size(), 3u);
  EXPECT_EQ(top3.head().OidAt(0), 0u);
  EXPECT_EQ(top3.head().OidAt(1), 2u);
  EXPECT_EQ(top3.head().OidAt(2), 4u);
  // Crossing a tie boundary: top-4 takes the earlier of the two 3s.
  Bat top4 = TopNByTail(b, 4, /*descending=*/true);
  ASSERT_EQ(top4.size(), 4u);
  EXPECT_EQ(top4.head().OidAt(3), 1u);
  // Ascending ties as well.
  Bat bottom3 = TopNByTail(b, 3, /*descending=*/false);
  ASSERT_EQ(bottom3.size(), 3u);
  EXPECT_EQ(bottom3.head().OidAt(0), 3u);
  EXPECT_EQ(bottom3.head().OidAt(1), 1u);
  EXPECT_EQ(bottom3.head().OidAt(2), 5u);
}

TEST(TopNTest, BoundedPathMatchesFullSortPrefixOnRandomData) {
  base::Rng rng(4242);
  Bat b = RandomIntBat(2000, 25, &rng);  // dense duplicates
  for (size_t k : {1u, 7u, 100u, 1999u, 2000u, 5000u}) {
    Bat top = TopNByTail(b, k, /*descending=*/true);
    Bat full = SortByTail(b, /*ascending=*/false);
    ASSERT_EQ(top.size(), std::min<size_t>(k, b.size()));
    for (size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(top.head().OidAt(i), full.head().OidAt(i)) << "k=" << k;
      EXPECT_EQ(top.tail().IntAt(i), full.tail().IntAt(i)) << "k=" << k;
    }
  }
}

}  // namespace
}  // namespace mirror::monet
