// Zone-map statistics and WAND-style top-k early termination: per-block
// min/max bounds must be exact (including int64 values past 2^53, which
// widen outward in double space), block classification must be sound in
// all three states, the shared top-k threshold must stay -infinity until
// k offers and rise monotonically, and — the property everything above
// exists to protect — pruned execution must reproduce the unpruned
// engines bit for bit: zoned selects, threshold-pruned ranking plans
// with boundary ties, whole-shard prunes, and partition-wise probe
// joins. Also covers the derived-cache invalidation contract: replacing
// a BAT must drop its zone maps so stale bounds can never mis-prune,
// while every BAT a mutation leaves alone keeps its maps, shared.

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "monet/bat.h"
#include "monet/bat_ops.h"
#include "monet/catalog.h"
#include "monet/exec.h"
#include "monet/mil.h"
#include "monet/profiler.h"
#include "monet/worker_pool.h"
#include "monet/zone_map.h"

namespace mirror::monet {
namespace {

namespace mil = monet::mil;

constexpr double kInf = std::numeric_limits<double>::infinity();

void ExpectBatsEqual(const Bat& a, const Bat& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.Row(i).first.ToString(), b.Row(i).first.ToString())
        << what << " head row " << i;
    EXPECT_EQ(a.Row(i).second.ToString(), b.Row(i).second.ToString())
        << what << " tail row " << i;
  }
}

mil::Instr Load(const std::string& name) {
  mil::Instr i;
  i.op = mil::OpCode::kLoadNamed;
  i.name = name;
  return i;
}

// ---------------------------------------------------------------------------
// Zone map construction.

TEST(ZoneMapBuildTest, PerBlockBoundsAreExact) {
  std::vector<double> vals;
  for (size_t i = 0; i < 10; ++i) {
    vals.push_back(static_cast<double>(i) + 0.5);   // block floor + 0.5
    vals.push_back(static_cast<double>(i) - 0.25);  // block min
    vals.push_back(static_cast<double>(i) + 0.75);  // block max
    vals.push_back(static_cast<double>(i));
  }
  ZoneMap z = BuildZoneMap(Column::MakeDbls(vals), /*block_rows=*/4);
  ASSERT_TRUE(z.valid);
  EXPECT_EQ(z.num_blocks(), 10u);
  EXPECT_DOUBLE_EQ(z.min, -0.25);
  EXPECT_DOUBLE_EQ(z.max, 9.75);
  for (size_t b = 0; b < 10; ++b) {
    EXPECT_DOUBLE_EQ(z.block_min[b], static_cast<double>(b) - 0.25) << b;
    EXPECT_DOUBLE_EQ(z.block_max[b], static_cast<double>(b) + 0.75) << b;
  }
  // RangeMax covers exactly the touched blocks.
  EXPECT_DOUBLE_EQ(z.RangeMax(0, 4), 0.75);
  EXPECT_DOUBLE_EQ(z.RangeMax(4, 12), 2.75);
  EXPECT_DOUBLE_EQ(z.RangeMax(0, vals.size()), 9.75);
  EXPECT_EQ(z.BlocksIn(0, 4), 1u);
  EXPECT_EQ(z.BlocksIn(2, 9), 3u);
}

TEST(ZoneMapBuildTest, InvalidColumnsPruneNothing) {
  EXPECT_FALSE(BuildZoneMap(Column::MakeDbls({1.0, std::nan(""), 2.0})).valid);
  EXPECT_FALSE(BuildZoneMap(Column::MakeStrs({"a", "b"})).valid);
  EXPECT_FALSE(BuildZoneMap(Column::MakeDbls({})).valid);
}

TEST(ZoneMapBuildTest, VoidColumnBoundsAreArithmetic) {
  Bat b = Bat::DenseInts(std::vector<int64_t>(20, 7), /*base=*/100);
  BatZones z = BuildBatZones(b, /*block_rows=*/8);
  ASSERT_TRUE(z.head.valid);
  EXPECT_DOUBLE_EQ(z.head.min, 100.0);
  EXPECT_DOUBLE_EQ(z.head.max, 119.0);
  EXPECT_EQ(z.head.num_blocks(), 3u);
  EXPECT_DOUBLE_EQ(z.head.block_min[1], 108.0);
  EXPECT_DOUBLE_EQ(z.head.block_max[2], 119.0);
  ASSERT_TRUE(z.tail.valid);
  EXPECT_DOUBLE_EQ(z.tail.min, 7.0);
  EXPECT_DOUBLE_EQ(z.tail.max, 7.0);
}

TEST(ZoneMapBuildTest, HugeInt64BoundsWidenOutward) {
  // 2^53 + 1 is the first int64 a double cannot represent; bounds must
  // bracket the exact value from both sides.
  int64_t v = (int64_t{1} << 53) + 1;
  EXPECT_LT(DoubleLowerBound(v), static_cast<double>(v) + 1.0);
  EXPECT_LE(DoubleLowerBound(v), static_cast<double>(v));
  EXPECT_GE(DoubleUpperBound(v), static_cast<double>(v));
  EXPECT_GT(DoubleUpperBound(v), DoubleLowerBound(v));
  EXPECT_LE(DoubleLowerBound(-v), static_cast<double>(-v));
  EXPECT_GE(DoubleUpperBound(-v), static_cast<double>(-v));
  // Small values are exact: no widening.
  EXPECT_DOUBLE_EQ(DoubleLowerBound(42), 42.0);
  EXPECT_DOUBLE_EQ(DoubleUpperBound(42), 42.0);
  ZoneMap z = BuildZoneMap(Column::MakeInts({v, -v}));
  ASSERT_TRUE(z.valid);
  EXPECT_LE(z.min, static_cast<double>(-v));
  EXPECT_GE(z.max, static_cast<double>(v));
}

// The classification of the one-block column `c` under `interval`;
// kSome when zone maps cannot decide the interval.
ZoneMatch ClassifyBlock(const Column& c, const SelectInterval& interval) {
  const ZoneMap z = BuildZoneMap(c);
  EXPECT_TRUE(z.valid);
  ZoneInterval outward;
  ZoneInterval inward;
  if (!interval.ZoneIntervals(&outward, &inward)) return ZoneMatch::kSome;
  return ClassifyZone(z.block_min[0], z.block_max[0], outward, inward);
}

TEST(ZoneMapBuildTest, ClassifyZoneTristate) {
  // Block [10, 20] against assorted intervals over a dbl tail.
  const Column dbls = Column::MakeDbls({10, 15, 20});
  auto cmp = [&](CmpOp op, double v) {
    return ClassifyBlock(
        dbls, SelectInterval::Cmp(ValueType::kDbl, op, Value::MakeDbl(v)));
  };
  auto range = [&](double lo, double hi) {
    return ClassifyBlock(
        dbls, SelectInterval::Range(ValueType::kDbl, Value::MakeDbl(lo),
                                    Value::MakeDbl(hi), true, true));
  };
  EXPECT_EQ(cmp(CmpOp::kGe, 25), ZoneMatch::kNone);
  EXPECT_EQ(cmp(CmpOp::kLe, 5), ZoneMatch::kNone);
  EXPECT_EQ(cmp(CmpOp::kGt, 20), ZoneMatch::kNone);
  EXPECT_EQ(cmp(CmpOp::kGe, 15), ZoneMatch::kSome);
  EXPECT_EQ(range(10, 20), ZoneMatch::kAll);
  EXPECT_EQ(range(5, 25), ZoneMatch::kAll);
  EXPECT_EQ(cmp(CmpOp::kGt, 10), ZoneMatch::kSome);
  EXPECT_EQ(cmp(CmpOp::kLt, 20), ZoneMatch::kSome);
  EXPECT_EQ(cmp(CmpOp::kNeq, 30), ZoneMatch::kSome) << "neq is not zoned";

  // Int blocks {2^53} and {2^53 + 4}: their bounds widen one ulp outward
  // ([2^53 - 1, 2^53 + 2] and [2^53 + 2, 2^53 + 6]), and the interval's
  // outward and inward bounds round the same way, so kNone and kAll are
  // only ever answered where they hold.
  const int64_t big = int64_t{1} << 53;
  const Column at = Column::MakeInts({big});
  const Column above = Column::MakeInts({big + 4});
  auto icmp = [](const Column& c, CmpOp op, int64_t v) {
    return ClassifyBlock(
        c, SelectInterval::Cmp(ValueType::kInt, op, Value::MakeInt(v)));
  };
  EXPECT_EQ(icmp(at, CmpOp::kLe, big + 4), ZoneMatch::kAll);
  EXPECT_EQ(icmp(at, CmpOp::kGe, big + 6), ZoneMatch::kNone);
  EXPECT_EQ(icmp(at, CmpOp::kLe, big - 3), ZoneMatch::kNone);
  EXPECT_EQ(icmp(at, CmpOp::kEq, big), ZoneMatch::kSome);
  EXPECT_EQ(icmp(at, CmpOp::kGe, big + 1), ZoneMatch::kSome);
  EXPECT_EQ(icmp(above, CmpOp::kLt, big), ZoneMatch::kNone);
  EXPECT_EQ(icmp(above, CmpOp::kLe, big), ZoneMatch::kSome);
  EXPECT_EQ(icmp(above, CmpOp::kGe, big), ZoneMatch::kAll);
  EXPECT_EQ(icmp(above, CmpOp::kLe, big + 8), ZoneMatch::kAll);
  EXPECT_EQ(icmp(above, CmpOp::kGe, big + 16), ZoneMatch::kNone);
  EXPECT_EQ(icmp(above, CmpOp::kEq, big + 4), ZoneMatch::kSome);
  // Soundness against every int and dbl literal near 2^53: kNone only
  // when the block's value fails, kAll only when it passes.
  for (const int64_t x : {big, big + 4}) {
    const Column c = Column::MakeInts({x});
    for (int64_t d = -12; d <= 12; ++d) {
      for (const Value& v :
           {Value::MakeInt(big + d),
            Value::MakeDbl(static_cast<double>(big + d))}) {
        for (CmpOp op : {CmpOp::kEq, CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                         CmpOp::kGe}) {
          const SelectInterval iv = SelectInterval::Cmp(ValueType::kInt, op, v);
          // The naive oracle's order: exact for an int literal, as
          // doubles for a dbl one.
          const bool lt = Value::MakeInt(x) < v;
          const bool eq = Value::MakeInt(x) == v;
          const bool kept = op == CmpOp::kEq   ? eq
                            : op == CmpOp::kLt ? lt
                            : op == CmpOp::kLe ? lt || eq
                            : op == CmpOp::kGt ? !lt && !eq
                                               : !lt;
          const ZoneMatch m = ClassifyBlock(c, iv);
          SCOPED_TRACE(std::to_string(x) + " " + v.ToString());
          if (m == ZoneMatch::kNone) {
            EXPECT_FALSE(kept);
          }
          if (m == ZoneMatch::kAll) {
            EXPECT_TRUE(kept);
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Top-k threshold.

TEST(TopKThresholdTest, StaysUnboundedUntilKOffersThenRisesMonotonically) {
  TopKThreshold t(3);
  EXPECT_EQ(t.bound(), -kInf);
  t.Offer({0.5, 0.2});
  EXPECT_EQ(t.bound(), -kInf) << "only 2 of 3 scores offered";
  t.Offer({0.9});
  EXPECT_DOUBLE_EQ(t.bound(), 0.2) << "3rd best of {0.9, 0.5, 0.2}";
  t.Offer({0.1});
  EXPECT_DOUBLE_EQ(t.bound(), 0.2) << "a losing offer cannot lower it";
  t.Offer({0.7, std::nan("")});
  EXPECT_DOUBLE_EQ(t.bound(), 0.5) << "NaN ignored; {0.9, 0.7, 0.5}";
  t.Offer({0.6, 0.65});
  EXPECT_DOUBLE_EQ(t.bound(), 0.65);
}

// ---------------------------------------------------------------------------
// Zoned selection pruning.

TEST(ZonePruneTest, ZonedSelectsMatchUnzonedAndSkipBlocks) {
  // Values clustered by position so block bounds are tight: block b holds
  // values in [100 b, 100 b + 50].
  size_t n = kZoneBlockRows * 6;
  std::vector<double> vals(n);
  base::Rng rng(7);
  for (size_t i = 0; i < n; ++i) {
    vals[i] = static_cast<double>(i / kZoneBlockRows) * 100.0 +
              rng.UniformDouble() * 50.0;
  }
  Catalog catalog;
  catalog.Put("S.val", Bat::DenseDbls(vals));

  for (int threads : {1, 4}) {
    mil::Program p;
    auto emit = [&p](mil::Instr i) {
      i.dst = p.NewReg();
      return p.Emit(std::move(i));
    };
    int val = emit(Load("S.val"));
    mil::Instr sel;
    sel.op = mil::OpCode::kSelectCmp;
    sel.src0 = val;
    sel.cmp_op = CmpOp::kGe;
    sel.imm0 = Value::MakeDbl(400.0);  // only blocks 4 and 5 can match
    p.set_result_reg(emit(std::move(sel)));

    mil::ExecOptions zoned;
    zoned.num_threads = threads;
    mil::ExecOptions unzoned = zoned;
    unzoned.zone_maps = false;

    ResetKernelStats();
    auto with = mil::ExecutionEngine(&catalog, zoned).Run(p);
    KernelStats stats = SnapshotKernelStats();
    auto without = mil::ExecutionEngine(&catalog, unzoned).Run(p);
    ASSERT_TRUE(with.ok()) << with.status().ToString();
    ASSERT_TRUE(without.ok()) << without.status().ToString();
    ExpectBatsEqual(*with.value().bat, *without.value().bat, "zoned select");
    EXPECT_EQ(with.value().bat->size(), kZoneBlockRows * 2);
    EXPECT_GE(stats.zone_blocks_skipped, 4u) << "threads=" << threads;
  }
}

TEST(ZonePruneTest, IntEqualitySelectNeverTrustsBlockWideMatches) {
  // A block whose [min, max] collapses to the probe value must still be
  // scanned for equality (kAll is downgraded): rows equal in double
  // space need not be equal as int64.
  std::vector<int64_t> vals(kZoneBlockRows * 2, 77);
  vals[kZoneBlockRows] = 78;  // one mismatch inside an all-77 block
  Catalog catalog;
  catalog.Put("S.v", Bat::DenseInts(vals));
  mil::Program p;
  auto emit = [&p](mil::Instr i) {
    i.dst = p.NewReg();
    return p.Emit(std::move(i));
  };
  int v = emit(Load("S.v"));
  mil::Instr sel;
  sel.op = mil::OpCode::kSelectEq;
  sel.src0 = v;
  sel.imm0 = Value::MakeInt(77);
  p.set_result_reg(emit(std::move(sel)));
  auto got = mil::ExecutionEngine(&catalog, {}).Run(p);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().bat->size(), vals.size() - 1);
}

// ---------------------------------------------------------------------------
// Top-k pruned ranking plans.

// A score column whose top scores sit in the first block (so a
// sequential scan raises the threshold early) with exact-tie rows at the
// k'th boundary scattered into later blocks: stable tie order is the
// bit-identity acid test.
std::vector<double> RankingScores(size_t n) {
  std::vector<double> scores(n);
  base::Rng rng(99);
  for (size_t i = 0; i < n; ++i) {
    scores[i] = 0.05 + rng.UniformDouble() * 0.2;  // background noise
  }
  for (size_t i = 0; i < 12; ++i) scores[i] = 0.9;  // spike, k'th score ties
  // Planted only where they fit: shorter callers get the spike alone.
  if (kZoneBlockRows * 3 + 17 < n) {
    scores[kZoneBlockRows * 3 + 17] = 0.9;  // boundary tie, late block
  }
  if (kZoneBlockRows * 4 + 5 < n) {
    scores[kZoneBlockRows * 4 + 5] = 0.95;  // a winner past the spike
  }
  return scores;
}

mil::Program RankingPlan(const std::string& name, int64_t k) {
  mil::Program p;
  auto emit = [&p](mil::Instr i) {
    i.dst = p.NewReg();
    return p.Emit(std::move(i));
  };
  int s = emit(Load(name));
  mil::Instr agg;
  agg.op = mil::OpCode::kProdPerHead;
  agg.src0 = s;
  int ranked = emit(std::move(agg));
  mil::Instr top;
  top.op = mil::OpCode::kTopN;
  top.src0 = ranked;
  top.n = k;
  top.flag0 = true;  // descending: a ranking
  p.set_result_reg(emit(std::move(top)));
  return p;
}

TEST(TopKPruneTest, PrunedRankingMatchesNaiveExecutorBitForBit) {
  Catalog catalog;
  catalog.Put("S.score", Bat::DenseDbls(RankingScores(kZoneBlockRows * 6)));
  for (int64_t k : {1, 10, 64}) {
    mil::Program p = RankingPlan("S.score", k);
    auto naive = mil::Executor(&catalog).Run(p);
    ASSERT_TRUE(naive.ok()) << naive.status().ToString();
    ASSERT_EQ(naive.value().bat->size(), static_cast<size_t>(k));
    for (int threads : {1, 4}) {
      for (size_t shards : {1ul, 4ul}) {
        mil::ExecOptions opts;
        opts.num_threads = threads;
        opts.num_shards = shards;
        auto pruned = mil::ExecutionEngine(&catalog, opts).Run(p);
        ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
        ExpectBatsEqual(*naive.value().bat, *pruned.value().bat,
                        "pruned ranking");
      }
    }
  }
}

TEST(TopKPruneTest, SequentialScanSkipsBlocksBehindTheThreshold) {
  // Single-threaded unsharded: the spike block is scanned first and
  // raises the bound to 0.9, so later all-noise blocks are provably
  // losing and must be skipped (the tie and winner blocks stay).
  Catalog catalog;
  catalog.Put("S.score", Bat::DenseDbls(RankingScores(kZoneBlockRows * 6)));
  catalog.EnsureZones();
  mil::Program p = RankingPlan("S.score", 10);
  mil::ExecOptions opts;
  opts.num_threads = 1;
  opts.num_shards = 1;
  ResetKernelStats();
  auto pruned = mil::ExecutionEngine(&catalog, opts).Run(p);
  ASSERT_TRUE(pruned.ok());
  KernelStats stats = SnapshotKernelStats();
  EXPECT_GE(stats.zone_blocks_skipped, 3u);
  ResetKernelStats();
  mil::ExecOptions off = opts;
  off.topk_prune = false;
  auto unpruned = mil::ExecutionEngine(&catalog, off).Run(p);
  ASSERT_TRUE(unpruned.ok());
  EXPECT_EQ(SnapshotKernelStats().zone_blocks_skipped, 0u);
  ExpectBatsEqual(*unpruned.value().bat, *pruned.value().bat, "prune knob");
}

TEST(TopKPruneTest, WholeShardsPruneWhenTheirBoundsCannotWin) {
  // All winners in shard 0; shards 1..3 hold only background noise.
  // Sequential shard order (1 thread) guarantees the threshold is full
  // before the noise shards run, so each is dropped whole.
  size_t n = kZoneBlockRows * 8;
  std::vector<double> scores(n);
  base::Rng rng(13);
  for (size_t i = 0; i < n; ++i) scores[i] = 0.05 + rng.UniformDouble() * 0.2;
  for (size_t i = 0; i < 16; ++i) scores[i] = 0.8 + 0.01 * (i % 4);
  Catalog catalog;
  catalog.Put("S.score", Bat::DenseDbls(scores));
  mil::Program p = RankingPlan("S.score", 10);
  mil::ExecOptions opts;
  opts.num_threads = 1;
  opts.num_shards = 4;
  ResetKernelStats();
  auto pruned = mil::ExecutionEngine(&catalog, opts).Run(p);
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(SnapshotKernelStats().topk_shards_pruned, 3u);
  auto naive = mil::Executor(&catalog).Run(p);
  ASSERT_TRUE(naive.ok());
  ExpectBatsEqual(*naive.value().bat, *pruned.value().bat, "shard prune");
}

TEST(TopKPruneTest, SharedAggregatesAreNeverPruned) {
  // The aggregate feeds both the TopN and a scalar fold: dropping losing
  // rows would corrupt the fold, so the plan must run unpruned — same
  // fold either way.
  Catalog catalog;
  catalog.Put("S.score", Bat::DenseDbls(RankingScores(kZoneBlockRows * 2)));
  mil::Program p;
  auto emit = [&p](mil::Instr i) {
    i.dst = p.NewReg();
    return p.Emit(std::move(i));
  };
  int s = emit(Load("S.score"));
  mil::Instr agg;
  agg.op = mil::OpCode::kProdPerHead;
  agg.src0 = s;
  int ranked = emit(std::move(agg));
  mil::Instr top;
  top.op = mil::OpCode::kTopN;
  top.src0 = ranked;
  top.n = 5;
  top.flag0 = true;
  emit(std::move(top));
  mil::Instr fold;
  fold.op = mil::OpCode::kScalarFold;
  fold.src0 = ranked;
  fold.fold_op = FoldOp::kMax;
  p.set_result_reg(emit(std::move(fold)));

  auto naive = mil::Executor(&catalog).Run(p);
  auto engine = mil::ExecutionEngine(&catalog, {}).Run(p);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine.value().is_scalar);
  EXPECT_DOUBLE_EQ(naive.value().scalar, engine.value().scalar);
}

// ---------------------------------------------------------------------------
// Derived-cache invalidation.

TEST(ZoneInvalidationTest, ReplacingABatDropsItsZoneMapsAndShardLayouts) {
  Catalog catalog;
  catalog.Put("S.v", Bat::DenseDbls(std::vector<double>(kZoneBlockRows, 1.0)));
  const BatZones* before = catalog.Zones("S.v");
  ASSERT_NE(before, nullptr);
  EXPECT_DOUBLE_EQ(before->tail.max, 1.0);
  ASSERT_NE(catalog.Shards(2), nullptr);

  // Replace with data whose bounds differ: stale statistics claiming
  // max == 1.0 would prune the new 9.0 rows out of existence.
  std::vector<double> fresh(kZoneBlockRows, 1.0);
  for (size_t i = kZoneBlockRows / 2; i < fresh.size(); ++i) fresh[i] = 9.0;
  catalog.Put("S.v", Bat::DenseDbls(fresh));
  const BatZones* after = catalog.Zones("S.v");
  ASSERT_NE(after, nullptr);
  EXPECT_DOUBLE_EQ(after->tail.max, 9.0) << "zone maps rebuilt after Put";

  // End to end: a zoned select for the new rows finds every one.
  mil::Program p;
  auto emit = [&p](mil::Instr i) {
    i.dst = p.NewReg();
    return p.Emit(std::move(i));
  };
  int v = emit(Load("S.v"));
  mil::Instr sel;
  sel.op = mil::OpCode::kSelectCmp;
  sel.src0 = v;
  sel.cmp_op = CmpOp::kGt;
  sel.imm0 = Value::MakeDbl(5.0);
  p.set_result_reg(emit(std::move(sel)));
  auto got = mil::ExecutionEngine(&catalog, {}).Run(p);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().bat->size(), kZoneBlockRows / 2);
}

TEST(ZoneInvalidationTest, MutationsRebuildOnlyTheChangedBatsZoneMaps) {
  SharedWorkerPool().EnsureWorkers(4);  // the parallel builders run
  // Clustered values, so block b holds [10 b, 10 b + 9].
  const size_t n = 40 * kZoneBlockRows;
  std::vector<int64_t> clustered(n);
  for (size_t i = 0; i < n; ++i) {
    clustered[i] = static_cast<int64_t>(i / kZoneBlockRows) * 10 +
                   static_cast<int64_t>(i % 10);
  }
  Catalog catalog;
  catalog.Put("A.v", Bat::DenseInts(clustered));
  catalog.Put("B.v", Bat::DenseInts(clustered));
  Catalog::ZoneSnapshot first = catalog.PinZones();
  const BatZones* a = first->ForName("A.v");
  const BatZones* b = first->ForName("B.v");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->tail.num_blocks(), 40u);
  EXPECT_DOUBLE_EQ(b->tail.max, 399.0);

  // Loading a second set keeps both maps, shared.
  catalog.Put("C.v", Bat::DenseInts({1, 2, 3}));
  Catalog::ZoneSnapshot second = catalog.PinZones();
  EXPECT_NE(second, first);
  EXPECT_EQ(second->ForName("A.v"), a);
  EXPECT_EQ(second->ForName("B.v"), b);
  ASSERT_NE(second->ForName("C.v"), nullptr);

  // Appending to B rebuilds B's maps alone.
  ASSERT_TRUE(
      catalog.Append("B.v", Column::MakeInts(std::vector<int64_t>(
                                kZoneBlockRows, 5000)))
          .ok());
  Catalog::ZoneSnapshot third = catalog.PinZones();
  EXPECT_EQ(third->ForName("A.v"), a);
  EXPECT_EQ(third->ForName("C.v"), second->ForName("C.v"));
  const BatZones* grown = third->ForName("B.v");
  ASSERT_NE(grown, nullptr);
  EXPECT_NE(grown, b);
  EXPECT_EQ(grown->tail.num_blocks(), 41u);
  EXPECT_DOUBLE_EQ(grown->tail.max, 5000.0);
  EXPECT_EQ(third->ForBat(catalog.Get("B.v").value().get()), grown);
  // The pinned older snapshot still describes the older data.
  EXPECT_DOUBLE_EQ(first->ForName("B.v")->tail.max, 399.0);

  // The rebuilt maps prune soundly: a select for the appended rows finds
  // all of them and skips every old block.
  mil::Program p;
  auto emit = [&p](mil::Instr i) {
    i.dst = p.NewReg();
    return p.Emit(std::move(i));
  };
  int v = emit(Load("B.v"));
  mil::Instr sel;
  sel.op = mil::OpCode::kSelectCmp;
  sel.src0 = v;
  sel.cmp_op = CmpOp::kGt;
  sel.imm0 = Value::MakeInt(1000);
  p.set_result_reg(emit(std::move(sel)));
  mil::ExecOptions options;
  options.num_threads = 4;
  ResetKernelStats();
  auto got = mil::ExecutionEngine(&catalog, options).Run(p);
  KernelStats stats = SnapshotKernelStats();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value().bat->size(), kZoneBlockRows);
  EXPECT_GE(stats.zone_blocks_skipped, 40u);
}

TEST(ZoneMapBuildTest, ParallelBuildMatchesSequential) {
  SharedWorkerPool().EnsureWorkers(4);
  base::Rng rng(3);
  std::vector<int64_t> ints(37 * kZoneBlockRows + 5);
  for (int64_t& x : ints) x = static_cast<int64_t>(rng.Uniform(1 << 20));
  std::vector<double> dbls(ints.begin(), ints.end());
  for (const Column& c :
       {Column::MakeInts(ints), Column::MakeDbls(dbls)}) {
    const ZoneMap seq = BuildZoneMap(c);
    const ZoneMap par = BuildZoneMap(c, kZoneBlockRows, &SharedWorkerPool());
    ASSERT_TRUE(par.valid);
    EXPECT_EQ(par.block_min, seq.block_min);
    EXPECT_EQ(par.block_max, seq.block_max);
    EXPECT_EQ(par.min, seq.min);
    EXPECT_EQ(par.max, seq.max);
  }
  dbls[20 * kZoneBlockRows] = std::nan("");
  EXPECT_FALSE(
      BuildZoneMap(Column::MakeDbls(dbls), kZoneBlockRows, &SharedWorkerPool())
          .valid);
}

// ---------------------------------------------------------------------------
// Partition-wise probe joins.

TEST(PartitionWiseJoinTest, MatchesLegacyJoinAndCountsProbePartitions) {
  base::Rng rng(21);
  std::vector<int64_t> probes;
  std::vector<int64_t> keys;
  std::vector<double> payload;
  for (size_t i = 0; i < 6000; ++i) probes.push_back(rng.UniformInt(0, 300));
  for (size_t i = 0; i < 900; ++i) {
    keys.push_back(rng.UniformInt(0, 300));  // duplicate build keys
    payload.push_back(static_cast<double>(i) * 0.25);
  }
  Bat l = Bat::DenseInts(probes);
  Bat r(Column::MakeInts(keys), Column::MakeDbls(payload));

  WorkerPool pool;
  pool.EnsureWorkers(4);
  MorselExec mx{&pool, /*morsel_size=*/512, /*radix_partitions=*/8};
  ResetKernelStats();
  Bat radix = Join(l, r, mx);
  KernelStats stats = SnapshotKernelStats();
  ExpectBatsEqual(JoinLegacy(l, r), radix, "partition-wise probe join");
  EXPECT_GE(stats.probe_partitions, 8u)
      << "a 6000-row probe side over 8 partitions must radix-cluster";

  // Below the partition-wise threshold the classic probe runs: same rows.
  std::vector<int64_t> tiny(probes.begin(), probes.begin() + 100);
  Bat lt = Bat::DenseInts(tiny);
  ExpectBatsEqual(JoinLegacy(lt, r), Join(lt, r, mx), "small probe");
}

}  // namespace
}  // namespace mirror::monet
