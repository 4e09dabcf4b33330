// Sharded catalogs and the shard-parallel scatter/gather engine: the
// oid-range fragment layout must partition every void-headed BAT
// exactly, and MIL programs fanned out over shard-local catalogs must
// reproduce the unsharded engine bit for bit across the awkward shapes —
// empty shards, skewed oid ranges and bases, string-heap BATs whose
// fragments share one interned heap, cross-shard joins (broadcast build
// sides), TopN merges with cross-shard ties, and scalar folds over
// shards emptied by selection. Also covers MirrorDb::LoadSharded running
// existing query code sharded transparently.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "mirror/mirror_db.h"
#include "moa/moa_value.h"
#include "moa/query_context.h"
#include "monet/bat_ops.h"
#include "monet/catalog.h"
#include "monet/exec.h"
#include "monet/mil.h"
#include "monet/profiler.h"
#include "monet/worker_pool.h"

namespace mirror::monet {
namespace {

namespace mil = monet::mil;

void ExpectBatsEqual(const Bat& a, const Bat& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.Row(i).first.ToString(), b.Row(i).first.ToString())
        << what << " head row " << i;
    EXPECT_EQ(a.Row(i).second.ToString(), b.Row(i).second.ToString())
        << what << " tail row " << i;
  }
}

/// Runs `program` unsharded and with `num_shards` shards (same thread
/// count) and checks the results are identical; returns the sharded-run
/// kernel stats for profiler assertions.
KernelStats ExpectShardedMatches(const Catalog& catalog,
                                 const mil::Program& program,
                                 size_t num_shards, int threads,
                                 const char* what) {
  mil::ExecOptions plain;
  plain.num_threads = threads;
  plain.num_shards = 1;
  mil::ExecOptions sharded = plain;
  sharded.num_shards = num_shards;
  auto base = mil::ExecutionEngine(&catalog, plain).Run(program);
  EXPECT_TRUE(base.ok()) << what << ": " << base.status().ToString();
  ResetKernelStats();
  auto shard = mil::ExecutionEngine(&catalog, sharded).Run(program);
  KernelStats stats = SnapshotKernelStats();
  EXPECT_TRUE(shard.ok()) << what << ": " << shard.status().ToString();
  if (!base.ok() || !shard.ok()) return stats;
  EXPECT_EQ(base.value().is_scalar, shard.value().is_scalar) << what;
  if (base.value().is_scalar) {
    EXPECT_DOUBLE_EQ(base.value().scalar, shard.value().scalar) << what;
  } else {
    ExpectBatsEqual(*base.value().bat, *shard.value().bat, what);
  }
  return stats;
}

mil::Instr Load(const std::string& name) {
  mil::Instr i;
  i.op = mil::OpCode::kLoadNamed;
  i.name = name;
  return i;
}

// ---------------------------------------------------------------------------
// Catalog layout.

TEST(ShardedCatalogTest, PartitionsVoidHeadedBatsByOidRange) {
  Catalog catalog;
  std::vector<int64_t> vals;
  for (int64_t i = 0; i < 10; ++i) vals.push_back(i * 100);
  catalog.Put("S.val", Bat::DenseInts(vals, /*base=*/5));  // skewed base
  catalog.Put("dim", Bat(Column::MakeInts({1, 2, 3}),
                         Column::MakeDbls({0.1, 0.2, 0.3})));

  const ShardedCatalog* layout = catalog.Shards(4);
  ASSERT_NE(layout, nullptr);
  EXPECT_EQ(layout->num_shards(), 4u);
  // Value-keyed (non-void-headed) BATs are not sharded: they replicate.
  EXPECT_FALSE(layout->IsSharded("dim"));
  EXPECT_EQ(layout->ShardedNames(), std::vector<std::string>{"S.val"});

  const std::vector<ShardRange>* ranges = layout->RangesFor("S.val");
  ASSERT_NE(ranges, nullptr);
  ASSERT_EQ(ranges->size(), 4u);
  // 10 rows over 4 shards with base 5: uneven 2/3/2/3 split, contiguous
  // and covering [5, 15).
  EXPECT_EQ((*ranges)[0].begin, 5u);
  EXPECT_EQ((*ranges)[3].end, 15u);
  size_t total = 0;
  for (size_t s = 0; s < 4; ++s) {
    if (s > 0) EXPECT_EQ((*ranges)[s].begin, (*ranges)[s - 1].end);
    total += (*ranges)[s].size();
    auto frag = layout->shard(s).Get("S.val");
    ASSERT_TRUE(frag.ok());
    EXPECT_EQ(frag.value()->size(), (*ranges)[s].size());
    // Fragment oids stay global: the void base is the range start.
    EXPECT_TRUE(frag.value()->head().is_void());
    EXPECT_EQ(frag.value()->head().void_base(), (*ranges)[s].begin);
    for (size_t i = 0; i < frag.value()->size(); ++i) {
      size_t global_row = (*ranges)[s].begin - 5 + i;
      EXPECT_EQ(frag.value()->tail().IntAt(i),
                static_cast<int64_t>(global_row) * 100);
    }
  }
  EXPECT_EQ(total, 10u);
  // Fragments of one shard-local catalog never contain replicated names.
  EXPECT_FALSE(layout->shard(0).Contains("dim"));
}

TEST(ShardedCatalogTest, EmptyAndUndersizedBatsYieldEmptyShards) {
  Catalog catalog;
  catalog.Put("tiny", Bat::DenseInts({7, 8, 9}));
  catalog.Put("none", Bat::Empty(ValueType::kVoid, ValueType::kDbl));
  const ShardedCatalog* layout = catalog.Shards(8);
  ASSERT_NE(layout, nullptr);
  size_t tiny_rows = 0;
  size_t empty_shards = 0;
  for (size_t s = 0; s < 8; ++s) {
    auto tiny = layout->shard(s).Get("tiny");
    ASSERT_TRUE(tiny.ok());
    tiny_rows += tiny.value()->size();
    if (tiny.value()->empty()) ++empty_shards;
    auto none = layout->shard(s).Get("none");
    ASSERT_TRUE(none.ok());
    EXPECT_TRUE(none.value()->empty());
  }
  EXPECT_EQ(tiny_rows, 3u);
  EXPECT_EQ(empty_shards, 5u);
}

TEST(ShardedCatalogTest, LayoutsAreCachedPerCountAndDropOnMutation) {
  Catalog catalog;
  catalog.Put("a", Bat::DenseInts({1, 2, 3, 4}));
  const ShardedCatalog* two = catalog.Shards(2);
  const ShardedCatalog* four = catalog.Shards(4);
  ASSERT_NE(two, nullptr);
  ASSERT_NE(four, nullptr);
  EXPECT_NE(two, four);                    // counts coexist
  EXPECT_EQ(two, catalog.Shards(2));       // cached
  EXPECT_EQ(catalog.Shards(1), nullptr);   // 1 = unsharded
  catalog.Put("a", Bat::DenseInts({9, 9}));
  const ShardedCatalog* rebuilt = catalog.Shards(2);
  ASSERT_NE(rebuilt, nullptr);
  auto frag = rebuilt->shard(0).Get("a");
  ASSERT_TRUE(frag.ok());
  EXPECT_EQ(frag.value()->tail().IntAt(0), 9);
}

/// Shard s's fragment of `name` in `layout`.
const Bat* Fragment(const ShardedCatalog& layout, size_t s,
                    const std::string& name) {
  return layout.shard(s).Get(name).value().get();
}

TEST(ShardedCatalogTest, MutationsResliceOnlyTheChangedBat) {
  SharedWorkerPool().EnsureWorkers(4);  // zone maps build on the pool
  constexpr size_t kShards = 4;
  std::vector<int64_t> ints(1000);
  for (size_t i = 0; i < ints.size(); ++i) ints[i] = static_cast<int64_t>(i);
  std::vector<std::string> strs;
  for (int i = 0; i < 999; ++i) strs.push_back("w" + std::to_string(i % 37));
  Catalog catalog;
  catalog.Put("A.v", Bat::DenseInts(ints));
  catalog.Put("B.s", Bat::DenseStrs(strs));
  auto first = catalog.SharedShards(kShards);
  ASSERT_NE(first, nullptr);
  std::vector<const BatZones*> a_zones;
  for (size_t s = 0; s < kShards; ++s) {
    a_zones.push_back(first->shard(s).PinZones()->ForName("A.v"));
    ASSERT_NE(a_zones.back(), nullptr);
  }

  // Loading a second set: A and B keep their fragments, ranges and
  // shard-local zone maps.
  catalog.Put("C.v", Bat::DenseInts({7, 8, 9, 10, 11}));
  auto second = catalog.SharedShards(kShards);
  ASSERT_NE(second, nullptr);
  EXPECT_NE(second, first);
  EXPECT_EQ(second->RangesFor("A.v"), first->RangesFor("A.v"));
  EXPECT_EQ(second->RangesFor("B.s"), first->RangesFor("B.s"));
  ASSERT_TRUE(second->IsSharded("C.v"));
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(Fragment(*second, s, "A.v"), Fragment(*first, s, "A.v"));
    EXPECT_EQ(Fragment(*second, s, "B.s"), Fragment(*first, s, "B.s"));
    EXPECT_EQ(second->shard(s).PinZones()->ForName("A.v"), a_zones[s]);
    EXPECT_NE(second->shard(s).PinZones()->ForName("C.v"), nullptr);
  }

  // Appending to A reslices A alone, over its new visible snapshot.
  ASSERT_TRUE(catalog.Append("A.v", Column::MakeInts({5000, 5001})).ok());
  auto third = catalog.SharedShards(kShards);
  ASSERT_NE(third, nullptr);
  size_t a_rows = 0;
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(Fragment(*third, s, "B.s"), Fragment(*first, s, "B.s"));
    EXPECT_EQ(Fragment(*third, s, "C.v"), Fragment(*second, s, "C.v"));
    EXPECT_NE(Fragment(*third, s, "A.v"), Fragment(*first, s, "A.v"));
    a_rows += Fragment(*third, s, "A.v")->size();
  }
  EXPECT_EQ(a_rows, 1002u);
  EXPECT_EQ((*third->RangesFor("A.v"))[kShards - 1].end, 1002u);
  const Bat* last = Fragment(*third, kShards - 1, "A.v");
  EXPECT_EQ(last->tail().IntAt(last->size() - 1), 5001);
  EXPECT_DOUBLE_EQ(
      third->shard(kShards - 1).PinZones()->ForName("A.v")->tail.max, 5001.0);
  // The old layout still reads the old snapshot.
  EXPECT_EQ((*first->RangesFor("A.v"))[kShards - 1].end, 1000u);
}

TEST(ShardedCatalogTest, FragmentsAreViewsOfTheBaseBuffers) {
  constexpr size_t kShards = 4;
  constexpr size_t kRows = 1001;
  std::vector<int64_t> ints(kRows);
  std::vector<std::string> strs(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    ints[i] = static_cast<int64_t>(3 * i);
    strs[i] = "w" + std::to_string(i % 17);
  }
  Catalog catalog;
  catalog.Put("A.v", Bat::DenseInts(ints, /*base=*/50));
  catalog.Put("A.s", Bat::DenseStrs(strs, /*base=*/50));
  BatPtr base_v = catalog.Get("A.v").value();
  BatPtr base_s = catalog.Get("A.s").value();
  const ShardedCatalog* layout = catalog.Shards(kShards);
  ASSERT_NE(layout, nullptr);
  // The layout allocates no column storage: every fragment points into
  // its base BAT's buffer at the fragment's first row.
  std::vector<BatPtr> kept;
  for (size_t s = 0; s < kShards; ++s) {
    const ShardRange range = (*layout->RangesFor("A.v"))[s];
    const size_t lo = range.begin - 50;
    BatPtr v = layout->shard(s).Get("A.v").value();
    BatPtr str = layout->shard(s).Get("A.s").value();
    EXPECT_EQ(v->tail().ints().data(), base_v->tail().ints().data() + lo);
    EXPECT_EQ(str->tail().str_offsets().data(),
              base_s->tail().str_offsets().data() + lo);
    EXPECT_EQ(str->tail().heap(), base_s->tail().heap());
    kept.push_back(std::move(v));
    kept.push_back(std::move(str));
  }

  // Fragments outlive their base: the catalog replaces both BATs, the
  // layout is rebuilt, and the last base pointers go.
  catalog.Put("A.v", Bat::DenseInts({1, 2}));
  catalog.Put("A.s", Bat::DenseStrs({"x", "y"}));
  ASSERT_NE(catalog.Shards(kShards), nullptr);
  base_v.reset();
  base_s.reset();
  size_t row = 0;
  for (size_t s = 0; s < kShards; ++s) {
    const Bat& v = *kept[2 * s];
    const Bat& str = *kept[2 * s + 1];
    for (size_t i = 0; i < v.size(); ++i, ++row) {
      EXPECT_EQ(v.head().OidAt(i), 50 + row);
      EXPECT_EQ(v.tail().IntAt(i), static_cast<int64_t>(3 * row));
      EXPECT_EQ(str.tail().StrAt(i), strs[row]);
    }
  }
  EXPECT_EQ(row, kRows);
}

TEST(ShardedCatalogTest, StringFragmentsShareTheBaseHeap) {
  Catalog catalog;
  catalog.Put("S.u", Bat::DenseStrs({"sun", "sea", "sun", "sky", "sea",
                                     "dune"}));
  auto base = catalog.Get("S.u");
  ASSERT_TRUE(base.ok());
  const ShardedCatalog* layout = catalog.Shards(3);
  ASSERT_NE(layout, nullptr);
  for (size_t s = 0; s < 3; ++s) {
    auto frag = layout->shard(s).Get("S.u");
    ASSERT_TRUE(frag.ok());
    // Shared heap: equal spellings keep equal offsets across shards, so
    // gathered fragments re-merge by offset append, not re-interning.
    EXPECT_EQ(frag.value()->tail().heap(), base.value()->tail().heap());
  }
}

// ---------------------------------------------------------------------------
// Shard-parallel engine equivalence.

/// A 200-row two-column catalog whose `val` distribution is heavily
/// skewed (80% of rows share one value) plus a value-keyed dimension.
Catalog BuildSkewedCatalog() {
  Catalog catalog;
  base::Rng rng(11);
  std::vector<int64_t> val;
  std::vector<double> score;
  std::vector<int64_t> ref;
  for (int i = 0; i < 200; ++i) {
    val.push_back(i % 5 == 0 ? rng.UniformInt(0, 40) : 7);
    score.push_back(rng.UniformDouble(-2.0, 2.0));
    ref.push_back(rng.UniformInt(0, 199));
  }
  catalog.Put("S.val", Bat::DenseInts(val));
  catalog.Put("S.score", Bat::DenseDbls(score));
  catalog.Put("S.ref", Bat::DenseInts(ref));
  std::vector<int64_t> keys;
  std::vector<double> w;
  for (int i = 0; i < 50; ++i) {
    keys.push_back(rng.UniformInt(0, 199));
    w.push_back(rng.UniformDouble(0.0, 1.0));
  }
  catalog.Put("dim", Bat(Column::MakeInts(std::move(keys)),
                         Column::MakeDbls(std::move(w))));
  return catalog;
}

TEST(ShardEngineTest, SelectSemijoinAggregateIsShardLocal) {
  Catalog catalog = BuildSkewedCatalog();
  mil::Program p;
  auto emit = [&p](mil::Instr i) {
    i.dst = p.NewReg();
    return p.Emit(std::move(i));
  };
  int val = emit(Load("S.val"));
  mil::Instr sel;
  sel.op = mil::OpCode::kSelectEq;
  sel.src0 = val;
  sel.imm0 = Value::MakeInt(7);  // skew: most shards keep ~80%
  int selected = emit(std::move(sel));
  int score = emit(Load("S.score"));
  mil::Instr semi;
  semi.op = mil::OpCode::kSemiJoinHead;  // co-sharded sides, same domain
  semi.src0 = score;
  semi.src1 = selected;
  int kept = emit(std::move(semi));
  mil::Instr agg;
  agg.op = mil::OpCode::kSumPerHead;
  agg.src0 = kept;
  p.set_result_reg(emit(std::move(agg)));

  for (size_t shards : {2ul, 4ul, 7ul}) {
    for (int threads : {1, 4}) {
      KernelStats stats = ExpectShardedMatches(catalog, p, shards, threads,
                                               "select-semijoin-agg");
      EXPECT_GT(stats.shard_fanouts, 0u);
      // The whole chain is shard-local and fused: the only fan-in is
      // result delivery, and nothing materializes.
      EXPECT_EQ(stats.materializations, 0u);
      EXPECT_EQ(stats.shard_fanins, 1u);
    }
  }
}

TEST(ShardEngineTest, CrossShardJoinBroadcastsTheBuildSide) {
  Catalog catalog = BuildSkewedCatalog();
  // S.ref's tails are foreign keys into S's own oid domain: the join's
  // build side (S.score, sharded void-headed) must be broadcast because
  // probe tails cross shard boundaries.
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
  sel.imm0 = Value::MakeInt(5);
  int selected = emit(std::move(sel));
  int ref = emit(Load("S.ref"));
  mil::Instr semi;
  semi.op = mil::OpCode::kSemiJoinHead;
  semi.src0 = ref;
  semi.src1 = selected;
  int kept = emit(std::move(semi));
  int score = emit(Load("S.score"));
  mil::Instr join;
  join.op = mil::OpCode::kJoin;
  join.src0 = kept;
  join.src1 = score;
  int joined = emit(std::move(join));
  mil::Instr agg;
  agg.op = mil::OpCode::kSumPerHead;
  agg.src0 = joined;
  p.set_result_reg(emit(std::move(agg)));

  KernelStats stats =
      ExpectShardedMatches(catalog, p, 4, 4, "cross-shard fetch join");
  EXPECT_GT(stats.shard_fanouts, 0u);
  EXPECT_GT(stats.shard_fanins, 0u);  // the broadcast gather

  // Hash-join flavor: a value-keyed (replicated) build side probed by
  // sharded candidates needs no broadcast and exactly one shared build.
  mil::Program q;
  auto emit_q = [&q](mil::Instr i) {
    i.dst = q.NewReg();
    return q.Emit(std::move(i));
  };
  int val_q = emit_q(Load("S.val"));
  mil::Instr sel_q;
  sel_q.op = mil::OpCode::kSelectCmp;
  sel_q.src0 = val_q;
  sel_q.cmp_op = CmpOp::kLe;
  sel_q.imm0 = Value::MakeInt(20);
  int selected_q = emit_q(std::move(sel_q));
  int ref_q = emit_q(Load("S.ref"));
  mil::Instr semi_q;
  semi_q.op = mil::OpCode::kSemiJoinHead;
  semi_q.src0 = ref_q;
  semi_q.src1 = selected_q;
  int kept_q = emit_q(std::move(semi_q));
  int dim = emit_q(Load("dim"));
  mil::Instr join_q;
  join_q.op = mil::OpCode::kJoin;
  join_q.src0 = kept_q;
  join_q.src1 = dim;
  int joined_q = emit_q(std::move(join_q));
  mil::Instr agg_q;
  agg_q.op = mil::OpCode::kSumPerHead;
  agg_q.src0 = joined_q;
  q.set_result_reg(emit_q(std::move(agg_q)));

  stats = ExpectShardedMatches(catalog, q, 4, 4, "replicated-build join");
  EXPECT_GT(stats.shard_fanouts, 0u);
  EXPECT_EQ(stats.materializations, 0u);  // probes consume candidate views
}

TEST(ShardEngineTest, StringHeapBatsAcrossShards) {
  Catalog catalog;
  std::vector<std::string> urls;
  for (int i = 0; i < 37; ++i) {
    urls.push_back(i % 3 == 0 ? "sun" : (i % 3 == 1 ? "sea" : "dune"));
  }
  catalog.Put("S.u", Bat::DenseStrs(urls));

  // Selection over a sharded string column, delivered as a BAT (the
  // gather materializes per-shard candidate views and appends their
  // shared-heap fragments).
  mil::Program p;
  auto emit = [&p](mil::Instr i) {
    i.dst = p.NewReg();
    return p.Emit(std::move(i));
  };
  int u = emit(Load("S.u"));
  mil::Instr sel;
  sel.op = mil::OpCode::kSelectEq;
  sel.src0 = u;
  sel.imm0 = Value::MakeStr("sea");
  p.set_result_reg(emit(std::move(sel)));
  ExpectShardedMatches(catalog, p, 5, 4, "string select");

  // Histogram fan-in over the sharded string column (a global-only op:
  // the input gathers off the base catalog for free).
  mil::Program h;
  auto emit_h = [&h](mil::Instr i) {
    i.dst = h.NewReg();
    return h.Emit(std::move(i));
  };
  int u2 = emit_h(Load("S.u"));
  mil::Instr hist;
  hist.op = mil::OpCode::kCountPerTailValue;
  hist.src0 = u2;
  h.set_result_reg(emit_h(std::move(hist)));
  ExpectShardedMatches(catalog, h, 5, 1, "string histogram");
}

TEST(ShardEngineTest, TopNMergesCrossShardTiesExactly) {
  Catalog catalog;
  // Many duplicate scores spread across shard boundaries: the two-phase
  // merge must keep the stable global tie order.
  std::vector<double> score;
  for (int i = 0; i < 101; ++i) score.push_back((i * 7 % 10) * 1.0);
  catalog.Put("S.score", Bat::DenseDbls(score));
  mil::Program p;
  auto emit = [&p](mil::Instr i) {
    i.dst = p.NewReg();
    return p.Emit(std::move(i));
  };
  int s = emit(Load("S.score"));
  mil::Instr top;
  top.op = mil::OpCode::kTopN;
  top.src0 = s;
  top.n = 17;
  top.flag0 = true;
  p.set_result_reg(emit(std::move(top)));
  for (size_t shards : {2ul, 4ul, 8ul}) {
    ExpectShardedMatches(catalog, p, shards, 4, "topn ties");
  }
  // n larger than the input: the merge degenerates to a full sort.
  mil::Program q;
  auto emit_q = [&q](mil::Instr i) {
    i.dst = q.NewReg();
    return q.Emit(std::move(i));
  };
  int s2 = emit_q(Load("S.score"));
  mil::Instr top2;
  top2.op = mil::OpCode::kTopN;
  top2.src0 = s2;
  top2.n = 500;
  top2.flag0 = false;
  q.set_result_reg(emit_q(std::move(top2)));
  ExpectShardedMatches(catalog, q, 4, 4, "topn oversized");
}

TEST(ShardEngineTest, ScalarFoldsSkipShardsEmptiedBySelection) {
  Catalog catalog;
  // All-negative scores, and a selection that leaves survivors in only
  // one shard: empty shards must contribute nothing to the fold (a 0
  // partial would wrongly beat every real maximum).
  std::vector<double> score(64, -5.0);
  score[3] = -1.25;  // the global max, in shard 0 of any split
  catalog.Put("S.score", Bat::DenseDbls(score));
  mil::Program p;
  auto emit = [&p](mil::Instr i) {
    i.dst = p.NewReg();
    return p.Emit(std::move(i));
  };
  int s = emit(Load("S.score"));
  mil::Instr sel;
  sel.op = mil::OpCode::kSelectCmp;
  sel.src0 = s;
  sel.cmp_op = CmpOp::kLt;
  sel.imm0 = Value::MakeDbl(-1.5);  // drops the max; all shards nonempty
  int lows = emit(std::move(sel));
  mil::Instr fold;
  fold.op = mil::OpCode::kScalarFold;
  fold.src0 = lows;
  fold.fold_op = FoldOp::kMax;
  p.set_result_reg(emit(std::move(fold)));
  ExpectShardedMatches(catalog, p, 4, 4, "fold max all-negative");

  // Now empty ALL shards: the fold must land on the empty-input value.
  mil::Program q;
  auto emit_q = [&q](mil::Instr i) {
    i.dst = q.NewReg();
    return q.Emit(std::move(i));
  };
  int s2 = emit_q(Load("S.score"));
  mil::Instr sel2;
  sel2.op = mil::OpCode::kSelectCmp;
  sel2.src0 = s2;
  sel2.cmp_op = CmpOp::kGt;
  sel2.imm0 = Value::MakeDbl(100.0);
  int none = emit_q(std::move(sel2));
  mil::Instr fold2;
  fold2.op = mil::OpCode::kScalarFold;
  fold2.src0 = none;
  fold2.fold_op = FoldOp::kMax;
  q.set_result_reg(emit_q(std::move(fold2)));
  ExpectShardedMatches(catalog, q, 4, 4, "fold max empty");

  // Scalar sum/count partials add across shards.
  mil::Program r;
  auto emit_r = [&r](mil::Instr i) {
    i.dst = r.NewReg();
    return r.Emit(std::move(i));
  };
  int s3 = emit_r(Load("S.score"));
  mil::Instr sum;
  sum.op = mil::OpCode::kScalarSum;
  sum.src0 = s3;
  r.set_result_reg(emit_r(std::move(sum)));
  ExpectShardedMatches(catalog, r, 4, 1, "scalar sum");
}

TEST(ShardEngineTest, ShardedFilterSidesFromForeignDomainsGatherFully) {
  // Regression: a semijoin whose filter side is sharded but NOT
  // co-sharded (tail membership, or a foreign oid domain) must see the
  // WHOLE filter side on every shard — matching values deliberately
  // live in the "wrong" shard here, so filtering each fragment against
  // only its own counterpart returns nothing.
  Catalog catalog;
  catalog.Put("S.a", Bat::DenseInts({0, 1, 100, 101}));
  catalog.Put("S.b", Bat::DenseInts({100, 101, 0, 1}));
  mil::Program p;
  auto emit = [&p](mil::Instr i) {
    i.dst = p.NewReg();
    return p.Emit(std::move(i));
  };
  int a = emit(Load("S.a"));
  int b = emit(Load("S.b"));
  mil::Instr semi;
  semi.op = mil::OpCode::kSemiJoinTail;
  semi.src0 = a;
  semi.src1 = b;
  p.set_result_reg(emit(std::move(semi)));
  mil::ExecOptions sharded;
  sharded.num_threads = 1;
  sharded.num_shards = 2;
  auto run = mil::ExecutionEngine(&catalog, sharded).Run(p);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().bat->size(), 4u);  // every tail is a member
  ExpectShardedMatches(catalog, p, 2, 4, "cross-shard semijoin.tail");

  // Head membership across differently-sized (incompatible) domains.
  Catalog two;
  two.Put("S.x", Bat::DenseInts({10, 11, 12, 13}));
  two.Put("T.y", Bat::DenseInts({20, 21, 22, 23, 24, 25}));
  mil::Program q;
  auto emit_q = [&q](mil::Instr i) {
    i.dst = q.NewReg();
    return q.Emit(std::move(i));
  };
  int x = emit_q(Load("S.x"));
  int y = emit_q(Load("T.y"));
  mil::Instr head;
  head.op = mil::OpCode::kSemiJoinHead;
  head.src0 = x;
  head.src1 = y;
  q.set_result_reg(emit_q(std::move(head)));
  ExpectShardedMatches(two, q, 2, 1, "foreign-domain semijoin.head");
}

TEST(ShardEngineTest, NonSsaSelfFoldKeepsItsInput) {
  // Regression: folding a register onto itself (dst == src0, a legal
  // non-SSA program) must read the per-shard input sizes before the
  // per-shard write clobbers them — otherwise every shard looks empty
  // and the merge returns the empty-fold value instead of the max.
  Catalog catalog;
  catalog.Put("S.v", Bat::DenseDbls({-5.0, -1.25, -3.0, -4.0}));
  mil::Program p;
  int r0 = p.NewReg();
  mil::Instr load;
  load.op = mil::OpCode::kLoadNamed;
  load.name = "S.v";
  load.dst = r0;
  p.Emit(std::move(load));
  mil::Instr fold;
  fold.op = mil::OpCode::kScalarFold;
  fold.src0 = r0;
  fold.fold_op = FoldOp::kMax;
  fold.dst = r0;  // overwrites its own input
  p.Emit(std::move(fold));
  p.set_result_reg(r0);
  mil::ExecOptions sharded;
  sharded.num_threads = 1;
  sharded.num_shards = 2;
  auto run = mil::ExecutionEngine(&catalog, sharded).Run(p);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_TRUE(run.value().is_scalar);
  EXPECT_DOUBLE_EQ(run.value().scalar, -1.25);
}

TEST(ShardEngineTest, MoreShardsThanRows) {
  Catalog catalog;
  catalog.Put("S.val", Bat::DenseInts({3, 1, 2}));
  mil::Program p;
  auto emit = [&p](mil::Instr i) {
    i.dst = p.NewReg();
    return p.Emit(std::move(i));
  };
  int v = emit(Load("S.val"));
  mil::Instr sel;
  sel.op = mil::OpCode::kSelectCmp;
  sel.src0 = v;
  sel.cmp_op = CmpOp::kGe;
  sel.imm0 = Value::MakeInt(2);
  p.set_result_reg(emit(std::move(sel)));
  ExpectShardedMatches(catalog, p, 8, 4, "more shards than rows");
}

// ---------------------------------------------------------------------------
// Scalar fold kernels (the opcode's definition of truth).

TEST(ScalarFoldKernelTest, FoldsMatchDefinitions) {
  Bat b = Bat::DenseDbls({0.5, -2.0, 0.25, 3.0, -1.0});
  EXPECT_DOUBLE_EQ(ScalarFold(b, FoldOp::kMax), 3.0);
  EXPECT_DOUBLE_EQ(ScalarFold(b, FoldOp::kMin), -2.0);
  EXPECT_DOUBLE_EQ(ScalarFold(b, FoldOp::kProd),
                   0.5 * -2.0 * 0.25 * 3.0 * -1.0);
  Bat probs = Bat::DenseDbls({0.5, 0.25});
  EXPECT_DOUBLE_EQ(ScalarFold(probs, FoldOp::kPor),
                   1.0 - (1.0 - 0.5) * (1.0 - 0.25));
  Bat empty = Bat::Empty(ValueType::kVoid, ValueType::kDbl);
  EXPECT_DOUBLE_EQ(ScalarFold(empty, FoldOp::kMax), 0.0);
  EXPECT_DOUBLE_EQ(ScalarFold(empty, FoldOp::kProd), 1.0);
}

// ---------------------------------------------------------------------------
// MirrorDb: sharded databases open transparently.

TEST(MirrorDbShardingTest, LoadShardedAppliesDefaultShardCount) {
  db::MirrorDb database;
  ASSERT_TRUE(database
                  .Define("define N as SET<TUPLE<Atomic<int>: x, "
                          "Atomic<int>: y>>;")
                  .ok());
  std::vector<moa::MoaValue> objects;
  for (int i = 0; i < 120; ++i) {
    objects.push_back(moa::MoaValue::Tuple(
        {moa::MoaValue::Int(i % 17), moa::MoaValue::Int(i % 5)}));
  }
  std::vector<moa::MoaValue> copy = objects;
  ASSERT_TRUE(database.LoadSharded("N", std::move(objects), 4).ok());
  EXPECT_EQ(database.default_shard_count(), 4u);

  db::MirrorDb plain;
  ASSERT_TRUE(plain
                  .Define("define N as SET<TUPLE<Atomic<int>: x, "
                          "Atomic<int>: y>>;")
                  .ok());
  ASSERT_TRUE(plain.Load("N", std::move(copy)).ok());

  moa::QueryContext ctx;
  const char* queries[] = {
      "map[THIS.x + THIS.y](select[THIS.x >= 3 and THIS.x <= 12](N));",
      "sum(map[THIS.x * 2](select[THIS.y < 3](N)));",
      "max(map[THIS.x - THIS.y](N));",
  };
  for (const char* query : queries) {
    SCOPED_TRACE(query);
    ResetKernelStats();
    auto sharded = database.Query(query, ctx);  // default options: inherit
    KernelStats stats = SnapshotKernelStats();
    auto unsharded = plain.Query(query, ctx);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    ASSERT_TRUE(unsharded.ok()) << unsharded.status().ToString();
    EXPECT_GT(stats.shard_fanouts, 0u);  // ran on the shard engine
    ASSERT_EQ(sharded.value().is_scalar, unsharded.value().is_scalar);
    if (sharded.value().is_scalar) {
      EXPECT_DOUBLE_EQ(sharded.value().scalar.AsDouble(),
                       unsharded.value().scalar.AsDouble());
    } else {
      ExpectBatsEqual(*sharded.value().bat, *unsharded.value().bat, query);
    }
  }

  // An explicit num_shards = 1 pins the unsharded engine.
  db::QueryOptions pinned;
  pinned.exec.num_shards = 1;
  ResetKernelStats();
  ASSERT_TRUE(database.Query(queries[0], ctx, pinned).ok());
  EXPECT_EQ(SnapshotKernelStats().shard_fanouts, 0u);
}

TEST(MirrorDbShardingTest, LoadingASecondSetKeepsTheShardedSetsLayout) {
  db::MirrorDb database;
  ASSERT_TRUE(database.Define("define N as SET<TUPLE<Atomic<int>: x>>;").ok());
  ASSERT_TRUE(database.Define("define P as SET<TUPLE<Atomic<int>: v>>;").ok());
  std::vector<moa::MoaValue> objects;
  for (int i = 0; i < 50000; ++i) {
    objects.push_back(moa::MoaValue::Tuple({moa::MoaValue::Int(i % 997)}));
  }
  ASSERT_TRUE(database.LoadSharded("N", std::move(objects), 4).ok());
  const Catalog& catalog = *database.catalog();
  auto before = catalog.SharedShards(4);
  auto zones = catalog.PinZones();
  ASSERT_TRUE(database
                  .Load("P", {moa::MoaValue::Tuple({moa::MoaValue::Int(1)})})
                  .ok());
  EXPECT_EQ(catalog.PinZones()->ForName("N.x"), zones->ForName("N.x"));
  auto after = catalog.SharedShards(4);
  ASSERT_TRUE(after->IsSharded("P.v"));
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(Fragment(*after, s, "N.x"), Fragment(*before, s, "N.x"));
    EXPECT_EQ(after->shard(s).PinZones()->ForName("N.x"),
              before->shard(s).PinZones()->ForName("N.x"));
  }
  moa::QueryContext ctx;
  auto sum = database.Query("sum(map[THIS.x](select[THIS.x >= 500](N)));", ctx);
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  double want = 0;
  for (int i = 0; i < 50000; ++i) want += i % 997 >= 500 ? i % 997 : 0;
  EXPECT_DOUBLE_EQ(sum.value().scalar.AsDouble(), want);
}

}  // namespace
}  // namespace mirror::monet
