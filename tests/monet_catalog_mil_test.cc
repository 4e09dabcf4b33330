// Catalog persistence round-trips, MIL program construction/execution,
// and the vectorized ExecutionEngine (candidate pipelines, DAG
// scheduling, session plan cache).

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <string_view>
#include <thread>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "monet/catalog.h"
#include "monet/exec.h"
#include "monet/mil.h"
#include "monet/profiler.h"

namespace mirror::monet {
namespace {

std::string TempDir(const char* tag) {
  std::string dir =
      (std::filesystem::temp_directory_path() /
       (std::string("mirror_catalog_") + tag + "_" +
        std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(CatalogTest, RegisterGetDrop) {
  Catalog catalog;
  ASSERT_TRUE(catalog.Register("a", Bat::DenseInts({1, 2})).ok());
  EXPECT_FALSE(catalog.Register("a", Bat::DenseInts({3})).ok());
  auto bat = catalog.Get("a");
  ASSERT_TRUE(bat.ok());
  EXPECT_EQ(bat.value()->size(), 2u);
  EXPECT_FALSE(catalog.Get("missing").ok());
  EXPECT_TRUE(catalog.Drop("a").ok());
  EXPECT_FALSE(catalog.Drop("a").ok());
}

TEST(CatalogTest, PutReplaces) {
  Catalog catalog;
  catalog.Put("x", Bat::DenseInts({1}));
  catalog.Put("x", Bat::DenseInts({1, 2, 3}));
  EXPECT_EQ(catalog.Get("x").value()->size(), 3u);
  EXPECT_EQ(catalog.Names(), std::vector<std::string>{"x"});
}

TEST(CatalogTest, PersistenceRoundTripAllTypes) {
  std::string dir = TempDir("roundtrip");
  {
    Catalog catalog;
    catalog.Put("ints", Bat::DenseInts({-1, 0, 42}));
    catalog.Put("dbls", Bat::DenseDbls({0.5, -2.25}));
    catalog.Put("strs", Bat::DenseStrs({"alpha", "beta", "alpha"}));
    catalog.Put("oids",
                Bat(Column::MakeOids({7, 8}), Column::MakeOids({1, 2})));
    ASSERT_TRUE(catalog.SaveTo(dir).ok());
  }
  Catalog restored;
  ASSERT_TRUE(restored.LoadFrom(dir).ok());
  EXPECT_EQ(restored.size(), 4u);
  auto ints = restored.Get("ints").value();
  EXPECT_EQ(ints->tail().IntAt(2), 42);
  EXPECT_TRUE(ints->head().is_void());
  auto strs = restored.Get("strs").value();
  EXPECT_EQ(strs->tail().StrAt(0), "alpha");
  EXPECT_EQ(strs->tail().StrAt(2), "alpha");
  EXPECT_EQ(strs->tail().StrOffsetAt(0), strs->tail().StrOffsetAt(2));
  auto dbls = restored.Get("dbls").value();
  EXPECT_DOUBLE_EQ(dbls->tail().DblAt(1), -2.25);
  std::filesystem::remove_all(dir);
}

/// True if equal spellings have equal offsets across all rows of `c`
/// (and, since one heap dedups, unequal spellings unequal offsets).
bool OffsetsMatchSpellings(const Column& c) {
  std::map<std::string_view, uint32_t> offset_of;
  std::map<uint32_t, std::string_view> spelling_of;
  for (size_t i = 0; i < c.size(); ++i) {
    const uint32_t off = c.StrOffsetAt(i);
    if (offset_of.emplace(c.StrAt(i), off).first->second != off ||
        spelling_of.emplace(off, c.StrAt(i)).first->second != c.StrAt(i)) {
      return false;
    }
  }
  return true;
}

TEST(CatalogTest, StringAppendsInternOnlyChunkRowsIntoACopyOfTheBase) {
  Catalog catalog;
  catalog.Put("s", Bat::DenseStrs({"a", "b", "a", "c"}));
  const BatPtr base = catalog.Get("s").value();
  const std::string base_bytes = base->tail().heap()->buffer();

  ASSERT_TRUE(catalog.Append("s", Column::MakeStrs({"b", "d", "d"})).ok());
  const BatPtr first = catalog.Get("s").value();
  ASSERT_TRUE(catalog.Append("s", Column::MakeStrs({"e", "a", "d"})).ok());
  const BatPtr second = catalog.Get("s").value();

  const std::vector<std::string> want = {"a", "b", "a", "c", "b",
                                         "d", "d", "e", "a", "d"};
  ASSERT_EQ(first->size(), 7u);
  ASSERT_EQ(second->size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(second->tail().StrAt(i), want[i]) << i;
    if (i < first->size()) EXPECT_EQ(first->tail().StrAt(i), want[i]) << i;
  }
  EXPECT_TRUE(OffsetsMatchSpellings(first->tail()));
  EXPECT_TRUE(OffsetsMatchSpellings(second->tail()));
  // Base rows keep their offsets; the base heap and BAT are untouched.
  for (size_t i = 0; i < base->size(); ++i) {
    EXPECT_EQ(second->tail().StrOffsetAt(i), base->tail().StrOffsetAt(i));
  }
  EXPECT_EQ(base->size(), 4u);
  EXPECT_EQ(base->tail().heap()->buffer(), base_bytes);

  // Deleted rows drop out of the merged snapshot; the rest stay aligned.
  ASSERT_TRUE(catalog.DeleteRows("s", {1, 5}).ok());
  const BatPtr third = catalog.Get("s").value();
  const std::vector<std::string> kept = {"a", "a", "c", "b",
                                         "d", "e", "a", "d"};
  ASSERT_EQ(third->size(), kept.size());
  for (size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(third->tail().StrAt(i), kept[i]) << i;
  }
  EXPECT_TRUE(OffsetsMatchSpellings(third->tail()));
  EXPECT_EQ(base->tail().heap()->buffer(), base_bytes);
}

// Readers pin snapshots while a writer appends string chunks (run under
// ThreadSanitizer in CI): every snapshot is a prefix of the writer's
// sequence with one offset per spelling, and the base heap stays frozen.
TEST(CatalogTest, ConcurrentStringAppendsKeepSnapshotsConsistent) {
  constexpr int kChunks = 200;
  constexpr int kReaders = 4;
  std::vector<std::string> seq;
  for (int i = 0; i < 50; ++i) seq.push_back("base" + std::to_string(i % 20));
  const size_t base_rows = seq.size();
  std::vector<std::vector<std::string>> chunks(kChunks);
  for (int k = 0; k < kChunks; ++k) {
    chunks[k] = {"new" + std::to_string(k), "base" + std::to_string(k % 20),
                 "new" + std::to_string(k / 2), "rep" + std::to_string(k % 3)};
    seq.insert(seq.end(), chunks[k].begin(), chunks[k].end());
  }

  Catalog catalog;
  catalog.Put("s", Bat::DenseStrs(std::vector<std::string>(
                       seq.begin(), seq.begin() + base_rows)));
  const BatPtr base = catalog.Get("s").value();
  const std::string base_bytes = base->tail().heap()->buffer();

  std::atomic<bool> done{false};
  std::atomic<int> bad_snapshots{0};
  std::atomic<int> snapshots{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      do {
        const BatPtr snap = catalog.Get("s").value();
        const Column& tail = snap->tail();
        bool ok = tail.size() <= seq.size() && OffsetsMatchSpellings(tail);
        for (size_t i = 0; ok && i < tail.size(); ++i) {
          ok = tail.StrAt(i) == seq[i];
        }
        if (!ok) bad_snapshots.fetch_add(1);
        snapshots.fetch_add(1);
      } while (!done.load());
    });
  }
  for (const std::vector<std::string>& chunk : chunks) {
    ASSERT_TRUE(catalog.Append("s", Column::MakeStrs(chunk)).ok());
  }
  done.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(bad_snapshots.load(), 0);
  EXPECT_GE(snapshots.load(), kReaders);
  const BatPtr last = catalog.Get("s").value();
  ASSERT_EQ(last->size(), seq.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    ASSERT_EQ(last->tail().StrAt(i), seq[i]) << i;
  }
  EXPECT_TRUE(OffsetsMatchSpellings(last->tail()));
  EXPECT_EQ(base->tail().heap()->buffer(), base_bytes);
}

TEST(CatalogTest, LoadFromMissingDirFails) {
  Catalog catalog;
  EXPECT_FALSE(catalog.LoadFrom("/nonexistent/mirror/dir").ok());
}

TEST(MilTest, ProgramExecutesAgainstCatalog) {
  Catalog catalog;
  catalog.Put("nums", Bat::DenseInts({5, 1, 7, 3}));
  mil::Program prog;
  mil::Instr load;
  load.op = mil::OpCode::kLoadNamed;
  load.name = "nums";
  load.dst = prog.NewReg();
  prog.Emit(load);
  mil::Instr select;
  select.op = mil::OpCode::kSelectCmp;
  select.cmp_op = CmpOp::kGt;
  select.imm0 = Value::MakeInt(2);
  select.src0 = load.dst;
  select.dst = prog.NewReg();
  prog.Emit(select);
  mil::Instr sum;
  sum.op = mil::OpCode::kScalarSum;
  sum.src0 = select.dst;
  sum.dst = prog.NewReg();
  prog.Emit(sum);
  prog.set_result_reg(sum.dst);

  mil::Executor executor(&catalog);
  auto result = executor.Run(prog);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().is_scalar);
  EXPECT_DOUBLE_EQ(result.value().scalar, 15.0);  // 5 + 7 + 3
}

TEST(MilTest, MissingBatReportsNotFound) {
  Catalog catalog;
  mil::Program prog;
  mil::Instr load;
  load.op = mil::OpCode::kLoadNamed;
  load.name = "ghost";
  load.dst = prog.NewReg();
  prog.Emit(load);
  prog.set_result_reg(load.dst);
  auto result = mil::Executor(&catalog).Run(prog);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), base::StatusCode::kNotFound);
}

TEST(MilTest, DisassemblyMentionsOpcodesAndRegisters) {
  mil::Program prog;
  mil::Instr load;
  load.op = mil::OpCode::kLoadNamed;
  load.name = "postings";
  load.dst = prog.NewReg();
  prog.Emit(load);
  prog.set_result_reg(load.dst);
  std::string text = prog.ToString();
  EXPECT_NE(text.find("r0 := load(\"postings\")"), std::string::npos);
  EXPECT_NE(text.find("return r0"), std::string::npos);
}

TEST(MilTest, DisassemblyShowsOperatorsImmediatesAndInclusivity) {
  // year >= 1980 and rating < 5 compile to the same opcode; EXPLAIN must
  // tell them apart.
  mil::Instr ge;
  ge.op = mil::OpCode::kSelectCmp;
  ge.dst = 1;
  ge.src0 = 0;
  ge.cmp_op = CmpOp::kGe;
  ge.imm0 = Value::MakeInt(1980);
  EXPECT_EQ(ge.ToString(), "r1 := select.cmp(r0, >=, int:1980)");
  mil::Instr lt = ge;
  lt.cmp_op = CmpOp::kLt;
  lt.imm0 = Value::MakeInt(5);
  EXPECT_EQ(lt.ToString(), "r1 := select.cmp(r0, <, int:5)");
  mil::Instr gt = ge;
  gt.cmp_op = CmpOp::kGt;
  EXPECT_NE(gt.ToString(), ge.ToString());

  // Inclusivity of each range bound.
  mil::Instr range;
  range.op = mil::OpCode::kSelectRange;
  range.dst = 2;
  range.src0 = 0;
  range.imm0 = Value::MakeInt(1);
  range.imm1 = Value::MakeInt(9);
  range.flag0 = true;
  range.flag1 = false;
  EXPECT_EQ(range.ToString(), "r2 := select.range(r0, [int:1, int:9))");
  std::set<std::string> spellings;
  for (bool lo : {false, true}) {
    for (bool hi : {false, true}) {
      range.flag0 = lo;
      range.flag1 = hi;
      spellings.insert(range.ToString());
    }
  }
  EXPECT_EQ(spellings.size(), 4u);

  // The arithmetic operator of the three binary-op opcodes.
  for (mil::OpCode op : {mil::OpCode::kMapBinary,
                         mil::OpCode::kMapBinaryScalar,
                         mil::OpCode::kScalarBin}) {
    mil::Instr add;
    add.op = op;
    add.dst = 3;
    add.src0 = 0;
    if (op == mil::OpCode::kMapBinary) add.src1 = 1;
    add.imm0 = Value::MakeDbl(2.0);
    add.bin_op = BinOp::kAdd;
    mil::Instr mul = add;
    mul.bin_op = BinOp::kMul;
    EXPECT_NE(add.ToString(), mul.ToString()) << add.ToString();
    EXPECT_NE(mul.ToString().find("*"), std::string::npos) << mul.ToString();
  }

  // The unary function of map.un and the constant of fill.
  mil::Instr log;
  log.op = mil::OpCode::kMapUnary;
  log.dst = 4;
  log.src0 = 0;
  log.un_op = UnOp::kLog;
  mil::Instr exp = log;
  exp.un_op = UnOp::kExp;
  EXPECT_EQ(log.ToString(), "r4 := map.un(r0, log)");
  EXPECT_EQ(exp.ToString(), "r4 := map.un(r0, exp)");
  mil::Instr fill;
  fill.op = mil::OpCode::kFillTail;
  fill.dst = 5;
  fill.src0 = 0;
  fill.imm0 = Value::MakeDbl(0.4);
  EXPECT_EQ(fill.ToString(), "r5 := fill(r0, dbl:0.4)");
}

// ---------------------------------------------------------------------------
// ExecutionEngine.

namespace engine_test {

// A selection-heavy plan over `nums`: range + cmp + semijoin + slice.
mil::Program SelectionPipelineProgram() {
  mil::Program prog;
  mil::Instr load;
  load.op = mil::OpCode::kLoadNamed;
  load.name = "nums";
  load.dst = prog.NewReg();
  prog.Emit(load);
  mil::Instr range;
  range.op = mil::OpCode::kSelectRange;
  range.src0 = load.dst;
  range.imm0 = Value::MakeInt(10);
  range.imm1 = Value::MakeInt(800);
  range.flag0 = true;
  range.flag1 = true;
  range.dst = prog.NewReg();
  prog.Emit(range);
  mil::Instr neq;
  neq.op = mil::OpCode::kSelectNeq;
  neq.src0 = range.dst;
  neq.imm0 = Value::MakeInt(50);
  neq.dst = prog.NewReg();
  prog.Emit(neq);
  mil::Instr load2;
  load2.op = mil::OpCode::kLoadNamed;
  load2.name = "keys";
  load2.dst = prog.NewReg();
  prog.Emit(load2);
  mil::Instr semi;
  semi.op = mil::OpCode::kSemiJoinHead;
  semi.src0 = neq.dst;
  semi.src1 = load2.dst;
  semi.dst = prog.NewReg();
  prog.Emit(semi);
  mil::Instr slice;
  slice.op = mil::OpCode::kSlice;
  slice.src0 = semi.dst;
  slice.n = 5;
  slice.n2 = 200;
  slice.dst = prog.NewReg();
  prog.Emit(slice);
  prog.set_result_reg(slice.dst);
  return prog;
}

Catalog MakeCatalog(size_t n, uint64_t seed) {
  base::Rng rng(seed);
  std::vector<int64_t> nums(n);
  for (auto& v : nums) v = rng.UniformInt(0, 999);
  Catalog catalog;
  catalog.Put("nums", Bat::DenseInts(std::move(nums)));
  std::vector<Oid> keys;
  for (Oid o = 0; o < n; o += 3) keys.push_back(o);
  catalog.Put("keys", Bat(Column::MakeOids(std::move(keys)),
                          Column::MakeInts(std::vector<int64_t>(
                              (n + 2) / 3, 0))));
  return catalog;
}

void ExpectSameBat(const Bat& a, const Bat& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.head().OidAt(i), b.head().OidAt(i)) << "row " << i;
    EXPECT_EQ(a.tail().IntAt(i), b.tail().IntAt(i)) << "row " << i;
  }
}

TEST(ExecutionEngineTest, CandidatePipelineMatchesSequentialExecutor) {
  Catalog catalog = MakeCatalog(3000, 11);
  mil::Program prog = SelectionPipelineProgram();
  auto baseline = mil::Executor(&catalog).Run(prog);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  for (int threads : {1, 4}) {
    mil::ExecutionEngine engine(&catalog,
                                mil::ExecOptions{.num_threads = threads});
    auto run = engine.Run(prog);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ExpectSameBat(*baseline.value().bat, *run.value().bat);
  }
}

TEST(ExecutionEngineTest, CandidatePipelineAvoidsIntermediateCopies) {
  Catalog catalog = MakeCatalog(3000, 12);
  mil::Program prog = SelectionPipelineProgram();
  ResetKernelStats();
  mil::ExecutionEngine engine(&catalog, mil::ExecOptions{.num_threads = 1});
  ASSERT_TRUE(engine.Run(prog).ok());
  KernelStats with_cands = SnapshotKernelStats();
  // The whole select->select->semijoin->slice chain materializes exactly
  // once, at result delivery.
  EXPECT_EQ(with_cands.materializations, 1u);
  EXPECT_GE(with_cands.candidate_ops, 4u);

  ResetKernelStats();
  ASSERT_TRUE(mil::Executor(&catalog).Run(prog).ok());
  KernelStats without_cands = SnapshotKernelStats();
  EXPECT_EQ(without_cands.materializations, 0u);
  // Late materialization copies strictly fewer tuples: only the final
  // result, vs. every intermediate the sequential Executor gathers.
  EXPECT_LT(with_cands.materialized_tuples, without_cands.tuples_out);
}

TEST(ExecutionEngineTest, ParallelIndependentBranches) {
  // Two independent selection branches concatenated: the DAG scheduler
  // can run them on different workers; results must equal sequential.
  Catalog catalog;
  catalog.Put("a", Bat::DenseInts({1, 5, 9, 13}, /*base=*/0));
  catalog.Put("b", Bat::DenseInts({2, 6, 10, 14}, /*base=*/100));
  mil::Program prog;
  auto emit_branch = [&prog](const std::string& name, int64_t bound) {
    mil::Instr load;
    load.op = mil::OpCode::kLoadNamed;
    load.name = name;
    load.dst = prog.NewReg();
    prog.Emit(load);
    mil::Instr sel;
    sel.op = mil::OpCode::kSelectCmp;
    sel.cmp_op = CmpOp::kGt;
    sel.imm0 = Value::MakeInt(bound);
    sel.src0 = load.dst;
    sel.dst = prog.NewReg();
    prog.Emit(sel);
    return sel.dst;
  };
  int left = emit_branch("a", 4);
  int right = emit_branch("b", 5);
  mil::Instr concat;
  concat.op = mil::OpCode::kConcat;
  concat.src0 = left;
  concat.src1 = right;
  concat.dst = prog.NewReg();
  prog.Emit(concat);
  prog.set_result_reg(concat.dst);

  auto baseline = mil::Executor(&catalog).Run(prog);
  ASSERT_TRUE(baseline.ok());
  mil::ExecutionEngine engine(&catalog, mil::ExecOptions{.num_threads = 4});
  auto run = engine.Run(prog);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ExpectSameBat(*baseline.value().bat, *run.value().bat);
}

TEST(ExecutionEngineTest, ScalarResultAndErrorsPropagate) {
  Catalog catalog;
  catalog.Put("nums", Bat::DenseInts({5, 1, 7, 3}));
  mil::Program prog;
  mil::Instr load;
  load.op = mil::OpCode::kLoadNamed;
  load.name = "nums";
  load.dst = prog.NewReg();
  prog.Emit(load);
  mil::Instr select;
  select.op = mil::OpCode::kSelectCmp;
  select.cmp_op = CmpOp::kGt;
  select.imm0 = Value::MakeInt(2);
  select.src0 = load.dst;
  select.dst = prog.NewReg();
  prog.Emit(select);
  mil::Instr sum;
  sum.op = mil::OpCode::kScalarSum;
  sum.src0 = select.dst;
  sum.dst = prog.NewReg();
  prog.Emit(sum);
  prog.set_result_reg(sum.dst);
  mil::ExecutionEngine engine(&catalog, mil::ExecOptions{.num_threads = 4});
  auto result = engine.Run(prog);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().is_scalar);
  EXPECT_DOUBLE_EQ(result.value().scalar, 15.0);

  // Missing BAT fails cleanly from worker threads too.
  mil::Program bad;
  mil::Instr ghost;
  ghost.op = mil::OpCode::kLoadNamed;
  ghost.name = "ghost";
  ghost.dst = bad.NewReg();
  bad.Emit(ghost);
  mil::Instr mirror_i;
  mirror_i.op = mil::OpCode::kMirror;
  mirror_i.src0 = ghost.dst;
  mirror_i.dst = bad.NewReg();
  bad.Emit(mirror_i);
  bad.set_result_reg(mirror_i.dst);
  auto failed = engine.Run(bad);
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), base::StatusCode::kNotFound);
}

TEST(ExecutionContextTest, PlanCacheHitsAndNormalization) {
  mil::ExecutionContext ctx;
  EXPECT_EQ(mil::ExecutionContext::NormalizeText("  select\n\t[x]  (S) ; "),
            "select [x] (S) ;");
  EXPECT_EQ(ctx.CachedPlan("k"), nullptr);
  mil::Program prog;
  mil::Instr load;
  load.op = mil::OpCode::kLoadNamed;
  load.name = "x";
  load.dst = prog.NewReg();
  prog.Emit(load);
  prog.set_result_reg(load.dst);
  ctx.CachePlan("k", prog);
  auto hit = ctx.CachedPlan("k");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->instrs().size(), 1u);
  EXPECT_EQ(ctx.plan_cache_size(), 1u);
  EXPECT_EQ(ctx.plan_cache_lookups(), 2u);
  EXPECT_EQ(ctx.plan_cache_hits(), 1u);
  ctx.InvalidatePlans();
  EXPECT_EQ(ctx.plan_cache_size(), 0u);
}

TEST(ExecutionContextTest, RegisterScratchReusedAcrossRuns) {
  Catalog catalog;
  catalog.Put("nums", Bat::DenseInts({1, 2, 3}));
  mil::Program prog;
  mil::Instr load;
  load.op = mil::OpCode::kLoadNamed;
  load.name = "nums";
  load.dst = prog.NewReg();
  prog.Emit(load);
  mil::Instr sel;
  sel.op = mil::OpCode::kSelectCmp;
  sel.cmp_op = CmpOp::kGt;
  sel.imm0 = Value::MakeInt(1);
  sel.src0 = load.dst;
  sel.dst = prog.NewReg();
  prog.Emit(sel);
  prog.set_result_reg(sel.dst);
  mil::ExecutionContext session;
  mil::ExecutionEngine engine(&catalog);
  for (int round = 0; round < 3; ++round) {
    auto run = engine.Run(prog, &session);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run.value().bat->size(), 2u);
  }
}

}  // namespace engine_test

TEST(MilTest, KernelOpCountExcludesLoadsAndConstants) {
  mil::Program prog;
  mil::Instr load;
  load.op = mil::OpCode::kLoadNamed;
  load.name = "x";
  load.dst = prog.NewReg();
  prog.Emit(load);
  mil::Instr mirror;
  mirror.op = mil::OpCode::kMirror;
  mirror.src0 = load.dst;
  mirror.dst = prog.NewReg();
  prog.Emit(mirror);
  prog.set_result_reg(mirror.dst);
  EXPECT_EQ(prog.KernelOpCount(), 1u);
}

}  // namespace
}  // namespace mirror::monet
