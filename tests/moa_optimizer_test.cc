// Optimizer tests: logical rewrites preserve results and reduce physical
// work (kernel op counts / tuples touched via the profiler).

#include <map>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "moa/database.h"
#include "moa/flatten.h"
#include "moa/naive_eval.h"
#include "moa/optimizer.h"
#include "monet/profiler.h"

namespace mirror::moa {
namespace {

using monet::Oid;

void BuildNumbers(Database* db, int n) {
  ASSERT_TRUE(
      db->Define("define N as SET<TUPLE<Atomic<int>: x, Atomic<int>: y>>;")
          .ok());
  std::vector<MoaValue> objects;
  for (int i = 0; i < n; ++i) {
    objects.push_back(MoaValue::Tuple(
        {MoaValue::Int(i), MoaValue::Int(i % 13)}));
  }
  ASSERT_TRUE(db->Load("N", std::move(objects)).ok());
}

void BuildAnnotated(Database* db, int n, uint64_t seed) {
  ASSERT_TRUE(db->Define("define Lib as SET<TUPLE<Atomic<URL>: u, "
                         "CONTREP<Text>: a>>;")
                  .ok());
  base::Rng rng(seed);
  static const char* const kWords[] = {"sun", "sea", "sky", "rock", "tree",
                                       "bird", "sand", "wave"};
  std::vector<MoaValue> objects;
  for (int i = 0; i < n; ++i) {
    std::vector<std::string> terms;
    for (int t = 0; t < 6; ++t) {
      terms.push_back(kWords[rng.Uniform(std::size(kWords))]);
    }
    objects.push_back(MoaValue::Tuple(
        {MoaValue::Str("u" + std::to_string(i)), MoaValue::ContRep(terms)}));
  }
  ASSERT_TRUE(db->Load("Lib", std::move(objects)).ok());
}

TEST(LogicalRewriteTest, MapMapFusion) {
  auto expr = ParseExpr("map[THIS * 2](map[THIS.x + 1](N))").TakeValue();
  OptimizerReport report;
  ExprPtr rewritten = RewriteLogical(expr, &report);
  EXPECT_EQ(report.map_fusions, 1);
  EXPECT_EQ(rewritten->op, Expr::Op::kMap);
  // Source is now the base set, not another map.
  EXPECT_EQ(rewritten->children[1]->op, Expr::Op::kVarRef);
  EXPECT_EQ(rewritten->ToString(), "map[((THIS.x + 1) * 2)](N)");
}

TEST(LogicalRewriteTest, SelectSelectFusion) {
  auto expr =
      ParseExpr("select[THIS.x < 5](select[THIS.y > 1](N))").TakeValue();
  OptimizerReport report;
  ExprPtr rewritten = RewriteLogical(expr, &report);
  EXPECT_EQ(report.select_fusions, 1);
  EXPECT_EQ(rewritten->op, Expr::Op::kSelect);
  EXPECT_EQ(rewritten->children[0]->op, Expr::Op::kAnd);
  EXPECT_EQ(rewritten->children[1]->op, Expr::Op::kVarRef);
}

TEST(LogicalRewriteTest, GetBLMapsAreNotFused) {
  auto expr = ParseExpr(
                  "map[sum(THIS)](map[getBL(THIS.a, query, stats)](Lib))")
                  .TakeValue();
  OptimizerReport report;
  ExprPtr rewritten = RewriteLogical(expr, &report);
  EXPECT_EQ(report.map_fusions, 0);
  EXPECT_EQ(rewritten->ToString(), expr->ToString());
}

std::map<Oid, double> RunFlattened(const Database& db, const QueryContext& ctx,
                          const ExprPtr& expr, bool optimize,
                          monet::KernelStats* stats_out) {
  Flattener flattener(&db, &ctx, FlattenOptions{.optimize = optimize});
  ExprPtr logical = expr;
  OptimizerReport report;
  if (optimize) logical = RewriteLogical(logical, &report);
  auto program = flattener.Compile(logical);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  monet::mil::Program prog = program.TakeValue();
  if (optimize) OptimizeMil(&prog, &report);
  monet::ResetKernelStats();
  auto run = monet::mil::Executor(&db.catalog()).Run(prog);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  *stats_out = monet::SnapshotKernelStats();
  std::map<Oid, double> out;
  const monet::Bat& bat = *run.value().bat;
  for (size_t i = 0; i < bat.size(); ++i) {
    out[bat.head().OidAt(i)] = bat.tail().NumAt(i);
  }
  return out;
}

TEST(OptimizerEffectTest, FusionReducesWorkAndPreservesResults) {
  Database db;
  BuildNumbers(&db, 2000);
  QueryContext ctx;
  // The conjunctive selection distinguishes the two translations: the
  // optimizer threads the first conjunct's candidates into the second
  // (sequential filtering), while the naive translation evaluates both
  // conjuncts over the full column and intersects afterwards.
  auto expr =
      ParseExpr("map[THIS * 3](map[THIS.x + 1]("
                "select[THIS.x < 100 and THIS.y < 6](N)))")
          .TakeValue();
  monet::KernelStats with_opt;
  monet::KernelStats without_opt;
  auto optimized = RunFlattened(db, ctx, expr, true, &with_opt);
  auto unoptimized = RunFlattened(db, ctx, expr, false, &without_opt);
  ASSERT_EQ(optimized.size(), unoptimized.size());
  for (const auto& [oid, v] : optimized) {
    EXPECT_DOUBLE_EQ(v, unoptimized.at(oid));
  }
  EXPECT_LE(with_opt.TotalOps(), without_opt.TotalOps());
  EXPECT_LT(with_opt.tuples_in, without_opt.tuples_in);
}

TEST(OptimizerEffectTest, InvertedGetBLTouchesFewerTuples) {
  Database db;
  BuildAnnotated(&db, 3000, /*seed=*/17);
  QueryContext ctx;
  ctx.BindTerms("query", {"sun", "wave"});
  auto expr = ParseExpr(
                  "map[sum(THIS)](map[getBL(THIS.a, query, stats)](Lib))")
                  .TakeValue();
  monet::KernelStats with_opt;
  monet::KernelStats without_opt;
  auto optimized = RunFlattened(db, ctx, expr, true, &with_opt);
  auto unoptimized = RunFlattened(db, ctx, expr, false, &without_opt);
  ASSERT_EQ(optimized.size(), unoptimized.size());
  for (const auto& [oid, v] : optimized) {
    EXPECT_NEAR(v, unoptimized.at(oid), 1e-9);
  }
  // The un-optimized plan computes beliefs for every posting; the
  // optimized plan restricts to the query's postings first.
  uint64_t belief_idx = static_cast<uint64_t>(monet::KernelOp::kBelief);
  EXPECT_EQ(with_opt.op_count[belief_idx], 1u);
  EXPECT_EQ(without_opt.op_count[belief_idx], 1u);
  EXPECT_LT(with_opt.tuples_in, without_opt.tuples_in);
}

TEST(MilCseTest, DuplicateLoadsCollapse) {
  Database db;
  BuildAnnotated(&db, 50, /*seed=*/3);
  QueryContext ctx;
  ctx.BindTerms("query", {"sun"});
  auto expr = ParseExpr(
                  "map[sum(THIS)](map[getBL(THIS.a, query, stats)](Lib))")
                  .TakeValue();
  Flattener flattener(&db, &ctx, FlattenOptions{.optimize = true});
  auto program = flattener.Compile(expr);
  ASSERT_TRUE(program.ok());
  monet::mil::Program prog = program.TakeValue();
  size_t before = prog.instrs().size();
  OptimizerReport report;
  OptimizeMil(&prog, &report);
  EXPECT_LE(prog.instrs().size(), before);
  // Re-execution after CSE+DCE still works.
  auto run = monet::mil::Executor(db.catalog()).Run(prog);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().bat->size(), 50u);
}

TEST(MilJoinFusionTest, SelectFedJoinInputsAreCounted) {
  // select → semijoin → join: both candidate-producing inputs of kJoin
  // count as join-input fusions (Materialize() calls the radix engine's
  // JoinCand avoids); a load-fed join input does not.
  namespace mil = monet::mil;
  mil::Program p;
  auto emit = [&p](mil::Instr i) {
    i.dst = p.NewReg();
    return p.Emit(std::move(i));
  };
  mil::Instr load;
  load.op = mil::OpCode::kLoadNamed;
  load.name = "t.a";
  int a = emit(std::move(load));
  mil::Instr sel;
  sel.op = mil::OpCode::kSelectCmp;
  sel.src0 = a;
  sel.cmp_op = monet::CmpOp::kGt;
  sel.imm0 = monet::Value::MakeInt(3);
  int selected = emit(std::move(sel));
  mil::Instr load2;
  load2.op = mil::OpCode::kLoadNamed;
  load2.name = "t.b";
  int b = emit(std::move(load2));
  mil::Instr join;
  join.op = mil::OpCode::kJoin;
  join.src0 = selected;  // candidate-pipeline producer: counts
  join.src1 = b;         // plain load: does not count
  p.set_result_reg(emit(std::move(join)));
  OptimizerReport report;
  OptimizeMil(&p, &report);
  EXPECT_EQ(report.join_input_fusions, 1);
  // Load → select → join(probe) are all shard-fanout-eligible.
  EXPECT_EQ(report.shard_fanouts, 2);
}

TEST(MilRangeFusionTest, BothNestingsKeepBothBoundsAndFlags) {
  // select.cmp(select.cmp(X, inner), outer) fuses into one select.range
  // whichever of the two is the lower bound; a strict bound (>, <) gives
  // an exclusive flag, an inclusive one (>=, <=) an inclusive flag.
  namespace mil = monet::mil;
  using monet::CmpOp;
  struct Case {
    CmpOp lower;
    CmpOp upper;
  };
  const Case cases[] = {{CmpOp::kGe, CmpOp::kLe},
                        {CmpOp::kGe, CmpOp::kLt},
                        {CmpOp::kGt, CmpOp::kLe},
                        {CmpOp::kGt, CmpOp::kLt}};
  for (const Case& c : cases) {
    for (bool lower_inner : {true, false}) {
      SCOPED_TRACE(testing::Message()
                   << "lower=" << static_cast<int>(c.lower)
                   << " upper=" << static_cast<int>(c.upper)
                   << " lower_inner=" << lower_inner);
      mil::Program p;
      auto emit = [&p](mil::Instr i) {
        i.dst = p.NewReg();
        return p.Emit(std::move(i));
      };
      mil::Instr load;
      load.op = mil::OpCode::kLoadNamed;
      load.name = "t.a";
      const int x = emit(std::move(load));
      auto select = [](int src, CmpOp op, int64_t v) {
        mil::Instr sel;
        sel.op = mil::OpCode::kSelectCmp;
        sel.src0 = src;
        sel.cmp_op = op;
        sel.imm0 = monet::Value::MakeInt(v);
        return sel;
      };
      const int inner = emit(select(x, lower_inner ? c.lower : c.upper,
                                    lower_inner ? 10 : 20));
      p.set_result_reg(emit(select(inner, lower_inner ? c.upper : c.lower,
                                   lower_inner ? 20 : 10)));
      OptimizerReport report;
      OptimizeMil(&p, &report);
      EXPECT_EQ(report.range_fusions, 1);
      const mil::Instr* range = nullptr;
      int load_reg = -1;
      for (const mil::Instr& i : p.instrs()) {
        EXPECT_NE(i.op, mil::OpCode::kSelectCmp) << "inner select left over";
        if (i.op == mil::OpCode::kSelectRange) range = &i;
        if (i.op == mil::OpCode::kLoadNamed) load_reg = i.dst;
      }
      ASSERT_NE(range, nullptr);
      EXPECT_EQ(range->src0, load_reg);
      EXPECT_EQ(range->imm0.i(), 10);
      EXPECT_EQ(range->imm1.i(), 20);
      EXPECT_EQ(range->flag0, c.lower == CmpOp::kGe);
      EXPECT_EQ(range->flag1, c.upper == CmpOp::kLe);
    }
  }
}

TEST(MilFoldRewriteTest, ScalarMaxCollapsesToFoldAndPreservesResults) {
  // The flattener spells scalar max/min as scalar.sum(topn(x, 1));
  // OptimizeMil must rewrite the pair into one scalar.fold and DCE the
  // orphaned topn, and the rewritten plan must still agree with the
  // unoptimized one on both engines.
  Database db;
  BuildNumbers(&db, 500);
  QueryContext ctx;
  auto expr =
      ParseExpr("max(map[THIS.x - THIS.y * 2](select[THIS.y < 9](N)))")
          .TakeValue();
  Flattener flattener(&db, &ctx, FlattenOptions{.optimize = true});
  auto program = flattener.Compile(expr);
  ASSERT_TRUE(program.ok());
  monet::mil::Program prog = program.TakeValue();
  auto count_op = [&](monet::mil::OpCode op) {
    int n = 0;
    for (const monet::mil::Instr& i : prog.instrs()) n += i.op == op ? 1 : 0;
    return n;
  };
  ASSERT_EQ(count_op(monet::mil::OpCode::kTopN), 1);
  ASSERT_EQ(count_op(monet::mil::OpCode::kScalarFold), 0);
  auto baseline = monet::mil::Executor(db.catalog()).Run(prog);
  ASSERT_TRUE(baseline.ok());

  OptimizerReport report;
  OptimizeMil(&prog, &report);
  EXPECT_EQ(report.fold_rewrites, 1);
  EXPECT_EQ(count_op(monet::mil::OpCode::kTopN), 0);       // DCE'd
  EXPECT_EQ(count_op(monet::mil::OpCode::kScalarSum), 0);  // rewritten
  EXPECT_EQ(count_op(monet::mil::OpCode::kScalarFold), 1);
  // The fold chain stays shard-eligible end to end.
  EXPECT_GT(report.shard_fanouts, 0);

  auto seq = monet::mil::Executor(db.catalog()).Run(prog);
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(seq.value().is_scalar);
  EXPECT_DOUBLE_EQ(seq.value().scalar, baseline.value().scalar);
  monet::mil::ExecutionEngine engine(db.catalog());
  auto fused = engine.Run(prog);
  ASSERT_TRUE(fused.ok());
  EXPECT_DOUBLE_EQ(fused.value().scalar, baseline.value().scalar);
}

TEST(MilFoldRewriteTest, MultiUseAndDeeperTopNsAreLeftAlone) {
  namespace mil = monet::mil;
  mil::Program p;
  auto emit = [&p](mil::Instr i) {
    i.dst = p.NewReg();
    return p.Emit(std::move(i));
  };
  mil::Instr load;
  load.op = mil::OpCode::kLoadNamed;
  load.name = "t.a";
  int a = emit(std::move(load));
  mil::Instr top;
  top.op = mil::OpCode::kTopN;
  top.src0 = a;
  top.n = 5;  // not a scalar extremum
  top.flag0 = true;
  int top5 = emit(std::move(top));
  mil::Instr sum;
  sum.op = mil::OpCode::kScalarSum;
  sum.src0 = top5;
  p.set_result_reg(emit(std::move(sum)));
  OptimizerReport report;
  OptimizeMil(&p, &report);
  EXPECT_EQ(report.fold_rewrites, 0);
}

TEST(ShardFanoutDiagnosticTest, CountsShardableChains) {
  // select → semijoin → sum.per.head over loads: every link fans out;
  // a sort (fan-in) breaks the chain, so ops above it don't count.
  Database db;
  BuildNumbers(&db, 100);
  QueryContext ctx;
  auto expr = ParseExpr(
                  "map[THIS.x + 1](select[THIS.x > 5 and THIS.y < 4](N))")
                  .TakeValue();
  Flattener flattener(&db, &ctx, FlattenOptions{.optimize = true});
  auto program = flattener.Compile(expr);
  ASSERT_TRUE(program.ok());
  monet::mil::Program prog = program.TakeValue();
  OptimizerReport report;
  OptimizeMil(&prog, &report);
  // At minimum the two selections, the candidate-threaded semijoin and
  // the map fan out shard-locally.
  EXPECT_GE(report.shard_fanouts, 3);
}

}  // namespace
}  // namespace mirror::moa
