// Optimizer tests: logical rewrites preserve results and reduce physical
// work (kernel op counts / tuples touched via the profiler).

#include <map>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "moa/database.h"
#include "moa/flatten.h"
#include "moa/naive_eval.h"
#include "moa/optimizer.h"
#include "monet/exec.h"
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

int CountOps(const monet::mil::Program& prog, monet::mil::OpCode op) {
  int n = 0;
  for (const monet::mil::Instr& i : prog.instrs()) n += i.op == op ? 1 : 0;
  return n;
}

int CountSelects(const monet::mil::Program& prog) {
  return CountOps(prog, monet::mil::OpCode::kSelectCmp) +
         CountOps(prog, monet::mil::OpCode::kSelectRange) +
         CountOps(prog, monet::mil::OpCode::kSelectEq);
}

// The Prepare path: logical rewrites (when optimizing), then flatten.
monet::mil::Program Compile(const Database& db, const QueryContext& ctx,
                            const std::string& text, bool optimize) {
  auto expr = ParseExpr(text);
  EXPECT_TRUE(expr.ok()) << expr.status().ToString();
  ExprPtr logical = expr.value();
  if (optimize) logical = RewriteLogical(logical, nullptr);
  auto program =
      Flattener(&db, &ctx, FlattenOptions{.optimize = optimize})
          .Compile(logical);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return program.TakeValue();
}

monet::mil::Program CompileOptimized(const Database& db,
                                     const QueryContext& ctx,
                                     const std::string& text) {
  return Compile(db, ctx, text, /*optimize=*/true);
}

TEST(RangeSelectTest, BoundPairsCompileToOneRangeWithBothBoundsAndFlags) {
  // A lower and an upper bound on one field become one select.range
  // whichever comes first, whether written as one conjunction or as
  // nested selects (fused by RewriteLogical), and over a mapped set; a
  // strict bound (>, <) gives an exclusive flag, an inclusive one
  // (>=, <=) an inclusive flag.
  Database db;
  BuildNumbers(&db, 40);
  QueryContext ctx;
  struct Kind {
    const char* lower;
    const char* upper;
  };
  const Kind kinds[] = {{">=", "<="}, {">=", "<"}, {">", "<="}, {">", "<"}};
  for (const Kind& k : kinds) {
    const std::string lo = std::string("THIS.x ") + k.lower + " 10";
    const std::string hi = std::string("THIS.x ") + k.upper + " 20";
    const std::string vlo = std::string("THIS ") + k.lower + " 10";
    const std::string vhi = std::string("THIS ") + k.upper + " 20";
    const std::string queries[] = {
        "select[" + lo + " and " + hi + "](N)",
        "select[" + hi + " and " + lo + "](N)",
        "select[" + hi + "](select[" + lo + "](N))",
        "select[" + lo + "](select[" + hi + "](N))",
        "select[" + vlo + " and " + vhi + "](map[THIS.x](N))",
        "select[" + vhi + " and " + vlo + "](map[THIS.x](N))",
    };
    const bool lo_incl = std::string(k.lower) == ">=";
    const bool hi_incl = std::string(k.upper) == "<=";
    const size_t want_rows = 9 + (lo_incl ? 1 : 0) + (hi_incl ? 1 : 0);
    for (const std::string& text : queries) {
      SCOPED_TRACE(text);
      monet::mil::Program prog = CompileOptimized(db, ctx, text);
      EXPECT_EQ(CountOps(prog, monet::mil::OpCode::kSelectCmp), 0);
      ASSERT_EQ(CountOps(prog, monet::mil::OpCode::kSelectRange), 1);
      for (const monet::mil::Instr& i : prog.instrs()) {
        if (i.op != monet::mil::OpCode::kSelectRange) continue;
        EXPECT_EQ(i.imm0.i(), 10);
        EXPECT_EQ(i.imm1.i(), 20);
        EXPECT_EQ(i.flag0, lo_incl);
        EXPECT_EQ(i.flag1, hi_incl);
      }
      auto run = monet::mil::Executor(db.catalog()).Run(prog);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(run.value().bat->size(), want_rows);
    }
  }
}

// A Cat like scan_analytic's: `rows` rows, years in [1900, 2025],
// ratings and pages in [0, 1000].
void BuildCat(Database* db, int rows, uint64_t seed) {
  ASSERT_TRUE(db->Define("define Cat as SET<TUPLE<Atomic<URL>: u, "
                         "Atomic<int>: year, Atomic<int>: rating, "
                         "Atomic<int>: pages>>;")
                  .ok());
  base::Rng rng(seed);
  std::vector<MoaValue> objects;
  for (int i = 0; i < rows; ++i) {
    objects.push_back(MoaValue::Tuple(
        {MoaValue::Str("c" + std::to_string(i)),
         MoaValue::Int(rng.UniformInt(1900, 2025)),
         MoaValue::Int(rng.UniformInt(0, 1000)),
         MoaValue::Int(rng.UniformInt(0, 1000))}));
  }
  ASSERT_TRUE(db->Load("Cat", std::move(objects)).ok());
}

TEST(RangeSelectTest, PairedFieldsGiveOneSelectEach) {
  Database db;
  BuildCat(&db, 100, /*seed=*/5);
  QueryContext ctx;
  const std::string pairs[] = {
      "THIS.year >= 1950 and THIS.year <= 1990",
      "THIS.rating >= 300 and THIS.rating <= 550",
      "THIS.pages > 10 and THIS.pages < 900"};
  std::string conj;
  for (int c = 1; c <= 3; ++c) {
    conj += (c > 1 ? " and " : "") + pairs[c - 1];
    SCOPED_TRACE(conj);
    monet::mil::Program prog =
        CompileOptimized(db, ctx, "count(select[" + conj + "](Cat))");
    EXPECT_EQ(CountSelects(prog), c);
    EXPECT_EQ(CountOps(prog, monet::mil::OpCode::kSelectRange), c);
  }
  // rank_mix's selection: a year pair plus a lone rating floor.
  monet::mil::Program rank_mix = CompileOptimized(
      db, ctx,
      "count(select[THIS.year >= 1980 and THIS.year <= 2000 and "
      "THIS.rating >= 40](Cat))");
  EXPECT_EQ(CountOps(rank_mix, monet::mil::OpCode::kSelectRange), 1);
  EXPECT_EQ(CountOps(rank_mix, monet::mil::OpCode::kSelectCmp), 1);
  // Unpaired bounds (hot_zipf's and read_write's shape) stay chained.
  monet::mil::Program floors = CompileOptimized(
      db, ctx, "count(select[THIS.year >= 1980 and THIS.rating >= 40](Cat))");
  EXPECT_EQ(CountOps(floors, monet::mil::OpCode::kSelectRange), 0);
  EXPECT_EQ(CountOps(floors, monet::mil::OpCode::kSelectCmp), 2);
  // Only the first lower and first upper bound pair; a further bound,
  // an equality and an `or` chain on the running candidates.
  monet::mil::Program extra = CompileOptimized(
      db, ctx,
      "count(select[THIS.year > 1950 and THIS.year >= 1960 and "
      "THIS.rating != 7 and THIS.year < 1990 and "
      "(THIS.pages < 5 or THIS.pages > 50)](Cat))");
  EXPECT_EQ(CountOps(extra, monet::mil::OpCode::kSelectRange), 1);
  EXPECT_EQ(CountOps(extra, monet::mil::OpCode::kSelectCmp), 4);
}

TEST(RangeSelectTest, ScanAnalyticConjunctionTuplesIn) {
  // scan_analytic's count over a year pair and a rating pair, on the
  // engine at 1 thread, unsharded, recycler off. The plan reads:
  //   select.range(year)            N rows
  //   semijoin(rating, C_year)      N + |C_year| (position intersection)
  //   select.range(rating view)     |C_year|
  //   scalar.count                  |C_both|
  // That is 546,257 tuples here. Chaining two select.cmp per field, each
  // behind its own semijoin (the translation before bound pairing), read
  // 1,278,687 for the same query and data.
  constexpr int kRows = 200000;
  Database db;
  BuildCat(&db, kRows, /*seed=*/42);
  QueryContext ctx;
  monet::mil::Program prog = CompileOptimized(
      db, ctx,
      "count(select[THIS.year >= 1950 and THIS.year <= 1990 and "
      "THIS.rating >= 300 and THIS.rating <= 550](Cat))");
  ASSERT_EQ(CountOps(prog, monet::mil::OpCode::kSelectRange), 2);
  const monet::Bat& year = *db.catalog()->Get("Cat.year").value();
  const monet::Bat& rating = *db.catalog()->Get("Cat.rating").value();
  uint64_t in_years = 0;
  uint64_t in_both = 0;
  for (size_t r = 0; r < year.size(); ++r) {
    const int64_t y = year.tail().IntAt(r);
    const int64_t g = rating.tail().IntAt(r);
    if (y < 1950 || y > 1990) continue;
    ++in_years;
    if (g >= 300 && g <= 550) ++in_both;
  }
  monet::mil::ExecutionEngine engine(
      db.catalog(),
      monet::mil::ExecOptions{.num_threads = 1, .recycle = false});
  monet::ResetKernelStats();
  auto run = engine.Run(prog);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const uint64_t tuples_in = monet::SnapshotKernelStats().tuples_in;
  ASSERT_TRUE(run.value().is_scalar);
  EXPECT_EQ(run.value().scalar, static_cast<double>(in_both));
  EXPECT_EQ(tuples_in, 2 * kRows + 2 * in_years + in_both);
}

double RunScalar(const Database& db, const monet::mil::Program& prog,
                 int threads) {
  monet::mil::ExecutionEngine engine(
      &db.catalog(), monet::mil::ExecOptions{.num_threads = threads});
  auto run = engine.Run(prog);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run.value().is_scalar);
  return run.value().scalar;
}

double RunNaiveScalar(const Database& db, const QueryContext& ctx,
                      const std::string& text) {
  auto result = NaiveEvaluator(&db, &ctx).Evaluate(ParseExpr(text).TakeValue());
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.value().scalar.AsDouble();
}

TEST(ScalarFoldTest, MaxAndMinCompileToOneFoldWhenOptimized) {
  // Optimized, max/min compile to one scalar.fold; unoptimized they keep
  // the sum(topn(x, 1)) spelling. Both agree with the naive oracle on
  // the sequential Executor and the engine.
  Database db;
  BuildNumbers(&db, 500);
  QueryContext ctx;
  for (const char* agg : {"max", "min"}) {
    const std::string text =
        std::string(agg) + "(map[THIS.x - THIS.y * 2](select[THIS.y < 9](N)))";
    SCOPED_TRACE(text);
    const double want = RunNaiveScalar(db, ctx, text);
    monet::mil::Program o1 = Compile(db, ctx, text, /*optimize=*/true);
    EXPECT_EQ(CountOps(o1, monet::mil::OpCode::kScalarFold), 1);
    EXPECT_EQ(CountOps(o1, monet::mil::OpCode::kTopN), 0);
    EXPECT_EQ(CountOps(o1, monet::mil::OpCode::kScalarSum), 0);
    for (const monet::mil::Instr& i : o1.instrs()) {
      if (i.op != monet::mil::OpCode::kScalarFold) continue;
      EXPECT_EQ(i.fold_op, std::string(agg) == "max" ? monet::FoldOp::kMax
                                                     : monet::FoldOp::kMin);
    }
    monet::mil::Program o0 = Compile(db, ctx, text, /*optimize=*/false);
    EXPECT_EQ(CountOps(o0, monet::mil::OpCode::kScalarFold), 0);
    ASSERT_EQ(CountOps(o0, monet::mil::OpCode::kTopN), 1);
    EXPECT_EQ(CountOps(o0, monet::mil::OpCode::kScalarSum), 1);
    for (const monet::mil::Instr& i : o0.instrs()) {
      if (i.op != monet::mil::OpCode::kTopN) continue;
      EXPECT_EQ(i.n, 1);
      EXPECT_EQ(i.flag0, std::string(agg) == "max");
    }
    for (const monet::mil::Program* prog : {&o1, &o0}) {
      auto seq = monet::mil::Executor(db.catalog()).Run(*prog);
      ASSERT_TRUE(seq.ok()) << seq.status().ToString();
      EXPECT_DOUBLE_EQ(seq.value().scalar, want);
      EXPECT_DOUBLE_EQ(RunScalar(db, *prog, 4), want);
    }
  }
  // A sum over a wider topN is a sum, not an extremum.
  monet::mil::Program top5 =
      CompileOptimized(db, ctx, "sum(topN(map[THIS.x](N), 5))");
  EXPECT_EQ(CountOps(top5, monet::mil::OpCode::kScalarFold), 0);
  EXPECT_EQ(CountOps(top5, monet::mil::OpCode::kTopN), 1);
  EXPECT_EQ(CountOps(top5, monet::mil::OpCode::kScalarSum), 1);
}

TEST(ScalarSumSplitTest, SumOfSumOrDifferenceSplitsIntoTwoSums) {
  // Optimized, sum(map[a ± b](X)) compiles to scalar.sum(a) ± scalar.sum(b)
  // with no multiplex map.bin, so both sums run fused over the selection's
  // candidate views without a Materialize call; unoptimized, the map.bin
  // stays.
  Database db;
  BuildNumbers(&db, 3000);
  QueryContext ctx;
  for (const char* op : {"+", "-"}) {
    const std::string text = std::string("sum(map[THIS.x ") + op +
                             " THIS.y](select[THIS.x >= 100 and "
                             "THIS.y != 4](N)))";
    SCOPED_TRACE(text);
    const double want = RunNaiveScalar(db, ctx, text);
    monet::mil::Program o1 = Compile(db, ctx, text, /*optimize=*/true);
    EXPECT_EQ(CountOps(o1, monet::mil::OpCode::kScalarSum), 2);
    EXPECT_EQ(CountOps(o1, monet::mil::OpCode::kScalarBin), 1);
    EXPECT_EQ(CountOps(o1, monet::mil::OpCode::kMapBinary), 0);
    monet::ResetKernelStats();
    EXPECT_DOUBLE_EQ(RunScalar(db, o1, 4), want);
    EXPECT_EQ(monet::SnapshotKernelStats().materializations, 0u);

    monet::mil::Program o0 = Compile(db, ctx, text, /*optimize=*/false);
    EXPECT_EQ(CountOps(o0, monet::mil::OpCode::kMapBinary), 1);
    EXPECT_EQ(CountOps(o0, monet::mil::OpCode::kScalarSum), 1);
    EXPECT_EQ(CountOps(o0, monet::mil::OpCode::kScalarBin), 0);
    EXPECT_DOUBLE_EQ(RunScalar(db, o0, 4), want);
  }
}

}  // namespace
}  // namespace mirror::moa
