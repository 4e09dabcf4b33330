// Randomized equivalence testing: generates random databases and random
// queries from the supported grammar and checks that the naive
// interpreter, the sequential MIL Executor (materializing, with the
// pre-radix JoinLegacy) and the candidate-vector ExecutionEngine — at 1
// and 4 worker threads, with morsel splitting forced on via a tiny
// morsel size, with radix joins forced onto multiple partitions, with
// the program fanned out over 2- and 4-way oid-range shardings of the
// catalog, with zone-map + top-k pruning switched off, and with the
// recycler's candidate cache on (every query re-run hot, interleaved
// with catalog mutations that fence it) — all produce identical results
// (9 modes, each checked against the naive interpreter): the
// architecture's central theorem, probed far beyond the hand-written
// cases. The getBL ranking patterns flatten
// to join-heavy MIL, so the join and shard modes run over genuine
// multi-join plans with both shard-local and broadcast build sides;
// a coin flip wraps them in a truncated topN ranking so the WAND
// pruning path is exercised against the naive top-k.

#include <cmath>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "base/str_util.h"
#include "moa/database.h"
#include "moa/flatten.h"
#include "moa/naive_eval.h"
#include "moa/optimizer.h"
#include "monet/bat_ops.h"
#include "monet/exec.h"
#include "monet/mil.h"
#include "monet/recycler.h"

namespace mirror::moa {
namespace {

using monet::Oid;

constexpr const char* kWords[] = {"sun", "sea",  "sky",  "rock", "tree",
                                  "bird", "sand", "wave", "moss", "dune"};

void BuildRandomDatabase(Database* db, base::Rng* rng) {
  // Up to ~620 rows so the morsel-257 mode genuinely splits its scans
  // into several morsels (including a non-divisible remainder).
  int n = 20 + static_cast<int>(rng->Uniform(600));
  ASSERT_TRUE(db->Define("define S as SET<TUPLE<Atomic<URL>: u, "
                         "Atomic<int>: a, Atomic<int>: b, Atomic<dbl>: x, "
                         "CONTREP<Text>: doc>>;")
                  .ok());
  std::vector<MoaValue> objects;
  for (int i = 0; i < n; ++i) {
    std::vector<std::string> terms;
    int len = static_cast<int>(rng->Uniform(9));  // possibly empty
    for (int t = 0; t < len; ++t) {
      terms.push_back(kWords[rng->Uniform(std::size(kWords))]);
    }
    objects.push_back(MoaValue::Tuple(
        {MoaValue::Str("u" + std::to_string(i)),
         MoaValue::Int(rng->UniformInt(0, 20)),
         MoaValue::Int(rng->UniformInt(-5, 5)),
         MoaValue::Dbl(rng->UniformDouble(-1, 1)),
         MoaValue::ContRep(terms)}));
  }
  ASSERT_TRUE(db->Load("S", std::move(objects)).ok());
}

// Rebuild most dense catalog BATs as a shorter base plus catalog-level
// insert chunks with IDENTICAL visible contents.  The naive interpreter
// evaluates over the materialized MOA objects and never sees the
// catalog, so every engine mode must read straight through the delta
// layers (merged views, shard layouts, zone maps rebuilt per
// generation) and still agree bit-for-bit with the oracle.
void IntroduceDeltaTails(Database* db, base::Rng* rng) {
  monet::Catalog* catalog = db->catalog();
  bool any = false;
  for (const std::string& name : catalog->Names()) {
    auto bat = catalog->Get(name);
    ASSERT_TRUE(bat.ok()) << name;
    const monet::Bat& full = *bat.value();
    const size_t n = full.size();
    if (!full.head().is_void() || full.head().void_base() != 0 || n < 2) {
      continue;  // only dense oid-headed BATs support insert tails
    }
    if (rng->Uniform(4) == 0) continue;  // leave some BATs delta-free
    // Re-Put a truncated base, then re-append the suffix as one or two
    // insert chunks so multi-chunk tails get exercised too.
    const size_t cut = 1 + rng->Uniform(n - 1);
    std::vector<size_t> splits = {cut, n};
    if (n - cut >= 2 && rng->Uniform(2) == 0) {
      splits = {cut, cut + 1 + rng->Uniform(n - cut - 1), n};
    }
    auto slice = [&](size_t lo, size_t hi) -> monet::Column {
      switch (full.tail().type()) {
        case monet::ValueType::kInt: {
          std::vector<int64_t> v;
          for (size_t i = lo; i < hi; ++i) v.push_back(full.tail().IntAt(i));
          return monet::Column::MakeInts(std::move(v));
        }
        case monet::ValueType::kDbl: {
          std::vector<double> v;
          for (size_t i = lo; i < hi; ++i) v.push_back(full.tail().DblAt(i));
          return monet::Column::MakeDbls(std::move(v));
        }
        case monet::ValueType::kOid: {
          std::vector<Oid> v;
          for (size_t i = lo; i < hi; ++i) v.push_back(full.tail().OidAt(i));
          return monet::Column::MakeOids(std::move(v));
        }
        case monet::ValueType::kStr: {
          std::vector<std::string> v;
          for (size_t i = lo; i < hi; ++i) {
            v.emplace_back(full.tail().StrAt(i));
          }
          return monet::Column::MakeStrs(v);
        }
        default:
          ADD_FAILURE() << "unexpected tail type for " << name;
          return monet::Column::MakeVoid(0, 0);
      }
    };
    catalog->Put(name, monet::Bat(monet::Column::MakeVoid(0, cut),
                                  slice(0, cut)));
    size_t lo = cut;
    for (size_t hi : splits) {
      if (hi <= lo) continue;
      ASSERT_TRUE(catalog->Append(name, slice(lo, hi)).ok()) << name;
      lo = hi;
    }
    ASSERT_TRUE(catalog->HasDeltas(name)) << name;
    auto visible = catalog->VisibleRows(name);
    ASSERT_TRUE(visible.ok()) << name;
    ASSERT_EQ(visible.value(), n) << name;
    any = true;
  }
  ASSERT_TRUE(any);
}

// Random predicate over the atomic fields: one clause, a disjunction of
// two, or a conjunction of 2-4 clauses. Conjunctions usually hold a bound
// pair on one field (lower and upper bound in either order, strict or
// inclusive, sometimes crossing with lo > hi, sometimes with a further
// same-side bound); the flattener compiles the first lower and first
// upper bound into one select.range. Other conjuncts may be an `or`.
std::string RandomPredicate(base::Rng* rng) {
  auto clause = [&]() {
    const char* fields[] = {"THIS.a", "THIS.b"};
    const char* cmps[] = {"<", "<=", ">", ">=", "==", "!="};
    return base::StrFormat(
        "%s %s %lld", fields[rng->Uniform(2)], cmps[rng->Uniform(6)],
        static_cast<long long>(rng->UniformInt(-4, 18)));
  };
  switch (rng->Uniform(4)) {
    case 0:
      return clause();
    case 1:
      return clause() + " or " + clause();
    default:
      break;
  }
  std::vector<std::string> conj;
  const size_t n = 2 + rng->Uniform(3);
  if (rng->Uniform(4) != 0) {
    // a in [0, 20], b in [-5, 5], x in [-1, 1]; the bounds span a little
    // more. Literals on x are dbl; on a and b a third of them are too (a
    // dbl literal on an int field).
    const int f = static_cast<int>(rng->Uniform(3));
    const char* field = f == 0 ? "THIS.a" : f == 1 ? "THIS.b" : "THIS.x";
    const bool dbl = f == 2 || rng->Uniform(3) == 0;
    auto literal = [&](double v) {
      return dbl ? base::StrFormat("%.3f", v)
                 : base::StrFormat("%lld", static_cast<long long>(v));
    };
    const double from = f == 0 ? -1 : f == 1 ? -6 : -1.1;
    const double span = f == 0 ? 22 : f == 1 ? 12 : 2.2;
    auto point = [&]() {
      // Integral values half the time on int fields, dbl literals too, so
      // a bound can equal a stored value and its inclusivity matters.
      const double v = from + rng->UniformDouble(0, span);
      return f == 2 || (dbl && rng->Uniform(2) == 0) ? v : std::floor(v);
    };
    const double lo = point();
    // Crossing bounds (lo > hi) about one time in five.
    const double hi = lo + rng->UniformDouble(-0.15, 0.6) * span;
    auto lower = [&](double v) {
      return base::StrFormat("%s %s %s", field,
                             rng->Uniform(2) == 0 ? ">" : ">=",
                             literal(v).c_str());
    };
    auto upper = [&](double v) {
      return base::StrFormat("%s %s %s", field,
                             rng->Uniform(2) == 0 ? "<" : "<=",
                             literal(v).c_str());
    };
    conj.push_back(lower(lo));
    conj.push_back(upper(hi));
    if (conj.size() < n && rng->Uniform(2) == 0) {
      conj.push_back(rng->Uniform(2) == 0 ? lower(point()) : upper(point()));
    }
  }
  while (conj.size() < n) {
    conj.push_back(rng->Uniform(4) == 0
                       ? "(" + clause() + " or " + clause() + ")"
                       : clause());
  }
  for (size_t k = conj.size() - 1; k > 0; --k) {
    std::swap(conj[k], conj[rng->Uniform(k + 1)]);
  }
  std::string out = conj[0];
  for (size_t k = 1; k < conj.size(); ++k) out += " and " + conj[k];
  return out;
}

// Random query: either a scalar map chain or a getBL ranking pattern
// with a random combination operator, over an optionally selected /
// semijoined set. max/pand/por only flatten unweighted queries. When the
// ranking is wrapped in a truncating topN, `untruncated` receives the
// inner query (the full ranking) — the oracle for row-identity checks;
// it stays empty otherwise.
std::string RandomQuery(base::Rng* rng, bool weighted,
                        std::string* untruncated) {
  untruncated->clear();
  std::string source = "S";
  if (rng->Uniform(2) == 0) {
    source = "select[" + RandomPredicate(rng) + "](" + source + ")";
  }
  if (rng->Uniform(4) == 0) {
    source = "semijoin(" + source + ", select[" + RandomPredicate(rng) +
             "](S))";
  }
  if (rng->Uniform(2) == 0) {
    const char* weighted_safe[] = {"sum", "avg", "count"};
    const char* unweighted_only[] = {"sum", "avg", "count",
                                     "max", "pand", "por"};
    const char* agg = weighted ? weighted_safe[rng->Uniform(3)]
                               : unweighted_only[rng->Uniform(6)];
    std::string ranked = base::StrFormat(
        "map[%s(THIS)](map[getBL(THIS.doc, query, stats)](%s))", agg,
        source.c_str());
    // Ranking plans: wrapping the scored set in a descending topN couples
    // the WAND top-k threshold when the aggregate is a sole-consumer prob
    // combinator (pand/por), so the pruned engines run against the naive
    // oracle here. k spans under-, at- and over-sized results.
    if (rng->Uniform(2) == 0) {
      constexpr int64_t kTopKs[] = {1, 10, 257};
      *untruncated = ranked + ";";
      ranked = base::StrFormat("topN(%s, %lld)", ranked.c_str(),
                               static_cast<long long>(
                                   kTopKs[rng->Uniform(std::size(kTopKs))]));
    }
    return ranked + ";";
  }
  // Scalar arithmetic map (possibly composed). The last five bodies leave
  // int arithmetic in the middle of a chain of map steps — at a `/`, a dbl
  // constant, or the map.unary negation of `lit - expr` — so mapped views
  // must promote exactly where the materializing kernels do.
  const char* bodies[] = {"THIS.a + THIS.b",     "THIS.a * 2 + 1",
                          "THIS.x * THIS.x",     "THIS.a - THIS.b * 3",
                          "THIS.a / 4",          "THIS.a * 0.5 + 1",
                          "THIS.x * 0.5 + 1",
                          "THIS.a * 3 / 4 + 1",  "2 - THIS.a * 3"};
  std::string body = bodies[rng->Uniform(std::size(bodies))];
  if (rng->Uniform(4) == 0) {
    // Two dbl multipliers that agree to 6 significant digits: distinct
    // immediates that a %g rendering would print alike, so a plan that
    // identifies instructions by such text merges them.
    const char* field = rng->Uniform(2) == 0 ? "THIS.a" : "THIS.x";
    const double c = 1 + rng->UniformDouble(0, 1);
    body = base::StrFormat("%s * %.9f %s %s * %.9f", field, c,
                           rng->Uniform(2) == 0 ? "+" : "-", field, c + 1e-7);
  }
  std::string query =
      base::StrFormat("map[%s](%s)", body.c_str(), source.c_str());
  if (rng->Uniform(4) == 0) {
    // A value predicate over the mapped set: a bound pair on THIS.
    const long long k = rng->UniformInt(-4, 20);
    const long long m = k + rng->UniformInt(-2, 20);
    query = base::StrFormat("select[THIS %s %lld and THIS %s %lld](%s)",
                            rng->Uniform(2) == 0 ? ">=" : ">", k,
                            rng->Uniform(2) == 0 ? "<" : "<=", m,
                            query.c_str());
  }
  if (rng->Uniform(2) == 0) {
    query = base::StrFormat("map[THIS * %lld + 1](%s)",
                            static_cast<long long>(rng->UniformInt(2, 4)),
                            query.c_str());
  }
  // Scalar aggregate over the mapped set: sum/count/avg flatten to the
  // fused scalar forms (sum(a ± b) to two sums), max/min to scalar.fold
  // when optimized and to sum(topN(1)) when not.
  if (rng->Uniform(3) == 0) {
    const char* scalar_aggs[] = {"sum", "count", "avg", "max", "min"};
    query = base::StrFormat("%s(%s)", scalar_aggs[rng->Uniform(5)],
                            query.c_str());
  }
  return query + ";";
}

std::map<Oid, double> RunNaive(const Database& db, const QueryContext& ctx,
                               const ExprPtr& expr) {
  NaiveEvaluator naive(&db, &ctx);
  auto result = naive.Evaluate(expr);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  std::map<Oid, double> out;
  if (result.value().is_scalar) {
    // Scalar results compare as a single pseudo-row keyed by oid 0.
    out[0] = result.value().scalar.AsDouble();
    return out;
  }
  const monet::Bat& bat = *result.value().bat;
  for (size_t i = 0; i < bat.size(); ++i) {
    out[bat.head().OidAt(i)] = bat.tail().NumAt(i);
  }
  return out;
}

/// How to run the flattened program.
struct EngineMode {
  const char* label;
  bool engine;  // false = the sequential mil::Executor, the MIL oracle
  int num_threads = 1;
  size_t morsel_size = 64 * 1024;
  size_t radix_partitions = 0;
  size_t num_shards = 0;
  bool zone_maps = true;
  bool topk_prune = true;
  /// Consult/populate a test-scoped Recycler for select candidates.
  bool recycle = false;
};

constexpr EngineMode kEngineModes[] = {
    {"sequential-executor", false},
    {"engine-1-thread", true, 1},
    {"engine-4-threads", true, 4},
    // Tiny morsel size: every scan over the few-hundred-row base splits
    // into several pool-dispatched morsels, exercising fragment concat
    // and partial-aggregate merging on every query.
    {"engine-4-threads-morsel-257", true, 4, 257},
    // Radix joins forced onto 8 partitions with tiny morsels: the
    // multi-partition cluster/build/probe pipeline runs even over the
    // few-hundred-row bases of these databases.
    {"engine-4-threads-radix-parts-8", true, 4, 257, 8},
    // Shard-parallel scatter/gather over the catalog's oid-range
    // sharding: 2 shards under a real pool with tiny morsels (shard and
    // morsel fan-out nest), and 4 shards single-threaded (deterministic
    // sequential shard execution, with several empty or tiny fragments
    // on the smallest databases).
    {"engine-4-threads-2-shards", true, 4, 257, 0, 2},
    {"engine-1-thread-4-shards", true, 1, 64 * 1024, 0, 4},
    // Statistics pruning off: zone maps and the top-k threshold are the
    // only difference from the default modes above, so any disagreement
    // pins the blame on the pruning layer.
    // (The default-flag modes above all run pruned — zone maps and the
    // top-k threshold default on — including the sharded ones, where
    // threshold offers race across shards.)
    {"engine-4-threads-unpruned", true, 4, 257, 0, 0, false, false},
    // The recycler's candidate cache on, with tiny morsels: selects
    // replay or get seeded from previously cached candidate lists (the
    // main loop runs this mode hot — every query twice — and fences the
    // recycler around the mid-run catalog mutation).
    {"engine-4-threads-recycler", true, 4, 257, 0, 0, true, true, true},
};

// The optimized flattener's emission is the final plan: no instruction
// repeats an earlier one and every instruction feeds the result.
void ExpectNoRedundantInstructions(const monet::mil::Program& prog) {
  const std::vector<monet::mil::Instr>& instrs = prog.instrs();
  for (size_t k = 0; k < instrs.size(); ++k) {
    for (size_t j = 0; j < k; ++j) {
      EXPECT_FALSE(instrs[k].SameOperation(instrs[j]))
          << instrs[k].ToString() << " repeats " << instrs[j].ToString();
    }
  }
  std::vector<bool> live(static_cast<size_t>(prog.num_regs()), false);
  ASSERT_GE(prog.result_reg(), 0);
  live[static_cast<size_t>(prog.result_reg())] = true;
  for (size_t k = instrs.size(); k-- > 0;) {
    const monet::mil::Instr& i = instrs[k];
    if (!live[static_cast<size_t>(i.dst)]) {
      ADD_FAILURE() << i.ToString() << " does not reach the result";
      continue;
    }
    for (int src : {i.src0, i.src1, i.src2}) {
      if (src >= 0) live[static_cast<size_t>(src)] = true;
    }
  }
}

std::map<Oid, double> RunFlat(const Database& db, const QueryContext& ctx,
                              const ExprPtr& expr, bool optimize,
                              const EngineMode& mode,
                              monet::mil::ExecutionContext* session,
                              monet::Recycler* recycler = nullptr) {
  ExprPtr logical = expr;
  OptimizerReport report;
  if (optimize) logical = RewriteLogical(logical, &report);
  Flattener flattener(&db, &ctx, FlattenOptions{.optimize = optimize});
  auto program = flattener.Compile(logical);
  if (!program.ok()) {
    ADD_FAILURE() << program.status().ToString()
                  << "\nquery: " << expr->ToString();
    return {};
  }
  monet::mil::Program prog = program.TakeValue();
  if (optimize) ExpectNoRedundantInstructions(prog);
  base::Result<monet::mil::RunResult> run =
      base::Status::Internal("unreachable");
  if (mode.engine) {
    monet::mil::ExecutionEngine engine(
        &db.catalog(),
        monet::mil::ExecOptions{.num_threads = mode.num_threads,
                                .morsel_size = mode.morsel_size,
                                .radix_partitions = mode.radix_partitions,
                                .num_shards = mode.num_shards,
                                .zone_maps = mode.zone_maps,
                                .topk_prune = mode.topk_prune,
                                .recycle = mode.recycle,
                                .recycler = mode.recycle ? recycler : nullptr,
                                .recycler_generation =
                                    (mode.recycle && recycler != nullptr)
                                        ? recycler->generation()
                                        : 0});
    run = engine.Run(prog, session);
  } else {
    run = monet::mil::Executor(&db.catalog()).Run(prog);
  }
  if (!run.ok()) {
    ADD_FAILURE() << mode.label << ": " << run.status().ToString()
                  << "\nquery: " << expr->ToString();
    return {};
  }
  std::map<Oid, double> out;
  if (run.value().is_scalar) {
    out[0] = run.value().scalar;
    return out;
  }
  const monet::Bat& bat = *run.value().bat;
  for (size_t i = 0; i < bat.size(); ++i) {
    out[bat.head().OidAt(i)] = bat.tail().NumAt(i);
  }
  return out;
}

class FuzzEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzEquivalenceTest, NaiveAndFlattenedAgreeOnRandomQueries) {
  base::Rng rng(GetParam());
  Database db;
  BuildRandomDatabase(&db, &rng);
  IntroduceDeltaTails(&db, &rng);
  QueryContext ctx;
  // Random query binding: 1-4 terms, some possibly unknown, random
  // weights on half the runs.
  std::vector<WeightedTerm> binding;
  int qlen = 1 + static_cast<int>(rng.Uniform(4));
  bool weighted = rng.Uniform(2) == 0;
  std::set<std::string> used;
  for (int t = 0; t < qlen; ++t) {
    std::string term = rng.Uniform(5) == 0
                           ? "unknownword"
                           : kWords[rng.Uniform(std::size(kWords))];
    // Duplicate terms merge into weights at resolution; the nonlinear
    // aggregates (max/pand/por) only flatten with unit weights, so the
    // unweighted runs sample distinct terms.
    if (!weighted && !used.insert(term).second) continue;
    binding.push_back(
        {term, weighted ? rng.UniformDouble(0.25, 3.0) : 1.0});
  }
  ctx.Bind("query", binding);

  monet::mil::ExecutionContext session;
  // One recycler shared by the whole seed: entries cached by query q are
  // live for query q+1, exactly as the server-wide instance behaves.
  monet::Recycler recycler;
  for (int q = 0; q < 12; ++q) {
    if (q == 6) {
      // Mid-run catalog mutation: delta tails grow under the cached
      // candidate lists. The MirrorDb write path fences the recycler
      // around every mutation; this test holds the same contract, and
      // the remaining 6 queries prove the fence suffices — the hot
      // re-runs below would otherwise replay stale positions.
      IntroduceDeltaTails(&db, &rng);
      recycler.Fence();
    }
    std::string untruncated;
    std::string text = RandomQuery(&rng, weighted, &untruncated);
    SCOPED_TRACE(text);
    auto expr = ParseExpr(text);
    ASSERT_TRUE(expr.ok()) << expr.status().ToString();
    auto naive = RunNaive(db, ctx, expr.value());
    // A truncating topN turns sub-epsilon score inversions at the k'th
    // boundary into membership differences (engine scores differ from
    // naive in last ulps), so ranked queries compare rank-by-rank scores
    // plus row identity against the full untruncated naive ranking —
    // the engine-vs-engine bit-identity (stable ties included) is pinned
    // by the deterministic monet_zone_map_test cases instead.
    std::map<Oid, double> naive_full;
    if (!untruncated.empty()) {
      auto full_expr = ParseExpr(untruncated);
      ASSERT_TRUE(full_expr.ok()) << full_expr.status().ToString();
      naive_full = RunNaive(db, ctx, full_expr.value());
    }
    // Every engine mode, optimized and unoptimized, must agree with the
    // naive interpreter exactly (same result set, scores within epsilon).
    for (const EngineMode& mode : kEngineModes) {
      SCOPED_TRACE(mode.label);
      for (bool optimize : {true, false}) {
        auto flat = RunFlat(db, ctx, expr.value(), optimize, mode, &session,
                            &recycler);
        if (mode.recycle) {
          // Hot re-run: the second execution replays / is seeded by the
          // candidate lists the first one just published, and must be
          // EXACTLY the first result — same rows, same score bits.
          auto hot = RunFlat(db, ctx, expr.value(), optimize, mode,
                             &session, &recycler);
          ASSERT_EQ(flat.size(), hot.size()) << "optimize=" << optimize;
          for (const auto& [oid, score] : flat) {
            ASSERT_TRUE(hot.count(oid)) << "oid " << oid;
            ASSERT_EQ(hot.at(oid), score)
                << "recycled run diverged at oid " << oid;
          }
        }
        ASSERT_EQ(naive.size(), flat.size()) << "optimize=" << optimize;
        if (untruncated.empty()) {
          for (const auto& [oid, score] : naive) {
            ASSERT_TRUE(flat.count(oid))
                << "oid " << oid << " naive score " << score;
            EXPECT_NEAR(flat.at(oid), score, 1e-9)
                << "oid " << oid << " optimize=" << optimize;
          }
        } else {
          // Row identity: every returned row exists and carries its own
          // true score (no row can ride in on another's score).
          for (const auto& [oid, score] : flat) {
            ASSERT_TRUE(naive_full.count(oid)) << "oid " << oid;
            EXPECT_NEAR(naive_full.at(oid), score, 1e-9) << "oid " << oid;
          }
          // Ranking identity: the k'th-ranked score agrees at every rank.
          std::vector<double> want;
          std::vector<double> got;
          for (const auto& [oid, score] : naive) want.push_back(score);
          for (const auto& [oid, score] : flat) got.push_back(score);
          std::sort(want.rbegin(), want.rend());
          std::sort(got.rbegin(), got.rend());
          for (size_t i = 0; i < want.size(); ++i) {
            EXPECT_NEAR(want[i], got[i], 1e-9) << "rank " << i;
          }
        }
      }
    }
  }
  // Whenever a select consulted the recycler and missed (so its
  // candidates were offered to the cache), the hot re-runs above must
  // actually have reused cached candidate lists.
  monet::RecyclerStats rs = recycler.stats();
  if (rs.candidate_misses > 0) {
    EXPECT_GT(rs.candidate_hits + rs.candidate_subsumption_hits, 0u)
        << rs.candidate_misses << " candidate misses, never a hit";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 21));

// ---------------------------------------------------------------------------
// String-heap sharing edge cases across Concat/Gather: operator outputs
// must stay correct whether columns share one interned heap or come from
// distinct heaps, including through candidate materialization.

TEST(StringHeapEdgeCases, ConcatAcrossDistinctHeapsReinterns) {
  using monet::Bat;
  using monet::Value;
  Bat a = Bat::DenseStrs({"sun", "sea", "sun"});
  Bat b = Bat::DenseStrs({"sea", "dune", "sun"}, /*base=*/3);
  ASSERT_NE(a.tail().heap(), b.tail().heap());
  Bat c = monet::Concat(a, b);
  ASSERT_EQ(c.size(), 6u);
  // Re-interned into a copy of a's heap, which a itself never sees: a's
  // rows keep their offsets and equal strings have equal offsets again.
  EXPECT_NE(c.tail().heap(), a.tail().heap());
  EXPECT_EQ(a.tail().heap()->size(), 2u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(c.tail().StrOffsetAt(i), a.tail().StrOffsetAt(i));
  }
  EXPECT_EQ(c.tail().StrAt(1), "sea");
  EXPECT_EQ(c.tail().StrAt(3), "sea");
  EXPECT_EQ(c.tail().StrOffsetAt(1), c.tail().StrOffsetAt(3));
  EXPECT_EQ(c.tail().StrOffsetAt(0), c.tail().StrOffsetAt(5));
  EXPECT_EQ(c.tail().StrAt(4), "dune");
  // Selection over the concatenated column sees both halves.
  Bat suns = monet::SelectEq(c, Value::MakeStr("sun"));
  ASSERT_EQ(suns.size(), 3u);
  EXPECT_EQ(suns.head().OidAt(0), 0u);
  EXPECT_EQ(suns.head().OidAt(1), 2u);
  EXPECT_EQ(suns.head().OidAt(2), 5u);
}

TEST(StringHeapEdgeCases, ConcatOfGatheredSharedHeapColumnsStaysShared) {
  using monet::Bat;
  using monet::CandidateList;
  using monet::Value;
  Bat base = Bat::DenseStrs({"sun", "sea", "sky", "sun", "sea", "dune"});
  // Two candidate materializations off the same base share its heap...
  Bat first = monet::Materialize(
      base, monet::SelectEqCand(base, Value::MakeStr("sun")));
  Bat second = monet::Materialize(
      base, monet::SelectEqCand(base, Value::MakeStr("sea")));
  EXPECT_EQ(first.tail().heap(), base.tail().heap());
  EXPECT_EQ(second.tail().heap(), base.tail().heap());
  // ...so their concat takes the shared-heap fast path (offset append).
  Bat merged = monet::Concat(first, second);
  EXPECT_EQ(merged.tail().heap(), base.tail().heap());
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged.tail().StrAt(0), "sun");
  EXPECT_EQ(merged.tail().StrAt(2), "sea");
  // Histogram over the merged column groups by heap offset correctly.
  Bat hist = monet::CountPerTailValue(merged);
  ASSERT_EQ(hist.size(), 2u);
  EXPECT_EQ(hist.head().StrAt(0), "sea");
  EXPECT_EQ(hist.tail().IntAt(0), 2);
  EXPECT_EQ(hist.head().StrAt(1), "sun");
  EXPECT_EQ(hist.tail().IntAt(1), 2);
}

TEST(StringHeapEdgeCases, SemiJoinAcrossDistinctHeapsComparesBySpelling) {
  using monet::Bat;
  // Same spellings, different heaps: the kernel must fall back to string
  // comparison (not offset comparison).
  Bat l = Bat::DenseStrs({"sun", "sea", "sky"});
  Bat r = Bat::DenseStrs({"sky", "sun"});
  ASSERT_NE(l.tail().heap(), r.tail().heap());
  Bat kept = monet::SemiJoinTail(l, r);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept.tail().StrAt(0), "sun");
  EXPECT_EQ(kept.tail().StrAt(1), "sky");
  // Candidate form agrees.
  Bat kept_late =
      monet::Materialize(l, monet::SemiJoinTailCand(l, r));
  ASSERT_EQ(kept_late.size(), 2u);
  EXPECT_EQ(kept_late.tail().StrAt(0), "sun");
  EXPECT_EQ(kept_late.tail().StrAt(1), "sky");
}

}  // namespace
}  // namespace mirror::moa
