// Integration tests for the central correctness theorem of the Mirror
// architecture: the flattened (set-at-a-time, BAT-level) execution of a Moa
// query produces exactly the same result as the naive (tuple-at-a-time,
// object-level) interpretation. [BWK98] relies on this equivalence; every
// experiment in EXPERIMENTS.md does too.

#include <cmath>
#include <map>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "moa/database.h"
#include "moa/expr.h"
#include "moa/flatten.h"
#include "moa/naive_eval.h"
#include "moa/optimizer.h"
#include "moa/query_context.h"
#include "monet/mil.h"

namespace mirror::moa {
namespace {

using monet::Oid;

// Builds the paper's §3 library: annotated images.
void BuildTraditionalImgLib(Database* db, int num_images, uint64_t seed) {
  ASSERT_TRUE(db->Define("define TraditionalImgLib as "
                         "SET< TUPLE< Atomic<URL>: source, "
                         "CONTREP<Text>: annotation >>;")
                  .ok());
  static const char* const kWords[] = {
      "sunset", "beach",  "mountain", "forest", "river", "city",
      "night",  "bridge", "flower",   "garden", "snow",  "desert",
      "cloud",  "storm",  "harbor",   "island", "valley", "meadow"};
  base::Rng rng(seed);
  std::vector<MoaValue> objects;
  for (int i = 0; i < num_images; ++i) {
    std::vector<std::string> terms;
    int len = 3 + static_cast<int>(rng.Uniform(8));
    for (int t = 0; t < len; ++t) {
      terms.push_back(kWords[rng.Uniform(std::size(kWords))]);
    }
    objects.push_back(MoaValue::Tuple(
        {MoaValue::Str("http://img/" + std::to_string(i)),
         MoaValue::ContRep(terms)}));
  }
  ASSERT_TRUE(db->Load("TraditionalImgLib", std::move(objects)).ok());
}

std::map<Oid, double> BatToMap(const monet::Bat& bat) {
  std::map<Oid, double> out;
  for (size_t i = 0; i < bat.size(); ++i) {
    out[bat.head().OidAt(i)] = bat.tail().NumAt(i);
  }
  return out;
}

struct BothResults {
  std::map<Oid, double> naive;
  std::map<Oid, double> flattened;
};

BothResults RunBoth(Database* db, const QueryContext& ctx,
                    const std::string& query_text, bool optimize) {
  BothResults out;
  auto expr = ParseExpr(query_text);
  EXPECT_TRUE(expr.ok()) << expr.status().ToString();

  NaiveEvaluator naive(db, &ctx);
  auto naive_result = naive.Evaluate(expr.value());
  EXPECT_TRUE(naive_result.ok()) << naive_result.status().ToString();
  out.naive = BatToMap(*naive_result.value().bat);

  ExprPtr logical = expr.value();
  OptimizerReport report;
  if (optimize) logical = RewriteLogical(logical, &report);
  Flattener flattener(db, &ctx, FlattenOptions{.optimize = optimize});
  auto program = flattener.Compile(logical);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  monet::mil::Executor executor(db->catalog());
  auto run = executor.Run(program.value());
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_FALSE(run.value().is_scalar);
  out.flattened = BatToMap(*run.value().bat);
  return out;
}

struct ScalarResults {
  double naive = 0;
  double flattened = 0;
};

ScalarResults RunScalarBoth(Database* db, const QueryContext& ctx,
                            const std::string& query_text,
                            bool optimize = true) {
  ScalarResults out;
  auto expr = ParseExpr(query_text);
  EXPECT_TRUE(expr.ok()) << expr.status().ToString();
  if (!expr.ok()) return out;

  NaiveEvaluator naive(db, &ctx);
  auto naive_result = naive.Evaluate(expr.value());
  EXPECT_TRUE(naive_result.ok()) << naive_result.status().ToString();
  if (naive_result.ok()) {
    EXPECT_TRUE(naive_result.value().is_scalar);
    out.naive = naive_result.value().scalar.AsDouble();
  }

  ExprPtr logical = expr.value();
  if (optimize) logical = RewriteLogical(logical, nullptr);
  Flattener flattener(db, &ctx, FlattenOptions{.optimize = optimize});
  auto program = flattener.Compile(logical);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  if (!program.ok()) return out;
  monet::mil::Executor executor(db->catalog());
  auto run = executor.Run(program.value());
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  if (run.ok()) {
    EXPECT_TRUE(run.value().is_scalar);
    out.flattened = run.value().scalar;
  }
  return out;
}

void ExpectSameScores(const std::map<Oid, double>& a,
                      const std::map<Oid, double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [oid, score] : a) {
    auto it = b.find(oid);
    ASSERT_NE(it, b.end()) << "missing oid " << oid;
    EXPECT_NEAR(score, it->second, 1e-9) << "oid " << oid;
  }
}

class PaperQueryTest : public ::testing::TestWithParam<bool> {};

TEST_P(PaperQueryTest, Section3RankingQueryMatchesAcrossEngines) {
  Database db;
  BuildTraditionalImgLib(&db, 200, /*seed=*/7);
  QueryContext ctx;
  ctx.BindTerms("query", {"sunset", "beach"});

  BothResults r = RunBoth(&db, ctx,
                          "map[sum(THIS)]("
                          "  map[getBL(THIS.annotation, query, stats)]("
                          "    TraditionalImgLib));",
                          /*optimize=*/GetParam());
  EXPECT_EQ(r.naive.size(), 200u);  // map is total
  ExpectSameScores(r.naive, r.flattened);
}

TEST_P(PaperQueryTest, RankingWithUnknownQueryTermsMatches) {
  Database db;
  BuildTraditionalImgLib(&db, 64, /*seed=*/13);
  QueryContext ctx;
  ctx.BindTerms("query", {"sunset", "zeppelin", "quixotic"});

  BothResults r = RunBoth(&db, ctx,
                          "map[sum(THIS)](map[getBL(THIS.annotation, query, "
                          "stats)](TraditionalImgLib));",
                          GetParam());
  ExpectSameScores(r.naive, r.flattened);
}

TEST_P(PaperQueryTest, WeightedQueryMatches) {
  Database db;
  BuildTraditionalImgLib(&db, 100, /*seed=*/23);
  QueryContext ctx;
  ctx.Bind("query", {{"sunset", 2.0}, {"mountain", 0.5}, {"city", 1.25}});

  BothResults r = RunBoth(&db, ctx,
                          "map[sum(THIS)](map[getBL(THIS.annotation, query, "
                          "stats)](TraditionalImgLib));",
                          GetParam());
  ExpectSameScores(r.naive, r.flattened);
}

TEST_P(PaperQueryTest, SelectionThenRankingMatches) {
  Database db;
  ASSERT_TRUE(db.Define("define Lib as SET< TUPLE< Atomic<URL>: source, "
                        "Atomic<int>: year, CONTREP<Text>: annotation >>;")
                  .ok());
  base::Rng rng(31);
  std::vector<MoaValue> objects;
  static const char* const kWords[] = {"sunset", "beach", "city", "night"};
  for (int i = 0; i < 150; ++i) {
    std::vector<std::string> terms;
    for (int t = 0; t < 5; ++t) {
      terms.push_back(kWords[rng.Uniform(std::size(kWords))]);
    }
    objects.push_back(MoaValue::Tuple(
        {MoaValue::Str("http://img/" + std::to_string(i)),
         MoaValue::Int(1990 + static_cast<int64_t>(rng.Uniform(12))),
         MoaValue::ContRep(terms)}));
  }
  ASSERT_TRUE(db.Load("Lib", std::move(objects)).ok());
  QueryContext ctx;
  ctx.BindTerms("query", {"sunset", "night"});

  BothResults r =
      RunBoth(&db, ctx,
              "map[sum(THIS)](map[getBL(THIS.annotation, query, stats)]("
              "  select[THIS.year >= 1995](Lib)));",
              GetParam());
  ExpectSameScores(r.naive, r.flattened);
  // Selection must actually restrict the result.
  EXPECT_LT(r.naive.size(), 150u);
  EXPECT_GT(r.naive.size(), 0u);
}

TEST_P(PaperQueryTest, ScalarMapAndSelectMatches) {
  Database db;
  ASSERT_TRUE(
      db.Define(
            "define T as SET< TUPLE< Atomic<int>: x, Atomic<dbl>: y >>;")
          .ok());
  base::Rng rng(5);
  std::vector<MoaValue> objects;
  for (int i = 0; i < 50; ++i) {
    objects.push_back(
        MoaValue::Tuple({MoaValue::Int(static_cast<int64_t>(i % 10)),
                         MoaValue::Dbl(rng.UniformDouble())}));
  }
  ASSERT_TRUE(db.Load("T", std::move(objects)).ok());
  QueryContext ctx;

  BothResults r = RunBoth(&db, ctx,
                          "map[THIS.x * 2 + 1](select[THIS.x < 7 and "
                          "THIS.x != 3](T));",
                          GetParam());
  ExpectSameScores(r.naive, r.flattened);
  for (const auto& [oid, v] : r.naive) {
    EXPECT_EQ(static_cast<int64_t>(v) % 2, 1);  // 2x+1 is odd
  }
}

TEST_P(PaperQueryTest, InferenceNetworkCombinatorsMatch) {
  // The InQuery combination operators at the Moa level: probabilistic
  // AND (pand), probabilistic OR (por), max and avg over getBL.
  Database db;
  BuildTraditionalImgLib(&db, 120, /*seed=*/41);
  QueryContext ctx;
  ctx.BindTerms("query", {"sunset", "mountain", "harbor"});
  for (const char* agg : {"avg", "max", "pand", "por"}) {
    SCOPED_TRACE(agg);
    BothResults r = RunBoth(
        &db, ctx,
        std::string("map[") + agg +
            "(THIS)](map[getBL(THIS.annotation, query, stats)]("
            "TraditionalImgLib));",
        GetParam());
    EXPECT_EQ(r.naive.size(), 120u);
    ExpectSameScores(r.naive, r.flattened);
    // pand/por produce probabilities.
    if (std::string(agg) == "pand" || std::string(agg) == "por") {
      for (const auto& [oid, score] : r.flattened) {
        EXPECT_GT(score, 0.0);
        EXPECT_LT(score, 1.0);
      }
    }
  }
}

TEST_P(PaperQueryTest, ProbabilisticAndIsMorePeakedThanOr) {
  // por dominates pand pointwise (OR of evidence >= AND of evidence).
  Database db;
  BuildTraditionalImgLib(&db, 80, /*seed=*/43);
  QueryContext ctx;
  ctx.BindTerms("query", {"sunset", "beach"});
  BothResults pand = RunBoth(
      &db, ctx,
      "map[pand(THIS)](map[getBL(THIS.annotation, query, stats)]("
      "TraditionalImgLib));",
      GetParam());
  BothResults por = RunBoth(
      &db, ctx,
      "map[por(THIS)](map[getBL(THIS.annotation, query, stats)]("
      "TraditionalImgLib));",
      GetParam());
  for (const auto& [oid, and_score] : pand.flattened) {
    EXPECT_GE(por.flattened.at(oid) + 1e-12, and_score) << "oid " << oid;
  }
}

TEST_P(PaperQueryTest, NearlyEqualDblImmediatesStayDistinct) {
  // The two multipliers agree to 6 significant digits (a %g rendering
  // prints both as 1): instructions must be told apart by their
  // immediates' bits, or the two products merge and the sum reads 0.
  // sum(a - b) compiles to sum(a) - sum(b) when optimized.
  Database db;
  ASSERT_TRUE(db.Define("define S as SET<TUPLE<Atomic<int>: x>>;").ok());
  std::vector<MoaValue> objects;
  for (int i = 1; i <= 1000; ++i) {
    objects.push_back(MoaValue::Tuple({MoaValue::Int(i)}));
  }
  ASSERT_TRUE(db.Load("S", std::move(objects)).ok());
  QueryContext ctx;
  ScalarResults r = RunScalarBoth(
      &db, ctx, "sum(map[(THIS.x * 1.0000001) - (THIS.x * 1.0000002)](S));",
      GetParam());
  EXPECT_NEAR(r.naive, -0.05005, 1e-9);
  EXPECT_NEAR(r.flattened, r.naive, 1e-9);
  BothResults mapped = RunBoth(
      &db, ctx, "map[(THIS.x * 1.0000001) - (THIS.x * 1.0000002)](S);",
      GetParam());
  ExpectSameScores(mapped.naive, mapped.flattened);
  EXPECT_NEAR(mapped.flattened.at(999), -1e-4, 1e-9);
}

// A Load that fails part-way (here on the last row of the last field)
// must leave the previous contents whole: the BATs the flattened engine
// reads, the bindings, the cardinality and the naive oracle's objects.
TEST(FailedLoadTest, KeepsPreviousContentsOnBothPaths) {
  Database db;
  ASSERT_TRUE(db.Define("define Cat as SET<TUPLE<Atomic<URL>: u, "
                        "Atomic<int>: year, Atomic<int>: rating>>;")
                  .ok());
  auto rows = [](int n, bool bad_last_rating) {
    std::vector<MoaValue> out;
    for (int i = 0; i < n; ++i) {
      MoaValue rating = bad_last_rating && i == n - 1
                            ? MoaValue::Str("five")
                            : MoaValue::Int(10 * (i + 1));
      out.push_back(MoaValue::Tuple({MoaValue::Str("c" + std::to_string(i)),
                                     MoaValue::Int(1990 + i), rating}));
    }
    return out;
  };
  ASSERT_TRUE(db.Load("Cat", rows(4, false)).ok());
  QueryContext ctx;
  const std::string sum = "sum(map[THIS.rating](Cat));";
  const std::string mapped = "map[THIS.rating](select[THIS.year > 1990](Cat));";
  ScalarResults sum_before = RunScalarBoth(&db, ctx, sum);
  EXPECT_EQ(sum_before.naive, 100);
  EXPECT_EQ(sum_before.flattened, 100);
  BothResults mapped_before = RunBoth(&db, ctx, mapped, /*optimize=*/true);

  base::Status failed = db.Load("Cat", rows(10, true));
  EXPECT_EQ(failed.code(), base::StatusCode::kTypeError);
  EXPECT_EQ(failed.message(), "Cat.rating: expected int");

  auto set = db.GetSet("Cat");
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set.value()->cardinality, 4u);
  EXPECT_EQ(set.value()->objects.size(), 4u);
  ScalarResults sum_after = RunScalarBoth(&db, ctx, sum);
  EXPECT_EQ(sum_after.naive, 100);
  EXPECT_EQ(sum_after.flattened, 100);
  BothResults mapped_after = RunBoth(&db, ctx, mapped, /*optimize=*/true);
  EXPECT_EQ(mapped_after.naive, mapped_before.naive);
  EXPECT_EQ(mapped_after.flattened, mapped_before.flattened);
  ExpectSameScores(mapped_after.naive, mapped_after.flattened);
  EXPECT_EQ(mapped_after.naive.size(), 3u);
}

TEST(FailedLoadTest, KeepsPreviousContentIndex) {
  Database db;
  BuildTraditionalImgLib(&db, 40, /*seed=*/3);
  QueryContext ctx;
  ctx.BindTerms("query", {"sunset", "beach"});
  const std::string ranking =
      "map[sum(THIS)](map[getBL(THIS.annotation, query, stats)]("
      "TraditionalImgLib));";
  BothResults before = RunBoth(&db, ctx, ranking, /*optimize=*/true);

  // The source column shreds fine; the annotation fails on the last row.
  std::vector<MoaValue> objects;
  for (int i = 0; i < 8; ++i) {
    objects.push_back(MoaValue::Tuple(
        {MoaValue::Str("http://other/" + std::to_string(i)),
         i < 7 ? MoaValue::ContRep({"zeppelin"}) : MoaValue::Int(1)}));
  }
  EXPECT_FALSE(db.Load("TraditionalImgLib", std::move(objects)).ok());

  BothResults after = RunBoth(&db, ctx, ranking, /*optimize=*/true);
  EXPECT_EQ(after.naive.size(), 40u);
  ExpectSameScores(after.naive, before.naive);
  ExpectSameScores(after.flattened, before.flattened);
}

INSTANTIATE_TEST_SUITE_P(OptimizeOnOff, PaperQueryTest,
                         ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Optimized" : "Unoptimized";
                         });

}  // namespace
}  // namespace mirror::moa
