// End-to-end tests of the Mirror DBMS and the §5 demo application: schema
// definition, the paper's queries through the full engine, dual-coding
// retrieval and relevance feedback on the synthetic library.

#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "mirror/mirror_db.h"
#include "mirror/retrieval_app.h"
#include "mm/synthetic_library.h"

namespace mirror::db {
namespace {

TEST(MirrorDbTest, DefineLoadQueryRoundTrip) {
  MirrorDb db;
  ASSERT_TRUE(db.Define("define Lib as SET<TUPLE<Atomic<URL>: source, "
                        "Atomic<int>: year, CONTREP<Text>: annotation>>;")
                  .ok());
  std::vector<moa::MoaValue> objects;
  objects.push_back(moa::MoaValue::Tuple(
      {moa::MoaValue::Str("u0"), moa::MoaValue::Int(1998),
       moa::MoaValue::Str("sunset over the beach")}));
  objects.push_back(moa::MoaValue::Tuple(
      {moa::MoaValue::Str("u1"), moa::MoaValue::Int(1999),
       moa::MoaValue::Str("city streets at night")}));
  ASSERT_TRUE(db.Load("Lib", std::move(objects)).ok());

  moa::QueryContext ctx;
  ctx.BindTerms("query", {"sunset"});
  auto result = db.Query(
      "map[sum(THIS)](map[getBL(THIS.annotation, query, stats)](Lib));",
      ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const monet::Bat& bat = *result.value().bat;
  ASSERT_EQ(bat.size(), 2u);
  double score0 = -1;
  double score1 = -1;
  for (size_t i = 0; i < bat.size(); ++i) {
    if (bat.head().OidAt(i) == 0) score0 = bat.tail().NumAt(i);
    if (bat.head().OidAt(i) == 1) score1 = bat.tail().NumAt(i);
  }
  EXPECT_GT(score0, score1);  // the sunset document wins
}

TEST(MirrorDbTest, PrepareExposesPlanAndOptimizerReport) {
  MirrorDb db;
  ASSERT_TRUE(db.Define("define T as SET<TUPLE<Atomic<int>: x>>;").ok());
  std::vector<moa::MoaValue> objects;
  for (int i = 0; i < 10; ++i) {
    objects.push_back(moa::MoaValue::Tuple({moa::MoaValue::Int(i)}));
  }
  ASSERT_TRUE(db.Load("T", std::move(objects)).ok());
  moa::QueryContext ctx;
  auto prepared =
      db.Prepare("map[THIS * 2](map[THIS.x + 1](T));", ctx, QueryOptions());
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(prepared.value().optimizer.map_fusions, 1);
  EXPECT_GT(prepared.value().program.instrs().size(), 0u);
  auto run = db.Execute(prepared.value());
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().bat->size(), 10u);
}

TEST(MirrorDbTest, NaiveModeMatchesFlattenedMode) {
  MirrorDb db;
  ASSERT_TRUE(db.Define("define T as SET<TUPLE<Atomic<int>: x>>;").ok());
  std::vector<moa::MoaValue> objects;
  for (int i = 0; i < 25; ++i) {
    objects.push_back(moa::MoaValue::Tuple({moa::MoaValue::Int(i % 7)}));
  }
  ASSERT_TRUE(db.Load("T", std::move(objects)).ok());
  moa::QueryContext ctx;
  QueryOptions naive;
  naive.flattened = false;
  auto a = db.Query("count(select[THIS.x == 3](T));", ctx);
  auto b = db.Query("count(select[THIS.x == 3](T));", ctx, naive);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(a.value().is_scalar);
  ASSERT_TRUE(b.value().is_scalar);
  EXPECT_DOUBLE_EQ(a.value().scalar.AsDouble(), b.value().scalar.AsDouble());
}

TEST(MirrorDbTest, SessionPlanCacheTellsNearlyEqualLiteralsApart) {
  // Both literals render as 500.5 under %g; the session's plan cache is
  // keyed on the query text, so each query gets its own plan.
  MirrorDb db;
  ASSERT_TRUE(db.Define("define S as SET<TUPLE<Atomic<dbl>: x>>;").ok());
  std::vector<moa::MoaValue> objects;
  for (int i = 0; i < 10; ++i) {
    objects.push_back(
        moa::MoaValue::Tuple({moa::MoaValue::Dbl(500.5 + (i + 0.5) * 1e-7)}));
  }
  ASSERT_TRUE(db.Load("S", std::move(objects)).ok());
  moa::QueryContext ctx;
  QueryOptions naive;
  naive.flattened = false;
  monet::mil::ExecutionContext session;
  const std::pair<const char*, double> cases[] = {
      {"count(select[THIS.x > 500.5000001](S));", 9},
      {"count(select[THIS.x > 500.5000004](S));", 6},
      {"count(select[THIS.x > 500.5000001](S));", 9},
  };
  for (const auto& [text, want] : cases) {
    SCOPED_TRACE(text);
    auto oracle = db.Query(text, ctx, naive);
    auto flat = db.Query(text, ctx, QueryOptions(), &session);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    ASSERT_TRUE(flat.ok()) << flat.status().ToString();
    EXPECT_EQ(oracle.value().scalar.AsDouble(), want);
    EXPECT_EQ(flat.value().scalar.AsDouble(), want);
  }
  EXPECT_EQ(session.plan_cache_hits(), 1u);
}

class RetrievalAppTest : public ::testing::Test {
 protected:
  static ImageRetrievalApp::Options FastOptions() {
    ImageRetrievalApp::Options options;
    options.pipeline.feature_spaces = {"rgb", "hsv", "lbp"};
    options.pipeline.autoclass.min_k = 3;
    options.pipeline.autoclass.max_k = 6;
    return options;
  }

  static mm::LibraryOptions LibraryConfig() {
    mm::LibraryOptions options;
    options.num_images = 60;
    options.image_size = 32;
    options.num_classes = 4;
    options.annotated_fraction = 0.5;
    options.seed = 19;
    return options;
  }

  // Precision at k against the planted class of the query.
  static double PrecisionAtK(const std::vector<RankedImage>& ranked,
                             const std::vector<mm::LibraryImage>& library,
                             int want_class, int k) {
    int hits = 0;
    int considered = 0;
    for (const RankedImage& r : ranked) {
      if (considered >= k) break;
      ++considered;
      if (library[static_cast<size_t>(r.oid)].true_class == want_class) {
        ++hits;
      }
    }
    return considered == 0 ? 0.0
                           : static_cast<double>(hits) /
                                 static_cast<double>(considered);
  }
};

TEST_F(RetrievalAppTest, BuildCreatesBothSchemasAndThesaurus) {
  auto library = mm::SyntheticLibrary(LibraryConfig()).Generate();
  ImageRetrievalApp app(FastOptions());
  ASSERT_TRUE(app.Build(library).ok());

  auto names = app.db()->logical()->SetNames();
  EXPECT_EQ(names, (std::vector<std::string>{"ImageLibrary",
                                             "ImageLibraryInternal"}));
  EXPECT_TRUE(app.thesaurus().finalized());
  EXPECT_EQ(app.indexed().size(), library.size());
  // The dictionary records the derivations of Figure 1.
  auto derivations = app.dictionary().DerivationsOf("ImageLibrary");
  EXPECT_EQ(derivations.at("image_segments"), "segmenter");
  EXPECT_GT(app.orb().stats().invocations, 0u);
}

TEST_F(RetrievalAppTest, DualCodingRetrievesUnannotatedImages) {
  auto library = mm::SyntheticLibrary(LibraryConfig()).Generate();
  ImageRetrievalApp app(FastOptions());
  ASSERT_TRUE(app.Build(library).ok());

  mm::SyntheticLibrary generator(LibraryConfig());
  const int query_class = 1;
  std::string query = generator.ClassWords(query_class)[0];

  // Cutoff = class size: each class has 15 of the 60 images.
  const int cutoff = 15;
  auto text_only = app.Search(query, RetrievalMode::kTextOnly, cutoff);
  ASSERT_TRUE(text_only.ok()) << text_only.status().ToString();
  auto dual = app.Search(query, RetrievalMode::kDualCoding, cutoff);
  ASSERT_TRUE(dual.ok()) << dual.status().ToString();

  // Text-only retrieval can only surface annotated images (others score
  // the background default, and the class words never appear in other
  // classes' annotations). Dual coding reaches unannotated members of
  // the class through the visual clusters.
  std::set<monet::Oid> text_tops;
  for (const auto& r : text_only.value()) text_tops.insert(r.oid);
  bool dual_found_unannotated_relevant = false;
  for (const auto& r : dual.value()) {
    const auto& entry = library[static_cast<size_t>(r.oid)];
    if (entry.annotation.empty() && entry.true_class == query_class) {
      dual_found_unannotated_relevant = true;
    }
  }
  EXPECT_TRUE(dual_found_unannotated_relevant)
      << "dual coding should reach unannotated class members";

  double p_text =
      PrecisionAtK(text_only.value(), library, query_class, cutoff);
  double p_dual = PrecisionAtK(dual.value(), library, query_class, cutoff);
  EXPECT_GE(p_dual + 1e-9, p_text)
      << "dual coding must not lose precision on this library";
}

TEST_F(RetrievalAppTest, VisualOnlySearchWorksThroughThesaurus) {
  auto library = mm::SyntheticLibrary(LibraryConfig()).Generate();
  ImageRetrievalApp app(FastOptions());
  ASSERT_TRUE(app.Build(library).ok());
  mm::SyntheticLibrary generator(LibraryConfig());
  auto ranked =
      app.Search(generator.ClassWords(2)[1], RetrievalMode::kVisualOnly, 5);
  ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
  EXPECT_LE(ranked.value().size(), 5u);
  EXPECT_FALSE(ranked.value().empty());
}

TEST_F(RetrievalAppTest, FeedbackImprovesOrKeepsPrecision) {
  auto library = mm::SyntheticLibrary(LibraryConfig()).Generate();
  ImageRetrievalApp app(FastOptions());
  ASSERT_TRUE(app.Build(library).ok());
  mm::SyntheticLibrary generator(LibraryConfig());
  const int query_class = 0;
  std::string query = generator.ClassWords(query_class)[0];

  std::vector<moa::WeightedTerm> session;
  auto round1 = app.SearchWithFeedback(query, {}, &session, 10);
  ASSERT_TRUE(round1.ok()) << round1.status().ToString();
  double p1 = PrecisionAtK(round1.value(), library, query_class, 10);

  // Judge the relevant results of round 1.
  std::vector<monet::Oid> relevant;
  for (const RankedImage& r : round1.value()) {
    if (library[static_cast<size_t>(r.oid)].true_class == query_class) {
      relevant.push_back(r.oid);
    }
  }
  if (relevant.empty()) {
    GTEST_SKIP() << "no relevant seeds in round 1; nothing to feed back";
  }
  auto round2 = app.SearchWithFeedback(query, relevant, &session, 10);
  ASSERT_TRUE(round2.ok()) << round2.status().ToString();
  double p2 = PrecisionAtK(round2.value(), library, query_class, 10);
  EXPECT_GE(p2 + 1e-9, p1) << "feedback must not hurt precision here";
}

TEST_F(RetrievalAppTest, PaperQueryRunsVerbatimOnInternalSchema) {
  auto library = mm::SyntheticLibrary(LibraryConfig()).Generate();
  ImageRetrievalApp app(FastOptions());
  ASSERT_TRUE(app.Build(library).ok());
  // The §5.2 retrieval query, with `query` bound to thesaurus output.
  auto visual = app.thesaurus().FormulateVisualQuery({"sunset"}, 4);
  moa::QueryContext ctx;
  ctx.Bind("query", visual);
  auto result = app.db()->Query(
      "map[sum(THIS)](map[getBL(THIS.image, query, stats)]("
      "ImageLibraryInternal));",
      ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().bat->size(), library.size());
}

}  // namespace
}  // namespace mirror::db
