// Database persistence: a loaded database (schemas, atomic columns,
// nested sets, vectors, CONTREP indexes) round-trips through disk, and
// both engines produce identical answers on the restored instance.

#include <filesystem>
#include <fstream>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "moa/database.h"
#include "moa/flatten.h"
#include "moa/naive_eval.h"
#include "monet/mil.h"

namespace mirror::moa {
namespace {

using monet::Oid;

std::string TempDir(const char* tag) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     (std::string("mirror_db_") + tag + "_" +
                      std::to_string(::getpid())))
                        .string();
  std::filesystem::remove_all(dir);
  return dir;
}

void BuildRichDatabase(Database* db, int n, uint64_t seed) {
  ASSERT_TRUE(db->Define(
                    "define Lib as SET< TUPLE< Atomic<URL>: source, "
                    "Atomic<int>: year, CONTREP<Text>: annotation, "
                    "SET< TUPLE< Atomic<str>: label, Atomic<Vector>: feat > "
                    ">: segments >>;")
                  .ok());
  base::Rng rng(seed);
  static const char* const kWords[] = {"sun", "sea", "rock", "tree", "bird"};
  std::vector<MoaValue> objects;
  for (int i = 0; i < n; ++i) {
    std::vector<std::string> terms;
    for (int t = 0; t < 5; ++t) {
      terms.push_back(kWords[rng.Uniform(std::size(kWords))]);
    }
    std::vector<MoaValue> segments;
    int num_segments = 1 + static_cast<int>(rng.Uniform(3));
    for (int s = 0; s < num_segments; ++s) {
      segments.push_back(MoaValue::Tuple(
          {MoaValue::Str("seg" + std::to_string(s)),
           MoaValue::Vector({rng.UniformDouble(), rng.UniformDouble()})}));
    }
    objects.push_back(MoaValue::Tuple(
        {MoaValue::Str("u" + std::to_string(i)),
         MoaValue::Int(1990 + static_cast<int64_t>(rng.Uniform(10))),
         MoaValue::ContRep(terms), MoaValue::SetOf(std::move(segments))}));
  }
  ASSERT_TRUE(db->Load("Lib", std::move(objects)).ok());
}

std::map<Oid, double> RunQuery(const Database& db, const QueryContext& ctx,
                               const std::string& text, bool flattened) {
  auto expr = ParseExpr(text);
  EXPECT_TRUE(expr.ok()) << expr.status().ToString();
  monet::BatPtr bat;
  if (flattened) {
    Flattener flattener(&db, &ctx);
    auto program = flattener.Compile(expr.value());
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    auto run = monet::mil::Executor(&db.catalog()).Run(program.value());
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    bat = run.value().bat;
  } else {
    NaiveEvaluator naive(&db, &ctx);
    auto run = naive.Evaluate(expr.value());
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    bat = run.value().bat;
  }
  std::map<Oid, double> out;
  for (size_t i = 0; i < bat->size(); ++i) {
    out[bat->head().OidAt(i)] = bat->tail().NumAt(i);
  }
  return out;
}

TEST(PersistenceTest, SchemasAndCardinalitySurvive) {
  std::string dir = TempDir("schemas");
  Database original;
  BuildRichDatabase(&original, 20, 3);
  ASSERT_TRUE(original.SaveTo(dir).ok());

  Database restored;
  auto status = restored.LoadFrom(dir);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(restored.SetNames(), original.SetNames());
  auto set = restored.GetSet("Lib");
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set.value()->cardinality, 20u);
  EXPECT_TRUE(set.value()->type->Equals(
      *original.GetSet("Lib").value()->type));
  std::filesystem::remove_all(dir);
}

TEST(PersistenceTest, ContRepIndexRoundTripsExactly) {
  std::string dir = TempDir("contrep");
  Database original;
  BuildRichDatabase(&original, 50, 7);
  ASSERT_TRUE(original.SaveTo(dir).ok());
  Database restored;
  ASSERT_TRUE(restored.LoadFrom(dir).ok());

  const ContRepField* before =
      original.GetSet("Lib").value()->FindContRep("annotation");
  const ContRepField* after =
      restored.GetSet("Lib").value()->FindContRep("annotation");
  ASSERT_NE(before, nullptr);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->index.stats().num_docs, before->index.stats().num_docs);
  EXPECT_EQ(after->index.stats().num_postings,
            before->index.stats().num_postings);
  EXPECT_EQ(after->index.stats().total_terms,
            before->index.stats().total_terms);
  EXPECT_EQ(after->index.vocab().size(), before->index.vocab().size());
  // Term ids survive: same spelling at every id.
  for (int64_t t = 0; t < before->index.vocab().size(); ++t) {
    EXPECT_EQ(after->index.vocab().TermOf(t), before->index.vocab().TermOf(t));
    EXPECT_EQ(after->index.DocFreq(t), before->index.DocFreq(t));
  }
  std::filesystem::remove_all(dir);
}

/// Loads `n` documents of 5-24 zipf-drawn terms (repeats included) into
/// set `Docs`; returns each document's terms.
std::vector<std::vector<std::string>> BuildTermLibrary(Database* db, int n,
                                                       uint64_t seed) {
  EXPECT_TRUE(db->Define("define Docs as SET< TUPLE< Atomic<str>: name, "
                         "CONTREP<Text>: body >>;")
                  .ok());
  base::Rng rng(seed);
  std::vector<std::vector<std::string>> docs;
  std::vector<MoaValue> objects;
  for (int i = 0; i < n; ++i) {
    std::vector<std::string> terms;
    const int len = 5 + static_cast<int>(rng.Uniform(20));
    for (int t = 0; t < len; ++t) {
      terms.push_back("t" + std::to_string(rng.Zipf(500, 1.0)));
    }
    objects.push_back(MoaValue::Tuple({MoaValue::Str("d" + std::to_string(i)),
                                       MoaValue::ContRep(terms)}));
    docs.push_back(std::move(terms));
  }
  EXPECT_TRUE(db->Load("Docs", std::move(objects)).ok());
  return docs;
}

TEST(PersistenceTest, RestoredObjectsKeepEachDocumentsTermMultiset) {
  std::string dir = TempDir("termsets");
  Database original;
  const std::vector<std::vector<std::string>> docs =
      BuildTermLibrary(&original, 3000, 41);
  ASSERT_TRUE(original.SaveTo(dir).ok());
  Database restored;
  ASSERT_TRUE(restored.LoadFrom(dir).ok());

  const FlatSet* set = restored.GetSet("Docs").value();
  ASSERT_EQ(set->objects.size(), docs.size());
  for (size_t d = 0; d < docs.size(); ++d) {
    std::multiset<std::string> want(docs[d].begin(), docs[d].end());
    const std::vector<std::string>& terms = set->objects[d].field(1).terms();
    std::multiset<std::string> got(terms.begin(), terms.end());
    ASSERT_EQ(got, want) << "doc " << d;
  }
  std::filesystem::remove_all(dir);
}

TEST(PersistenceTest, QueriesAgreeOnRestoredDatabaseBothEngines) {
  std::string dir = TempDir("queries");
  Database original;
  BuildRichDatabase(&original, 60, 11);
  QueryContext ctx;
  ctx.BindTerms("query", {"sun", "rock"});
  const std::string ranking =
      "map[sum(THIS)](map[getBL(THIS.annotation, query, stats)]("
      "select[THIS.year >= 1994](Lib)));";
  auto expected = RunQuery(original, ctx, ranking, /*flattened=*/true);

  ASSERT_TRUE(original.SaveTo(dir).ok());
  Database restored;
  ASSERT_TRUE(restored.LoadFrom(dir).ok());

  auto flattened = RunQuery(restored, ctx, ranking, /*flattened=*/true);
  auto naive = RunQuery(restored, ctx, ranking, /*flattened=*/false);
  ASSERT_EQ(flattened.size(), expected.size());
  for (const auto& [oid, score] : expected) {
    EXPECT_NEAR(flattened.at(oid), score, 1e-12);
    EXPECT_NEAR(naive.at(oid), score, 1e-9);
  }
  std::filesystem::remove_all(dir);
}

TEST(PersistenceTest, NestedObjectsReconstructed) {
  std::string dir = TempDir("nested");
  Database original;
  BuildRichDatabase(&original, 10, 13);
  const std::vector<MoaValue>& before =
      original.GetSet("Lib").value()->objects;
  ASSERT_TRUE(original.SaveTo(dir).ok());
  Database restored;
  ASSERT_TRUE(restored.LoadFrom(dir).ok());
  const std::vector<MoaValue>& after =
      restored.GetSet("Lib").value()->objects;
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    // Atomic fields identical.
    EXPECT_TRUE(after[i].field(0).atomic() == before[i].field(0).atomic());
    EXPECT_TRUE(after[i].field(1).atomic() == before[i].field(1).atomic());
    // Nested segments: same count, same labels and vectors.
    const auto& seg_before = before[i].field(3).elements();
    const auto& seg_after = after[i].field(3).elements();
    ASSERT_EQ(seg_after.size(), seg_before.size());
    for (size_t s = 0; s < seg_before.size(); ++s) {
      EXPECT_TRUE(seg_after[s].field(0).atomic() ==
                  seg_before[s].field(0).atomic());
      EXPECT_EQ(seg_after[s].field(1).vec(), seg_before[s].field(1).vec());
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(PersistenceTest, LoadFromMissingDirectoryFails) {
  Database db;
  EXPECT_FALSE(db.LoadFrom("/nonexistent/mirror/db").ok());
}

TEST(PersistenceTest, StaleTempFilesNeverCorruptThePublishedSnapshot) {
  std::string dir = TempDir("atomic");
  Database original;
  BuildRichDatabase(&original, 15, 17);
  ASSERT_TRUE(original.SaveTo(dir).ok());

  // Simulate a crash mid-save: torn temp files next to the published
  // manifest and schemas. Neither load nor a subsequent save may trip
  // over them.
  {
    std::ofstream torn1(dir + "/schemas.txt.tmp", std::ios::binary);
    torn1 << "Lib\t99";  // truncated line
    std::ofstream torn2(dir + "/manifest.txt.tmp", std::ios::binary);
    torn2 << "\xde\xad\xbe";
  }
  Database restored;
  ASSERT_TRUE(restored.LoadFrom(dir).ok());
  EXPECT_EQ(restored.GetSet("Lib").value()->cardinality, 15u);

  ASSERT_TRUE(original.SaveTo(dir).ok());
  Database again;
  ASSERT_TRUE(again.LoadFrom(dir).ok());
  EXPECT_EQ(again.GetSet("Lib").value()->cardinality, 15u);
  std::filesystem::remove_all(dir);
}

TEST(PersistenceTest, RepeatedSavesKeepExactlyOneEpochOfDataFiles) {
  std::string dir = TempDir("epochs");
  Database original;
  BuildRichDatabase(&original, 12, 19);
  ASSERT_TRUE(original.SaveTo(dir).ok());
  ASSERT_TRUE(original.SaveTo(dir).ok());
  ASSERT_TRUE(original.SaveTo(dir).ok());

  // Data files are epoch-prefixed (bat_e<epoch>_<idx>.bin) and stale
  // epochs are cleaned after publish: only one epoch may remain.
  std::set<std::string> epochs;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::string file = entry.path().filename().string();
    if (file.rfind("bat_e", 0) != 0) continue;
    epochs.insert(file.substr(0, file.find('_', 5)));
  }
  EXPECT_EQ(epochs.size(), 1u) << "stale epoch files were not cleaned";

  Database restored;
  ASSERT_TRUE(restored.LoadFrom(dir).ok());
  EXPECT_EQ(restored.GetSet("Lib").value()->cardinality, 12u);
  std::filesystem::remove_all(dir);
}

TEST(PersistenceTest, SaveFoldsDeltaTailsAndRestoredCatalogIsClean) {
  std::string dir = TempDir("deltasave");
  Database original;
  BuildRichDatabase(&original, 40, 23);

  // Rewrite Lib.year as a short base plus catalog-level insert chunks
  // with identical visible contents, then checkpoint through them.
  monet::Catalog* catalog = original.catalog();
  auto year = catalog->Get("Lib.year");
  ASSERT_TRUE(year.ok());
  std::vector<int64_t> values;
  for (size_t i = 0; i < year.value()->size(); ++i) {
    values.push_back(year.value()->tail().IntAt(i));
  }
  const size_t cut = values.size() / 3;
  catalog->Put("Lib.year",
               monet::Bat::DenseInts({values.begin(), values.begin() + cut}));
  ASSERT_TRUE(catalog
                  ->Append("Lib.year", monet::Column::MakeInts(
                                           {values.begin() + cut, values.end()}))
                  .ok());
  ASSERT_TRUE(catalog->HasDeltas("Lib.year"));

  QueryContext ctx;
  ctx.BindTerms("query", {"tree", "bird"});
  const std::string ranking =
      "map[sum(THIS)](map[getBL(THIS.annotation, query, stats)]("
      "select[THIS.year >= 1993](Lib)));";
  auto expected = RunQuery(original, ctx, ranking, /*flattened=*/true);

  ASSERT_TRUE(original.SaveTo(dir).ok());
  Database restored;
  ASSERT_TRUE(restored.LoadFrom(dir).ok());
  // The checkpoint persisted the merged view: no delta layers survive.
  EXPECT_FALSE(restored.catalog()->HasDeltas("Lib.year"));
  auto flattened = RunQuery(restored, ctx, ranking, /*flattened=*/true);
  auto naive = RunQuery(restored, ctx, ranking, /*flattened=*/false);
  ASSERT_EQ(flattened.size(), expected.size());
  for (const auto& [oid, score] : expected) {
    EXPECT_NEAR(flattened.at(oid), score, 1e-12);
    EXPECT_NEAR(naive.at(oid), score, 1e-9);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mirror::moa
