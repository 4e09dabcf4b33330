// Database persistence: a loaded database (schemas, atomic columns,
// nested sets, vectors, CONTREP indexes) round-trips through disk, and
// both engines produce identical answers on the restored instance. Also
// covers the parallel bulk Load: its BATs (CONTREP indexes included)
// encode byte for byte like the sequential builders' at any pool size,
// and a rejected Load reports the lowest bad row and changes nothing.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "moa/database.h"
#include "moa/flatten.h"
#include "moa/naive_eval.h"
#include "monet/bat_io.h"
#include "monet/mil.h"
#include "monet/worker_pool.h"

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

// ---------------------------------------------------------------------------
// Parallel bulk Load.

constexpr int kLoadRows = 100000;  // several 16K-row morsels per column

constexpr const char* kMixedSchema =
    "define S as SET<TUPLE<Atomic<URL>: u, Atomic<int>: i, Atomic<dbl>: d, "
    "Atomic<str>: s, Atomic<Vector>: v>>;";

struct MixedRow {
  std::string u;
  int64_t i;
  double d;
  std::string s;
  double v0, v1;
};

std::vector<MixedRow> MixedRows(uint64_t seed) {
  base::Rng rng(seed);
  static const char* const kWords[] = {"", "sun", "sea", "rock", "tree"};
  std::vector<MixedRow> rows;
  for (int r = 0; r < kLoadRows; ++r) {
    rows.push_back(MixedRow{
        "u" + std::to_string(rng.Uniform(kLoadRows / 2)),
        static_cast<int64_t>(rng.Uniform(1000)) - 500,
        rng.UniformDouble(-1.0, 1.0),
        kWords[rng.Uniform(std::size(kWords))],
        rng.UniformDouble(), rng.UniformDouble()});
  }
  return rows;
}

std::vector<MoaValue> MixedObjects(const std::vector<MixedRow>& rows) {
  std::vector<MoaValue> objects;
  for (size_t r = 0; r < rows.size(); ++r) {
    const MixedRow& row = rows[r];
    // Every third dbl arrives as an int, which the dbl column widens.
    MoaValue d = r % 3 == 0 ? MoaValue::Int(row.i) : MoaValue::Dbl(row.d);
    objects.push_back(MoaValue::Tuple(
        {MoaValue::Str(row.u), MoaValue::Int(row.i), std::move(d),
         MoaValue::Str(row.s), MoaValue::Vector({row.v0, row.v1})}));
  }
  return objects;
}

/// The BATs the sequential shredding builds: per-row pushes and an
/// Intern loop per string column.
std::map<std::string, std::vector<uint8_t>> SequentialEncodings(
    const std::vector<MixedRow>& rows) {
  auto strs = [&](std::string MixedRow::*field) {
    auto heap = std::make_shared<monet::StringHeap>();
    std::vector<uint32_t> offsets;
    for (const MixedRow& row : rows) {
      offsets.push_back(heap->Intern(row.*field));
    }
    heap->ShrinkToFit();
    return monet::Bat(monet::Column::MakeVoid(0, rows.size()),
                      monet::Column::MakeStrsShared(heap, std::move(offsets)));
  };
  std::vector<int64_t> ints;
  std::vector<double> dbls, v0, v1;
  for (size_t r = 0; r < rows.size(); ++r) {
    ints.push_back(rows[r].i);
    dbls.push_back(r % 3 == 0 ? static_cast<double>(rows[r].i) : rows[r].d);
    v0.push_back(rows[r].v0);
    v1.push_back(rows[r].v1);
  }
  std::map<std::string, monet::Bat> bats;
  bats.emplace("S.u", strs(&MixedRow::u));
  bats.emplace("S.i", monet::Bat::DenseInts(ints));
  bats.emplace("S.d", monet::Bat::DenseDbls(dbls));
  bats.emplace("S.s", strs(&MixedRow::s));
  bats.emplace("S.v.d0", monet::Bat::DenseDbls(v0));
  bats.emplace("S.v.d1", monet::Bat::DenseDbls(v1));
  std::map<std::string, std::vector<uint8_t>> out;
  for (const auto& [name, bat] : bats) monet::EncodeBat(bat, &out[name]);
  return out;
}

/// Every BAT of `db`'s catalog, encoded.
std::map<std::string, std::vector<uint8_t>> CatalogEncodings(
    const Database& db) {
  std::map<std::string, std::vector<uint8_t>> out;
  for (const std::string& name : db.catalog().Names()) {
    monet::EncodeBat(*db.catalog().Get(name).value(), &out[name]);
  }
  return out;
}

/// Loads the mixed set into a fresh database; true iff every BAT encodes
/// exactly as `want`.
bool LoadEncodesAs(const std::vector<MixedRow>& rows,
                   const std::map<std::string, std::vector<uint8_t>>& want) {
  Database db;
  if (!db.Define(kMixedSchema).ok()) return false;
  if (!db.Load("S", MixedObjects(rows)).ok()) return false;
  return CatalogEncodings(db) == want;
}

TEST(ParallelLoadTest, BatsMatchTheSequentialShreddingOnOneAndFourThreads) {
  const std::vector<MixedRow> rows = MixedRows(7);
  const auto want = SequentialEncodings(rows);
  // The shared pool never shrinks, so the 1-thread load runs in a child
  // process, whose pool starts empty (the pool joins around fork).
  EXPECT_EXIT(
      {
        monet::SharedWorkerPool().EnsureWorkers(1);
        const bool same = LoadEncodesAs(rows, want) &&
                          monet::SharedWorkerPool().size() == 1;
        std::exit(same ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
  monet::SharedWorkerPool().EnsureWorkers(4);
  EXPECT_TRUE(LoadEncodesAs(rows, want));
}

TEST(ParallelLoadTest, RejectedLoadReportsTheLowestBadRowAndChangesNothing) {
  monet::SharedWorkerPool().EnsureWorkers(4);
  const std::vector<MixedRow> rows = MixedRows(11);
  Database db;
  ASSERT_TRUE(db.Define(kMixedSchema).ok());
  ASSERT_TRUE(db.Load("S", MixedObjects(rows)).ok());
  const auto before = CatalogEncodings(db);

  auto load_with = [&](const std::vector<std::pair<size_t, MoaValue>>& bad) {
    std::vector<MoaValue> objects = MixedObjects(MixedRows(12));
    for (const auto& [row, value] : bad) objects[row] = value;
    base::Status status = db.Load("S", std::move(objects));
    EXPECT_EQ(CatalogEncodings(db), before);
    EXPECT_EQ(db.GetSet("S").value()->cardinality, rows.size());
    return status.ToString();
  };
  auto with_field = [&](size_t row, size_t field, MoaValue value) {
    std::vector<MoaValue> fields =
        MixedObjects({MixedRows(13)[row]})[0].children();
    fields[field] = std::move(value);
    return std::make_pair(row, MoaValue::Tuple(std::move(fields)));
  };
  const MoaValue not_a_tuple = MoaValue::Int(1);

  // Bad rows in different morsels: the lowest one is named.
  EXPECT_NE(load_with({{90000, not_a_tuple}, {70000, not_a_tuple}})
                .find("S: object 70000 is not a 5-field tuple"),
            std::string::npos);
  // Fields shred in schema order; within one, the lowest row decides.
  EXPECT_NE(load_with({with_field(80000, 1, MoaValue::Str("x")),
                       with_field(30000, 2, MoaValue::Str("y"))})
                .find("S.i: expected int"),
            std::string::npos);
  EXPECT_NE(load_with({with_field(60000, 4, MoaValue::Vector({1.0})),
                       with_field(50000, 4, MoaValue::Int(3))})
                .find("S.v: expected Vector value"),
            std::string::npos);
  EXPECT_NE(load_with({with_field(60000, 4, MoaValue::Int(3)),
                       with_field(50000, 4, MoaValue::Vector({1.0}))})
                .find("S.v: inconsistent vector dims"),
            std::string::npos);
  EXPECT_NE(load_with({with_field(99999, 3, MoaValue::Dbl(1.0))})
                .find("S.s: expected str"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Parallel CONTREP build on a rank_mix-shaped set: a terms CONTREP and a
// text CONTREP, both indexed in document morsels on the shared pool.

constexpr int kIndexDocs = 40000;  // many document morsels at 4 threads

constexpr const char* kIndexedSchema =
    "define Lib as SET<TUPLE<Atomic<URL>: u, Atomic<int>: year, "
    "CONTREP<Text>: doc, CONTREP<Text>: text>>;";

struct IndexedRow {
  std::vector<std::string> terms;
  std::string text;
};

std::vector<IndexedRow> IndexedRows(uint64_t seed) {
  base::Rng rng(seed);
  static const char* const kTerms[] = {"sun",  "sea",  "sky",  "rock",
                                       "tree", "bird", "sand", "wave"};
  // Stopwords and inflections, so the text pipeline stops and stems.
  static const char* const kWords[] = {
      "The", "rivers",    "are",        "flowing",  "and", "the",    "river",
      "flows", "connected", "CONNECTION", "gabor_21", "a",   "cities", "city"};
  std::vector<IndexedRow> rows(kIndexDocs);
  for (IndexedRow& row : rows) {
    const uint64_t len = rng.Uniform(25);  // empty documents included
    for (uint64_t t = 0; t < len; ++t) {
      row.terms.push_back(kTerms[rng.Zipf(std::size(kTerms), 1.0)]);
    }
    const uint64_t words = rng.Uniform(12);
    for (uint64_t w = 0; w < words; ++w) {
      if (!row.text.empty()) row.text += rng.Uniform(2) == 0 ? " " : ", ";
      row.text += kWords[rng.Zipf(std::size(kWords), 0.8)];
    }
  }
  // Spellings that only the last documents use.
  for (int d = kIndexDocs - 50; d < kIndexDocs; ++d) {
    rows[static_cast<size_t>(d)].terms.push_back("late" +
                                                 std::to_string(d % 7));
  }
  return rows;
}

std::vector<MoaValue> IndexedObjects(const std::vector<IndexedRow>& rows) {
  std::vector<MoaValue> objects;
  for (size_t r = 0; r < rows.size(); ++r) {
    objects.push_back(MoaValue::Tuple(
        {MoaValue::Str("d" + std::to_string(r)),
         MoaValue::Int(1970 + static_cast<int64_t>(r % 56)),
         MoaValue::ContRep(rows[r].terms), MoaValue::Str(rows[r].text)}));
  }
  return objects;
}

/// The six BATs of a sequentially built index over `docs`: ids interned
/// in document order, per-document map counts, one sort by (term, doc).
void SequentialIndexBats(const std::string& prefix,
                         const std::vector<std::vector<std::string>>& docs,
                         std::map<std::string, std::vector<uint8_t>>* out) {
  std::map<std::string, int64_t> ids;
  std::vector<std::string> vocab;
  struct Entry {
    int64_t term;
    Oid doc;
    int64_t tf;
  };
  std::vector<Entry> postings;
  std::vector<int64_t> lens;
  for (size_t d = 0; d < docs.size(); ++d) {
    std::map<int64_t, int64_t> counts;
    for (const std::string& t : docs[d]) {
      auto [it, fresh] = ids.emplace(t, static_cast<int64_t>(vocab.size()));
      if (fresh) vocab.push_back(t);
      counts[it->second]++;
    }
    for (const auto& [term, tf] : counts) postings.push_back({term, d, tf});
    lens.push_back(static_cast<int64_t>(docs[d].size()));
  }
  std::sort(postings.begin(), postings.end(),
            [](const Entry& a, const Entry& b) {
              return a.term != b.term ? a.term < b.term : a.doc < b.doc;
            });
  std::vector<Oid> doc_col, heads;
  std::vector<int64_t> term_col, tf_col, df(vocab.size(), 0);
  for (const Entry& e : postings) {
    doc_col.push_back(e.doc);
    term_col.push_back(e.term);
    tf_col.push_back(e.tf);
    df[static_cast<size_t>(e.term)]++;
  }
  for (size_t d = 0; d < docs.size(); ++d) heads.push_back(d);
  monet::EncodeBat(monet::Bat::DenseOids(doc_col), &(*out)[prefix + ".doc"]);
  monet::EncodeBat(monet::Bat::DenseInts(term_col), &(*out)[prefix + ".term"]);
  monet::EncodeBat(monet::Bat::DenseInts(tf_col), &(*out)[prefix + ".tf"]);
  monet::EncodeBat(monet::Bat::DenseInts(df), &(*out)[prefix + ".df"]);
  monet::EncodeBat(monet::Bat(monet::Column::MakeOids(heads),
                              monet::Column::MakeInts(lens)),
                   &(*out)[prefix + ".len"]);
  monet::EncodeBat(monet::Bat::DenseStrs(vocab), &(*out)[prefix + ".vocab"]);
}

/// The twelve CONTREP BATs of the indexed set, built sequentially.
std::map<std::string, std::vector<uint8_t>> SequentialContRepEncodings(
    const std::vector<IndexedRow>& rows) {
  Database db;  // for its text pipeline
  std::vector<std::vector<std::string>> terms, texts;
  for (const IndexedRow& row : rows) {
    terms.push_back(row.terms);
    texts.push_back(db.text_pipeline().Process(row.text));
  }
  std::map<std::string, std::vector<uint8_t>> out;
  SequentialIndexBats("Lib.doc", terms, &out);
  SequentialIndexBats("Lib.text", texts, &out);
  return out;
}

/// `db`'s catalog encodings of the BATs named in `want`.
std::map<std::string, std::vector<uint8_t>> EncodingsLike(
    const Database& db,
    const std::map<std::string, std::vector<uint8_t>>& want) {
  std::map<std::string, std::vector<uint8_t>> out;
  for (const auto& [name, bytes] : want) {
    auto bat = db.catalog().Get(name);
    if (bat.ok()) monet::EncodeBat(*bat.value(), &out[name]);
  }
  return out;
}

bool IndexedLoadEncodesAs(
    const std::vector<IndexedRow>& rows,
    const std::map<std::string, std::vector<uint8_t>>& want) {
  Database db;
  if (!db.Define(kIndexedSchema).ok()) return false;
  if (!db.Load("Lib", IndexedObjects(rows)).ok()) return false;
  return EncodingsLike(db, want) == want;
}

TEST(ParallelContRepLoadTest, IndexBatsMatchTheSequentialBuildOnOneAndFour) {
  const std::vector<IndexedRow> rows = IndexedRows(17);
  const auto want = SequentialContRepEncodings(rows);
  ASSERT_EQ(want.size(), 12u);
  // The 1-thread load runs in a child, whose shared pool starts empty.
  EXPECT_EXIT(
      {
        monet::SharedWorkerPool().EnsureWorkers(1);
        const bool same = IndexedLoadEncodesAs(rows, want) &&
                          monet::SharedWorkerPool().size() == 1;
        std::exit(same ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
  monet::SharedWorkerPool().EnsureWorkers(4);
  EXPECT_TRUE(IndexedLoadEncodesAs(rows, want));
}

TEST(ParallelContRepLoadTest, BadRowInALateMorselChangesNothing) {
  monet::SharedWorkerPool().EnsureWorkers(4);
  Database db;
  ASSERT_TRUE(db.Define(kIndexedSchema).ok());
  ASSERT_TRUE(db.Load("Lib", IndexedObjects(IndexedRows(19))).ok());
  const auto before = CatalogEncodings(db);

  for (size_t field : {2u, 3u}) {
    std::vector<MoaValue> objects = IndexedObjects(IndexedRows(23));
    std::vector<MoaValue> fields = objects[kIndexDocs - 3].children();
    fields[field] = MoaValue::Int(3);  // neither terms nor text
    objects[kIndexDocs - 3] = MoaValue::Tuple(std::move(fields));
    const base::Status status = db.Load("Lib", std::move(objects));
    EXPECT_EQ(status.code(), base::StatusCode::kTypeError);
    EXPECT_NE(status.message().find(field == 2 ? "Lib.doc" : "Lib.text"),
              std::string::npos)
        << status.ToString();
    EXPECT_NE(status.message().find("CONTREP needs terms or text"),
              std::string::npos);
    EXPECT_EQ(CatalogEncodings(db), before);
    EXPECT_EQ(db.GetSet("Lib").value()->cardinality,
              static_cast<size_t>(kIndexDocs));
  }
}

TEST(ContRepRestoreTest, RoundTripEqualsTheLoadedIndexWithAnUnpostedTerm) {
  std::string dir = TempDir("contrep_restore");
  Database original;
  const std::vector<std::vector<std::string>> docs =
      BuildTermLibrary(&original, 3000, 43);
  // A vocabulary term without postings, as the BATs may carry one: it
  // must keep its id and df 0 through the restore.
  monet::Catalog* catalog = original.catalog();
  const monet::Bat vocab = *catalog->Get("Docs.body.vocab").value();
  std::vector<std::string> spellings;
  for (size_t t = 0; t < vocab.size(); ++t) {
    spellings.emplace_back(vocab.tail().StrAt(t));
  }
  spellings.push_back("unposted");
  const auto df_rows = catalog->Get("Docs.body.df").value()->tail().ints();
  std::vector<int64_t> df(df_rows.begin(), df_rows.end());
  df.push_back(0);
  catalog->Put("Docs.body.vocab", monet::Bat::DenseStrs(spellings));
  catalog->Put("Docs.body.df", monet::Bat::DenseInts(df));
  ASSERT_TRUE(original.SaveTo(dir).ok());
  Database restored;
  auto status = restored.LoadFrom(dir);
  ASSERT_TRUE(status.ok()) << status.ToString();

  const ir::ContentIndex& before =
      original.GetSet("Docs").value()->FindContRep("body")->index;
  const ir::ContentIndex& after =
      restored.GetSet("Docs").value()->FindContRep("body")->index;
  ASSERT_EQ(after.vocab().size(), before.vocab().size() + 1);
  for (int64_t t = 0; t < before.vocab().size(); ++t) {
    EXPECT_EQ(after.vocab().TermOf(t), before.vocab().TermOf(t));
    EXPECT_EQ(after.DocFreq(t), before.DocFreq(t));
  }
  EXPECT_EQ(after.vocab().Lookup("unposted"), before.vocab().size());
  EXPECT_EQ(after.DocFreq(before.vocab().size()), 0);
  ASSERT_EQ(after.postings().size(), before.postings().size());
  for (size_t i = 0; i < before.postings().size(); ++i) {
    const ir::Posting& a = after.postings()[i];
    const ir::Posting& b = before.postings()[i];
    ASSERT_TRUE(a.doc == b.doc && a.term == b.term && a.tf == b.tf) << i;
  }
  for (size_t d = 0; d < docs.size(); ++d) {
    ASSERT_EQ(after.DocLen(d), before.DocLen(d)) << d;
  }
  EXPECT_EQ(after.stats().num_docs, before.stats().num_docs);
  EXPECT_EQ(after.stats().vocab_size, before.stats().vocab_size + 1);
  EXPECT_EQ(after.stats().num_postings, before.stats().num_postings);
  EXPECT_EQ(after.stats().total_terms, before.stats().total_terms);
  EXPECT_EQ(after.stats().avg_doclen, before.stats().avg_doclen);
  // The restored index exports the BATs it was restored from.
  std::vector<uint8_t> a, b;
  monet::EncodeBat(after.DocBat(), &a);
  monet::EncodeBat(*restored.catalog()->Get("Docs.body.doc").value(), &b);
  EXPECT_EQ(a, b);
  std::filesystem::remove_all(dir);
}

TEST(ContRepRestoreTest, InconsistentIndexBatsFailTheRestore) {
  std::string dir = TempDir("contrep_bad");
  Database original;
  BuildTermLibrary(&original, 500, 47);
  const auto df_rows =
      original.catalog()->Get("Docs.body.df").value()->tail().ints();
  std::vector<int64_t> df(df_rows.begin(), df_rows.end());
  df[0] += 1;
  original.catalog()->Put("Docs.body.df", monet::Bat::DenseInts(df));
  ASSERT_TRUE(original.SaveTo(dir).ok());
  Database restored;
  const base::Status status = restored.LoadFrom(dir);
  EXPECT_EQ(status.code(), base::StatusCode::kInvalidArgument)
      << status.ToString();
  EXPECT_NE(status.message().find("Docs.body"), std::string::npos)
      << status.ToString();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mirror::moa
