// IR engine tests: text pipeline, Porter stemmer vectors, content index
// statistics, the parallel bulk builder and the BAT restore, inference
// network semantics and relevance feedback.

#include <algorithm>
#include <cmath>
#include <map>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "ir/content_index.h"
#include "ir/feedback.h"
#include "ir/inference_network.h"
#include "ir/porter_stemmer.h"
#include "ir/synthetic_text.h"
#include "ir/text_pipeline.h"
#include "monet/bat_io.h"
#include "monet/worker_pool.h"

namespace mirror::ir {
namespace {

TEST(TokenizerTest, SplitsOnNonAlnumAndLowercases) {
  Tokenizer tok;
  EXPECT_EQ(tok.Tokenize("Hello, World! x2"),
            (std::vector<std::string>{"hello", "world", "x2"}));
}

TEST(TokenizerTest, UnderscoreModeKeepsVisualTerms) {
  Tokenizer plain(false);
  EXPECT_EQ(plain.Tokenize("gabor_21").size(), 2u);
  Tokenizer visual(true);
  EXPECT_EQ(visual.Tokenize("gabor_21"),
            (std::vector<std::string>{"gabor_21"}));
}

TEST(StopListTest, CommonWordsStopped) {
  StopList stops;
  EXPECT_TRUE(stops.IsStopword("the"));
  EXPECT_TRUE(stops.IsStopword("and"));
  EXPECT_FALSE(stops.IsStopword("sunset"));
}

TEST(PorterStemmerTest, ClassicVectors) {
  // Reference pairs from Porter's paper and the canonical test set.
  EXPECT_EQ(PorterStem("caresses"), "caress");
  EXPECT_EQ(PorterStem("ponies"), "poni");
  EXPECT_EQ(PorterStem("ties"), "ti");
  EXPECT_EQ(PorterStem("caress"), "caress");
  EXPECT_EQ(PorterStem("cats"), "cat");
  EXPECT_EQ(PorterStem("feed"), "feed");
  EXPECT_EQ(PorterStem("agreed"), "agre");
  EXPECT_EQ(PorterStem("plastered"), "plaster");
  EXPECT_EQ(PorterStem("bled"), "bled");
  EXPECT_EQ(PorterStem("motoring"), "motor");
  EXPECT_EQ(PorterStem("sing"), "sing");
  EXPECT_EQ(PorterStem("conflated"), "conflat");
  EXPECT_EQ(PorterStem("troubled"), "troubl");
  EXPECT_EQ(PorterStem("sized"), "size");
  EXPECT_EQ(PorterStem("hopping"), "hop");
  EXPECT_EQ(PorterStem("tanned"), "tan");
  EXPECT_EQ(PorterStem("falling"), "fall");
  EXPECT_EQ(PorterStem("hissing"), "hiss");
  EXPECT_EQ(PorterStem("fizzed"), "fizz");
  EXPECT_EQ(PorterStem("failing"), "fail");
  EXPECT_EQ(PorterStem("filing"), "file");
  EXPECT_EQ(PorterStem("happy"), "happi");
  EXPECT_EQ(PorterStem("sky"), "sky");
  EXPECT_EQ(PorterStem("relational"), "relat");
  EXPECT_EQ(PorterStem("conditional"), "condit");
  EXPECT_EQ(PorterStem("rational"), "ration");
  EXPECT_EQ(PorterStem("valenci"), "valenc");
  EXPECT_EQ(PorterStem("digitizer"), "digit");
  EXPECT_EQ(PorterStem("operator"), "oper");
  EXPECT_EQ(PorterStem("feudalism"), "feudal");
  EXPECT_EQ(PorterStem("decisiveness"), "decis");
  EXPECT_EQ(PorterStem("hopefulness"), "hope");
  EXPECT_EQ(PorterStem("formaliti"), "formal");
  EXPECT_EQ(PorterStem("triplicate"), "triplic");
  EXPECT_EQ(PorterStem("formative"), "form");
  EXPECT_EQ(PorterStem("formalize"), "formal");
  EXPECT_EQ(PorterStem("electrical"), "electr");
  EXPECT_EQ(PorterStem("hopeful"), "hope");
  EXPECT_EQ(PorterStem("goodness"), "good");
  EXPECT_EQ(PorterStem("revival"), "reviv");
  EXPECT_EQ(PorterStem("allowance"), "allow");
  EXPECT_EQ(PorterStem("inference"), "infer");
  EXPECT_EQ(PorterStem("airliner"), "airlin");
  EXPECT_EQ(PorterStem("adjustable"), "adjust");
  EXPECT_EQ(PorterStem("defensible"), "defens");
  EXPECT_EQ(PorterStem("irritant"), "irrit");
  EXPECT_EQ(PorterStem("replacement"), "replac");
  EXPECT_EQ(PorterStem("adjustment"), "adjust");
  EXPECT_EQ(PorterStem("dependent"), "depend");
  EXPECT_EQ(PorterStem("adoption"), "adopt");
  EXPECT_EQ(PorterStem("communism"), "commun");
  EXPECT_EQ(PorterStem("activate"), "activ");
  EXPECT_EQ(PorterStem("angulariti"), "angular");
  EXPECT_EQ(PorterStem("homologous"), "homolog");
  EXPECT_EQ(PorterStem("effective"), "effect");
  EXPECT_EQ(PorterStem("bowdlerize"), "bowdler");
  EXPECT_EQ(PorterStem("probate"), "probat");
  EXPECT_EQ(PorterStem("rate"), "rate");
  EXPECT_EQ(PorterStem("cease"), "ceas");
  EXPECT_EQ(PorterStem("controll"), "control");
  EXPECT_EQ(PorterStem("roll"), "roll");
}

TEST(PorterStemmerTest, ShortWordsUntouched) {
  EXPECT_EQ(PorterStem("a"), "a");
  EXPECT_EQ(PorterStem("is"), "is");
}

TEST(TextPipelineTest, FullChain) {
  TextPipeline pipeline;
  auto terms = pipeline.Process("The connected RIVERS are flowing");
  EXPECT_EQ(terms, (std::vector<std::string>{"connect", "river", "flow"}));
}

using Docs = std::vector<std::vector<std::string>>;

/// Indexes `docs` (document d is docs[d]) with the bulk builder.
ContentIndex IndexOf(const Docs& docs, monet::WorkerPool* pool = nullptr) {
  auto built = ContentIndex::Build(
      docs.size(),
      [&](size_t d, std::vector<std::string>*) { return &docs[d]; }, pool);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return built.TakeValue();
}

ContentIndex SmallIndex() {
  return IndexOf({{"cat", "dog", "cat"}, {"dog", "bird"}, {"fish"}});
}

TEST(ContentIndexTest, StatsAndFrequencies) {
  ContentIndex index = SmallIndex();
  EXPECT_EQ(index.stats().num_docs, 3);
  EXPECT_EQ(index.stats().vocab_size, 4);
  EXPECT_EQ(index.stats().num_postings, 5);
  EXPECT_EQ(index.stats().total_terms, 6);
  EXPECT_DOUBLE_EQ(index.stats().avg_doclen, 2.0);

  int64_t cat = index.vocab().Lookup("cat");
  int64_t dog = index.vocab().Lookup("dog");
  EXPECT_EQ(index.TermFrequency(0, cat), 2);
  EXPECT_EQ(index.TermFrequency(1, cat), 0);
  EXPECT_EQ(index.DocFreq(dog), 2);
  EXPECT_EQ(index.DocLen(0), 3);
  EXPECT_EQ(index.DocLen(2), 1);
}

TEST(ContentIndexTest, InvertedAndScanAgree) {
  ContentIndex index = SmallIndex();
  int64_t dog = index.vocab().Lookup("dog");
  std::vector<const Posting*> inverted;
  std::vector<const Posting*> scanned;
  index.PostingsForTerm(dog, EvalStrategy::kInverted, &inverted);
  index.PostingsForTerm(dog, EvalStrategy::kScan, &scanned);
  ASSERT_EQ(inverted.size(), 2u);
  ASSERT_EQ(scanned.size(), 2u);
  for (size_t i = 0; i < inverted.size(); ++i) {
    EXPECT_EQ(inverted[i]->doc, scanned[i]->doc);
    EXPECT_EQ(inverted[i]->tf, scanned[i]->tf);
  }
}

TEST(ContentIndexTest, BatExportShapes) {
  ContentIndex index = SmallIndex();
  EXPECT_EQ(index.DocBat().size(), 5u);
  EXPECT_EQ(index.TermBat().size(), 5u);
  EXPECT_EQ(index.TfBat().size(), 5u);
  EXPECT_EQ(index.DfBat().size(), 4u);
  EXPECT_EQ(index.DocLenBat().size(), 3u);
  // Postings sorted by term: term column non-decreasing.
  monet::Bat terms = index.TermBat();
  for (size_t i = 1; i < terms.size(); ++i) {
    EXPECT_LE(terms.tail().IntAt(i - 1), terms.tail().IntAt(i));
  }
}

// ---------------------------------------------------------------------------
// The bulk builder against a sequential reference: per-document map counts
// with ids interned in document order, then one sort by (term, doc).

struct ReferenceIndex {
  std::vector<std::string> vocab;
  std::vector<Posting> postings;
  std::vector<int64_t> df;
  std::vector<int64_t> len;
  CollectionStats stats;
};

ReferenceIndex BuildReference(const Docs& docs) {
  ReferenceIndex ref;
  std::map<std::string, int64_t> ids;
  for (size_t d = 0; d < docs.size(); ++d) {
    std::map<int64_t, int64_t> counts;
    for (const std::string& t : docs[d]) {
      auto [it, fresh] = ids.emplace(t, static_cast<int64_t>(ids.size()));
      if (fresh) ref.vocab.push_back(t);
      counts[it->second]++;
    }
    for (const auto& [term, tf] : counts) {
      ref.postings.push_back(Posting{d, term, tf});
    }
    ref.len.push_back(static_cast<int64_t>(docs[d].size()));
    ref.stats.total_terms += ref.len.back();
  }
  std::sort(ref.postings.begin(), ref.postings.end(),
            [](const Posting& a, const Posting& b) {
              return a.term != b.term ? a.term < b.term : a.doc < b.doc;
            });
  ref.df.assign(ref.vocab.size(), 0);
  for (const Posting& p : ref.postings) ref.df[static_cast<size_t>(p.term)]++;
  ref.stats.num_docs = static_cast<int64_t>(docs.size());
  ref.stats.vocab_size = static_cast<int64_t>(ref.vocab.size());
  ref.stats.num_postings = static_cast<int64_t>(ref.postings.size());
  ref.stats.avg_doclen = docs.empty()
                             ? 0.0
                             : static_cast<double>(ref.stats.total_terms) /
                                   static_cast<double>(docs.size());
  return ref;
}

std::vector<uint8_t> Encoded(const monet::Bat& bat) {
  std::vector<uint8_t> out;
  monet::EncodeBat(bat, &out);
  return out;
}

/// The reference's six BATs, in the export layout.
std::vector<std::vector<uint8_t>> ReferenceBats(const ReferenceIndex& ref) {
  std::vector<monet::Oid> docs, heads;
  std::vector<int64_t> terms, tfs;
  for (const Posting& p : ref.postings) {
    docs.push_back(p.doc);
    terms.push_back(p.term);
    tfs.push_back(p.tf);
  }
  for (size_t d = 0; d < ref.len.size(); ++d) heads.push_back(d);
  return {Encoded(monet::Bat::DenseOids(docs)),
          Encoded(monet::Bat::DenseInts(terms)),
          Encoded(monet::Bat::DenseInts(tfs)),
          Encoded(monet::Bat::DenseInts(ref.df)),
          Encoded(monet::Bat(monet::Column::MakeOids(heads),
                             monet::Column::MakeInts(ref.len))),
          Encoded(monet::Bat::DenseStrs(ref.vocab))};
}

std::vector<std::vector<uint8_t>> ExportedBats(const ContentIndex& index) {
  return {Encoded(index.DocBat()), Encoded(index.TermBat()),
          Encoded(index.TfBat()),  Encoded(index.DfBat()),
          Encoded(index.DocLenBat()), Encoded(index.VocabBat())};
}

/// Field-for-field equality of `index` with the reference.
void ExpectMatchesReference(const ContentIndex& index,
                            const ReferenceIndex& ref) {
  ASSERT_EQ(index.vocab().size(), static_cast<int64_t>(ref.vocab.size()));
  for (size_t t = 0; t < ref.vocab.size(); ++t) {
    ASSERT_EQ(index.vocab().TermOf(static_cast<int64_t>(t)), ref.vocab[t]);
    ASSERT_EQ(index.DocFreq(static_cast<int64_t>(t)), ref.df[t]) << t;
  }
  ASSERT_EQ(index.postings().size(), ref.postings.size());
  for (size_t i = 0; i < ref.postings.size(); ++i) {
    const Posting& got = index.postings()[i];
    const Posting& want = ref.postings[i];
    ASSERT_TRUE(got.doc == want.doc && got.term == want.term &&
                got.tf == want.tf)
        << "posting " << i;
  }
  for (size_t d = 0; d < ref.len.size(); ++d) {
    ASSERT_EQ(index.DocLen(d), ref.len[d]) << d;
  }
  EXPECT_EQ(index.stats().num_docs, ref.stats.num_docs);
  EXPECT_EQ(index.stats().vocab_size, ref.stats.vocab_size);
  EXPECT_EQ(index.stats().num_postings, ref.stats.num_postings);
  EXPECT_EQ(index.stats().total_terms, ref.stats.total_terms);
  EXPECT_EQ(index.stats().avg_doclen, ref.stats.avg_doclen);  // same bits
  EXPECT_EQ(ExportedBats(index), ReferenceBats(ref));
}

/// Builds `docs` inline and on private 1- and 4-thread pools; each must
/// match the reference.
void ExpectBuildsLikeReference(const Docs& docs) {
  const ReferenceIndex ref = BuildReference(docs);
  ExpectMatchesReference(IndexOf(docs), ref);
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    monet::WorkerPool pool;
    pool.EnsureWorkers(threads);
    ExpectMatchesReference(IndexOf(docs, &pool), ref);
  }
}

/// `n` documents of 0-40 zipf-drawn terms over `vocab` spellings.
Docs RandomDocs(size_t n, uint64_t vocab, uint64_t seed) {
  base::Rng rng(seed);
  Docs docs(n);
  for (auto& doc : docs) {
    const uint64_t len = rng.Uniform(41);
    for (uint64_t t = 0; t < len; ++t) {
      doc.push_back("w" + std::to_string(rng.Zipf(vocab, 1.0)));
    }
  }
  return docs;
}

TEST(ContentIndexBuildTest, NoDocumentsOneDocumentAndEmptyDocuments) {
  ExpectBuildsLikeReference({});
  ExpectBuildsLikeReference({{"solo", "doc", "solo"}});
  ExpectBuildsLikeReference({{}, {}, {}});
  Docs gaps = RandomDocs(5000, 50, 3);
  for (size_t d = 0; d < gaps.size(); d += 3) gaps[d].clear();
  ExpectBuildsLikeReference(gaps);
}

TEST(ContentIndexBuildTest, AllDuplicateTerms) {
  ExpectBuildsLikeReference(Docs(6000, std::vector<std::string>(7, "same")));
}

TEST(ContentIndexBuildTest, VocabularyFirstSeenInALateMorsel) {
  // Early documents use two terms; only the last ones (the last morsel at
  // any pool size) introduce new spellings, in an order unlike their sort
  // order, and reuse the early terms too.
  Docs docs = RandomDocs(20000, 2, 5);
  for (size_t d = 19900; d < docs.size(); ++d) {
    docs[d].push_back("late_" + std::to_string((docs.size() - d) % 37));
    docs[d].push_back("w0");
  }
  ExpectBuildsLikeReference(docs);
}

TEST(ContentIndexBuildTest, FiftyThousandDocuments) {
  ExpectBuildsLikeReference(RandomDocs(50000, 3000, 7));
}

TEST(ContentIndexBuildTest, RejectedDocumentsNameTheLowest) {
  const Docs docs = RandomDocs(40000, 100, 9);
  monet::WorkerPool pool;
  pool.EnsureWorkers(4);
  auto built = ContentIndex::Build(
      docs.size(),
      [&](size_t d,
          std::vector<std::string>*) -> const std::vector<std::string>* {
        return d == 35000 || d == 21000 ? nullptr : &docs[d];
      },
      &pool);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), base::StatusCode::kInvalidArgument);
  EXPECT_NE(built.status().message().find("document 21000"),
            std::string::npos)
      << built.status().ToString();
}

// ---------------------------------------------------------------------------
// FromBats: the recovery path's linear restore from the six BATs.

struct IndexBats {
  monet::Bat vocab, doc, term, tf, df, len;
};

IndexBats BatsOf(const ContentIndex& index) {
  return {index.VocabBat(), index.DocBat(), index.TermBat(),
          index.TfBat(),    index.DfBat(),  index.DocLenBat()};
}

base::Result<ContentIndex> Restore(const IndexBats& b) {
  return ContentIndex::FromBats(b.vocab, b.doc, b.term, b.tf, b.df, b.len);
}

TEST(ContentIndexFromBatsTest, RoundTripsTheExportIncludingUnpostedTerms) {
  const Docs docs = RandomDocs(3000, 200, 11);
  const ContentIndex index = IndexOf(docs);
  auto restored = Restore(BatsOf(index));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectMatchesReference(restored.value(), BuildReference(docs));

  // A vocabulary term without postings keeps its id and gets df 0.
  IndexBats bats = BatsOf(index);
  ReferenceIndex ref = BuildReference(docs);
  ref.vocab.push_back("unposted");
  ref.df.push_back(0);
  ref.stats.vocab_size += 1;
  bats.vocab = monet::Bat::DenseStrs(ref.vocab);
  bats.df = monet::Bat::DenseInts(ref.df);
  auto widened = Restore(bats);
  ASSERT_TRUE(widened.ok()) << widened.status().ToString();
  ExpectMatchesReference(widened.value(), ref);
  EXPECT_EQ(widened.value().vocab().Lookup("unposted"),
            static_cast<int64_t>(ref.vocab.size()) - 1);
}

TEST(ContentIndexFromBatsTest, InconsistentBatsGiveTypedErrors) {
  const ContentIndex index = SmallIndex();  // 5 postings, 4 terms, 3 docs
  auto expect_invalid = [](const IndexBats& bats, const char* what) {
    auto restored = Restore(bats);
    ASSERT_FALSE(restored.ok()) << what;
    EXPECT_EQ(restored.status().code(), base::StatusCode::kInvalidArgument)
        << what;
    EXPECT_NE(restored.status().message().find(what), std::string::npos)
        << restored.status().ToString();
  };
  auto ints = [](const monet::Bat& bat) {
    const auto rows = bat.tail().ints();
    return std::vector<int64_t>(rows.begin(), rows.end());
  };

  IndexBats bad_term = BatsOf(index);
  std::vector<int64_t> terms = ints(bad_term.term);
  terms.back() = 4;  // one past the vocabulary
  bad_term.term = monet::Bat::DenseInts(terms);
  expect_invalid(bad_term, "unknown term id 4");

  IndexBats unordered = BatsOf(index);
  const auto doc_rows = unordered.doc.tail().oids();
  std::vector<monet::Oid> docs(doc_rows.begin(), doc_rows.end());
  std::swap(docs[1], docs[2]);  // dog's two postings trade places
  unordered.doc = monet::Bat::DenseOids(docs);
  expect_invalid(unordered, "ascending (term, doc) order");

  IndexBats bad_df = BatsOf(index);
  std::vector<int64_t> df = ints(bad_df.df);
  df[0] += 1;
  bad_df.df = monet::Bat::DenseInts(df);
  expect_invalid(bad_df, "df of term 0");

  IndexBats sparse_len = BatsOf(index);
  sparse_len.len = monet::Bat(monet::Column::MakeOids({0, 2, 3}),
                              monet::Column::MakeInts({3, 2, 1}));
  expect_invalid(sparse_len, "not dense");
}

TEST(InferenceNetworkTest, BeliefBoundsAndDefault) {
  ContentIndex index = SmallIndex();
  InferenceNetwork network(&index);
  int64_t cat = index.vocab().Lookup("cat");
  double present = network.Belief(0, cat);
  double absent = network.Belief(1, cat);
  EXPECT_GT(present, network.DefaultBelief());
  EXPECT_LT(present, 1.0);
  EXPECT_DOUBLE_EQ(absent, network.DefaultBelief());
}

TEST(InferenceNetworkTest, RankSumPrefersMatchingDocs) {
  ContentIndex index = SmallIndex();
  InferenceNetwork network(&index);
  int64_t cat = index.vocab().Lookup("cat");
  int64_t dog = index.vocab().Lookup("dog");
  auto ranking = network.RankSum({cat, dog});
  ASSERT_GE(ranking.size(), 2u);
  EXPECT_EQ(ranking[0].doc, 0u);  // has both terms
}

TEST(InferenceNetworkTest, QueryNetworkOperatorSemantics) {
  ContentIndex index = SmallIndex();
  InferenceNetwork network(&index);
  int64_t cat = index.vocab().Lookup("cat");
  int64_t dog = index.vocab().Lookup("dog");
  double alpha = network.DefaultBelief();

  // #and: product of beliefs; for doc 1 (no cat) = alpha * bel(dog|1).
  auto and_rank = network.Evaluate(
      QueryNode::And({QueryNode::Term(cat), QueryNode::Term(dog)}));
  double bel_dog_1 = network.Belief(1, dog);
  bool found = false;
  for (const auto& sd : and_rank) {
    if (sd.doc == 1) {
      EXPECT_NEAR(sd.score, alpha * bel_dog_1, 1e-12);
      found = true;
    }
  }
  EXPECT_TRUE(found);

  // #or >= #and pointwise.
  auto or_rank = network.Evaluate(
      QueryNode::Or({QueryNode::Term(cat), QueryNode::Term(dog)}));
  for (const auto& o : or_rank) {
    for (const auto& a : and_rank) {
      if (a.doc == o.doc) EXPECT_GE(o.score + 1e-12, a.score);
    }
  }

  // #not inverts: doc with cat scores lower than doc without.
  auto not_rank = network.Evaluate(QueryNode::Not(QueryNode::Term(cat)));
  double score_doc0 = -1;
  for (const auto& sd : not_rank) {
    if (sd.doc == 0) score_doc0 = sd.score;
  }
  EXPECT_GE(score_doc0, 0.0);
  EXPECT_LT(score_doc0, 1.0 - alpha + 1e-12);

  // #max picks the best child.
  auto max_rank = network.Evaluate(
      QueryNode::Max({QueryNode::Term(cat), QueryNode::Term(dog)}));
  for (const auto& sd : max_rank) {
    EXPECT_GE(sd.score, alpha - 1e-12);
  }

  // #wsum weighting shifts ranking toward the heavier term.
  auto wsum = network.Evaluate(QueryNode::WSum(
      {QueryNode::Term(cat, 10.0), QueryNode::Term(dog, 0.1)}));
  ASSERT_FALSE(wsum.empty());
  EXPECT_EQ(wsum[0].doc, 0u);  // only doc with cat
}

TEST(InferenceNetworkTest, EvaluateToStringRoundTrip) {
  QueryNode q = QueryNode::WSum(
      {QueryNode::Term(0, 1.0), QueryNode::Not(QueryNode::Term(1))});
  std::string s = q.ToString();
  EXPECT_NE(s.find("#wsum"), std::string::npos);
  EXPECT_NE(s.find("#not"), std::string::npos);
}

TEST(SyntheticTextTest, GeneratesZipfianCollection) {
  SyntheticTextOptions options;
  options.num_docs = 200;
  options.vocab_size = 500;
  options.seed = 3;
  ContentIndex index = MakeSyntheticIndex(options);
  EXPECT_EQ(index.stats().num_docs, 200);
  EXPECT_GT(index.stats().vocab_size, 50);
  // Zipf: the most frequent term's df dominates the median term's.
  int64_t t0 = index.vocab().Lookup("t0");
  ASSERT_GE(t0, 0);
  EXPECT_GT(index.DocFreq(t0), 100);
}

TEST(SyntheticTextTest, QuerySamplingAvoidsExtremes) {
  SyntheticTextOptions options;
  options.num_docs = 300;
  options.seed = 5;
  ContentIndex index = MakeSyntheticIndex(options);
  base::Rng rng(7);
  auto terms = SampleQueryTerms(index, 8, &rng);
  EXPECT_EQ(terms.size(), 8u);
  for (int64_t t : terms) {
    EXPECT_GE(index.DocFreq(t), 2);
    EXPECT_LE(index.DocFreq(t), index.stats().num_docs / 4);
  }
}

TEST(FeedbackTest, ExpansionAddsRelevantTerms) {
  // Relevant docs share "sunset"/"beach"; irrelevant are about cities.
  ContentIndex index = IndexOf({{"sunset", "beach", "sand"},
                                {"sunset", "beach", "wave"},
                                {"city", "street", "car"},
                                {"city", "building", "car"}});
  InferenceNetwork network(&index);
  RelevanceFeedback feedback(FeedbackOptions{.expansion_terms = 2});

  int64_t sunset = index.vocab().Lookup("sunset");
  std::vector<std::pair<int64_t, double>> query = {{sunset, 1.0}};
  auto expanded = feedback.ExpandQuery(query, {0, 1}, network);
  ASSERT_GT(expanded.size(), 1u);
  // Original term reinforced.
  EXPECT_GT(expanded[0].second, 1.0);
  // Expansion terms come from the relevant docs, never the city docs.
  for (size_t i = 1; i < expanded.size(); ++i) {
    std::string term = index.vocab().TermOf(expanded[i].first);
    EXPECT_TRUE(term == "beach" || term == "sand" || term == "wave")
        << term;
  }
}

TEST(FeedbackTest, FeedbackImprovesRankingOfRelatedDocs) {
  SyntheticTextOptions options;
  options.num_docs = 150;
  options.seed = 11;
  ContentIndex index = MakeSyntheticIndex(options);
  InferenceNetwork network(&index);
  base::Rng rng(13);
  auto qterms = SampleQueryTerms(index, 2, &rng);
  std::vector<std::pair<int64_t, double>> query;
  for (int64_t t : qterms) query.emplace_back(t, 1.0);
  auto before = network.RankWSum(query);
  ASSERT_GT(before.size(), 3u);
  std::vector<monet::Oid> relevant = {before[0].doc, before[1].doc};
  RelevanceFeedback feedback;
  auto expanded = feedback.ExpandQuery(query, relevant, network);
  EXPECT_GT(expanded.size(), query.size());
  auto after = network.RankWSum(expanded);
  // The judged docs must stay at the top after reinforcement.
  ASSERT_GE(after.size(), 2u);
  EXPECT_TRUE(after[0].doc == relevant[0] || after[0].doc == relevant[1]);
}

}  // namespace
}  // namespace mirror::ir
