#ifndef MIRROR_IR_CONTENT_INDEX_H_
#define MIRROR_IR_CONTENT_INDEX_H_

#include <functional>
#include <string>
#include <vector>

#include "base/status.h"
#include "ir/vocabulary.h"
#include "monet/bat.h"

namespace mirror::monet {
class WorkerPool;
}  // namespace mirror::monet

namespace mirror::ir {

/// Global collection statistics (the `stats` argument of the paper's
/// `getBL(THIS.annotation, query, stats)` call).
struct CollectionStats {
  int64_t num_docs = 0;
  int64_t vocab_size = 0;
  int64_t num_postings = 0;   // distinct (doc, term) pairs
  int64_t total_terms = 0;    // sum of tf
  double avg_doclen = 0.0;
};

/// One (document, term) entry with its within-document frequency.
struct Posting {
  monet::Oid doc;
  int64_t term;
  int64_t tf;
};

/// How a retrieval run locates the postings of a query term (experiment
/// E3 contrasts the two).
enum class EvalStrategy {
  kInverted,  // binary-searched per-term ranges over term-sorted postings
  kScan,      // linear pass over the full postings column
};

/// The physical content representation behind a CONTREP structure: an
/// aggregated postings file with document lengths, document frequencies
/// and collection statistics over documents 0..n-1. Postings are stored
/// sorted by (term, doc) — the column-store equivalent of an inverted
/// file — and the index can export itself as BATs for the flattened
/// query engine. Build and FromBats are its only builders.
class ContentIndex {
 public:
  /// An empty index (no documents, no terms).
  ContentIndex() = default;

  /// The raw index terms of one document (duplicates aggregate into tf):
  /// either terms the caller already holds, or `storage` filled by the
  /// call. nullptr rejects the document. Called concurrently for
  /// distinct documents, each with its own `storage`.
  using TermsOf = std::function<const std::vector<std::string>*(
      size_t doc, std::vector<std::string>* storage)>;

  /// Indexes documents 0..n-1. Document morsels count tf on `pool`
  /// (nullptr runs on the calling thread) with morsel-local dictionaries,
  /// which merge in morsel order, so term ids follow first occurrence in
  /// document order at any pool size; a counting sort then scatters the
  /// postings into (term, doc) order. Fails with InvalidArgument naming
  /// the lowest document `terms_of` rejected.
  static base::Result<ContentIndex> Build(size_t n, const TermsOf& terms_of,
                                          monet::WorkerPool* pool);

  /// Rebuilds an index from its BAT export (the inverse of the six export
  /// functions below, in linear time). Fails with InvalidArgument when
  /// the BATs are inconsistent: mistyped or misaligned columns, duplicate
  /// spellings, term ids outside the vocabulary, postings not strictly
  /// ascending by (term, doc), df disagreeing with the posting runs, or
  /// length heads that are not the dense oids 0..n-1.
  static base::Result<ContentIndex> FromBats(const monet::Bat& vocab,
                                             const monet::Bat& doc,
                                             const monet::Bat& term,
                                             const monet::Bat& tf,
                                             const monet::Bat& df,
                                             const monet::Bat& len);

  const Vocabulary& vocab() const { return vocab_; }
  const CollectionStats& stats() const { return stats_; }
  const std::vector<Posting>& postings() const { return postings_; }

  /// Document frequency of a term id (0 for out-of-range ids).
  int64_t DocFreq(int64_t term) const;

  /// Length (sum of tf) of a document; 0 if unknown.
  int64_t DocLen(monet::Oid doc) const;

  /// tf of `term` in `doc` (0 if absent). O(log postings).
  int64_t TermFrequency(monet::Oid doc, int64_t term) const;

  /// Appends the postings of `term` to `out` using `strategy`.
  /// kInverted touches only the term's range; kScan reads every posting
  /// (and reports the work to the kernel profiler as a select).
  void PostingsForTerm(int64_t term, EvalStrategy strategy,
                       std::vector<const Posting*>* out) const;

  // -- BAT export (the catalog layout of a CONTREP field) ------------------
  // All three posting BATs are positionally aligned, void-headed by
  // posting id, ordered by (term, doc).

  monet::Bat DocBat() const;    // posting -> doc oid
  monet::Bat TermBat() const;   // posting -> term id (int)
  monet::Bat TfBat() const;     // posting -> tf (int)
  monet::Bat DfBat() const;     // term id (void) -> df (int); dense term ids
  monet::Bat DocLenBat() const; // doc oid -> length (int)
  monet::Bat VocabBat() const;  // term id (void) -> spelling (str)

 private:
  /// Fills stats_ from the built postings, lengths and vocabulary.
  void SetStats(int64_t total_terms);

  Vocabulary vocab_;
  std::vector<Posting> postings_;
  std::vector<int64_t> df_;                             // by term id
  std::vector<int64_t> doclen_;                         // by doc oid
  std::vector<std::pair<size_t, size_t>> term_ranges_;  // by term id
  CollectionStats stats_;
};

}  // namespace mirror::ir

#endif  // MIRROR_IR_CONTENT_INDEX_H_
