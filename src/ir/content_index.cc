#include "ir/content_index.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "base/str_util.h"
#include "monet/profiler.h"
#include "monet/worker_pool.h"

namespace mirror::ir {

using monet::Bat;
using monet::Column;
using monet::Oid;

namespace {

/// Documents per morsel below which Build does not split further.
constexpr size_t kMinMorselDocs = 1024;

/// One document morsel of Build: its local dictionary, per-local-term
/// posting counts, and its postings in document order.
struct DocMorsel {
  struct Entry {
    Oid doc;
    uint32_t term;  // local id
    uint32_t tf;
  };
  Vocabulary terms;              // local ids in first-occurrence order
  std::vector<size_t> df;        // by local id: postings in this morsel
  std::vector<Entry> postings;   // docs ascending
  std::vector<int64_t> global;   // by local id: the merged term id
  std::vector<size_t> slot;      // by local id: next scatter position
  int64_t total_terms = 0;
  size_t rejected = SIZE_MAX;    // lowest rejected document
};

/// Counts tf for documents [lo, hi) into `m`, writing each length into
/// `doclen`. Stops at the first document `terms_of` rejects.
void CountMorsel(size_t lo, size_t hi, const ContentIndex::TermsOf& terms_of,
                 DocMorsel* m, std::vector<int64_t>* doclen) {
  std::vector<std::string> storage;
  std::vector<uint32_t> tf;       // by local id; zero between documents
  std::vector<uint32_t> touched;  // local ids of the current document
  for (size_t doc = lo; doc < hi; ++doc) {
    storage.clear();
    const std::vector<std::string>* terms = terms_of(doc, &storage);
    if (terms == nullptr) {
      m->rejected = doc;
      return;
    }
    for (const std::string& t : *terms) {
      const auto id = static_cast<uint32_t>(m->terms.Intern(t));
      if (id == tf.size()) {
        tf.push_back(0);
        m->df.push_back(0);
      }
      if (tf[id]++ == 0) touched.push_back(id);
    }
    for (uint32_t id : touched) {
      m->postings.push_back({static_cast<Oid>(doc), id, tf[id]});
      m->df[id] += 1;
      tf[id] = 0;
    }
    touched.clear();
    const auto len = static_cast<int64_t>(terms->size());
    (*doclen)[doc] = len;
    m->total_terms += len;
  }
}

}  // namespace

base::Result<ContentIndex> ContentIndex::Build(size_t n,
                                               const TermsOf& terms_of,
                                               monet::WorkerPool* pool) {
  ContentIndex index;
  index.doclen_.assign(n, 0);
  const size_t threads =
      pool == nullptr ? 1 : static_cast<size_t>(pool->size()) + 1;
  const size_t morsel_count =
      std::max<size_t>(1, std::min(n / kMinMorselDocs, 4 * threads));
  std::vector<DocMorsel> morsels(morsel_count);
  monet::ParallelForChunks(pool, n, morsel_count,
                           [&](size_t m, size_t lo, size_t hi) {
                             CountMorsel(lo, hi, terms_of, &morsels[m],
                                         &index.doclen_);
                           });
  for (const DocMorsel& m : morsels) {
    if (m.rejected != SIZE_MAX) {
      return base::Status::InvalidArgument(
          base::StrFormat("document %zu was rejected", m.rejected));
    }
  }

  // Merge the local dictionaries in morsel order: a term's first morsel
  // is the one holding its first occurrence, and local ids follow first
  // occurrence, so global ids match a sequential pass over the documents.
  for (DocMorsel& m : morsels) {
    m.global.resize(static_cast<size_t>(m.terms.size()));
    for (int64_t l = 0; l < m.terms.size(); ++l) {
      m.global[static_cast<size_t>(l)] =
          index.vocab_.Intern(m.terms.TermOf(l));
    }
  }
  const auto vocab_size = static_cast<size_t>(index.vocab_.size());
  index.df_.assign(vocab_size, 0);
  for (const DocMorsel& m : morsels) {
    for (size_t l = 0; l < m.global.size(); ++l) {
      index.df_[static_cast<size_t>(m.global[l])] +=
          static_cast<int64_t>(m.df[l]);
    }
  }

  // Counting sort: a term's range starts after all smaller terms' postings;
  // within it, each morsel's postings follow the earlier morsels'.
  index.term_ranges_.resize(vocab_size);
  std::vector<size_t> cursor(vocab_size);
  size_t total = 0;
  for (size_t t = 0; t < vocab_size; ++t) {
    cursor[t] = total;
    total += static_cast<size_t>(index.df_[t]);
    index.term_ranges_[t] = {cursor[t], total};
  }
  for (DocMorsel& m : morsels) {
    m.slot.resize(m.global.size());
    for (size_t l = 0; l < m.global.size(); ++l) {
      size_t& next = cursor[static_cast<size_t>(m.global[l])];
      m.slot[l] = next;
      next += m.df[l];
    }
  }
  // Documents ascend within a morsel and morsels cover ascending ranges,
  // so the scatter leaves each term's postings in document order.
  index.postings_.resize(total);
  monet::ParallelFor(pool, morsel_count, [&](size_t i) {
    DocMorsel& m = morsels[i];
    for (const DocMorsel::Entry& e : m.postings) {
      index.postings_[m.slot[e.term]++] =
          Posting{e.doc, m.global[e.term], static_cast<int64_t>(e.tf)};
    }
    m.postings = {};
  });

  int64_t total_terms = 0;
  for (const DocMorsel& m : morsels) total_terms += m.total_terms;
  index.SetStats(total_terms);
  return index;
}

base::Result<ContentIndex> ContentIndex::FromBats(const Bat& vocab,
                                                  const Bat& doc,
                                                  const Bat& term,
                                                  const Bat& tf, const Bat& df,
                                                  const Bat& len) {
  auto invalid = [](const std::string& what) {
    return base::Status::InvalidArgument("inconsistent CONTREP BATs: " + what);
  };
  auto is_oid = [](const Column& c) {
    return c.type() == monet::ValueType::kOid || c.is_void();
  };
  auto is_int = [](const Column& c) {
    return c.type() == monet::ValueType::kInt;
  };
  if (vocab.tail().type() != monet::ValueType::kStr ||
      !is_oid(doc.tail()) || !is_int(term.tail()) || !is_int(tf.tail()) ||
      !is_int(df.tail()) || !is_oid(len.head()) || !is_int(len.tail())) {
    return invalid("unexpected column types");
  }
  if (term.size() != doc.size() || tf.size() != doc.size() ||
      df.size() != vocab.size()) {
    return invalid("misaligned columns");
  }

  ContentIndex index;
  for (size_t t = 0; t < vocab.size(); ++t) {
    if (index.vocab_.Intern(vocab.tail().StrAt(t)) !=
        static_cast<int64_t>(t)) {
      return invalid(base::StrFormat("duplicate spelling of term %zu", t));
    }
  }
  const size_t n = len.size();
  index.doclen_.resize(n);
  int64_t total_terms = 0;
  for (size_t d = 0; d < n; ++d) {
    if (len.head().OidAt(d) != d) {
      return invalid("document length heads are not dense");
    }
    index.doclen_[d] = len.tail().IntAt(d);
  }

  const size_t vocab_size = vocab.size();
  const size_t count = doc.size();
  index.postings_.reserve(count);
  index.df_.assign(vocab_size, 0);
  index.term_ranges_.assign(vocab_size, {0, 0});
  std::vector<int64_t> doc_terms(n, 0);
  for (size_t i = 0; i < count; ++i) {
    const Posting p{doc.tail().OidAt(i), term.tail().IntAt(i),
                    tf.tail().IntAt(i)};
    if (p.term < 0 || p.term >= static_cast<int64_t>(vocab_size)) {
      return invalid(base::StrFormat("posting %zu has unknown term id %lld", i,
                                     static_cast<long long>(p.term)));
    }
    if (p.doc >= n || p.tf <= 0) {
      return invalid(base::StrFormat("posting %zu has no document or tf", i));
    }
    if (i > 0) {
      const Posting& prev = index.postings_.back();
      if (p.term < prev.term || (p.term == prev.term && p.doc <= prev.doc)) {
        return invalid(base::StrFormat(
            "posting %zu breaks the ascending (term, doc) order", i));
      }
    }
    const auto t = static_cast<size_t>(p.term);
    if (index.df_[t] == 0) index.term_ranges_[t].first = i;
    index.df_[t] += 1;
    index.term_ranges_[t].second = i + 1;
    if (__builtin_add_overflow(doc_terms[p.doc], p.tf, &doc_terms[p.doc]) ||
        __builtin_add_overflow(total_terms, p.tf, &total_terms)) {
      return invalid("term counts overflow");
    }
    index.postings_.push_back(p);
  }
  for (size_t t = 0; t < vocab_size; ++t) {
    if (df.tail().IntAt(t) != index.df_[t]) {
      return invalid(
          base::StrFormat("df of term %zu disagrees with its postings", t));
    }
  }
  if (doc_terms != index.doclen_) {
    return invalid("document lengths disagree with the postings");
  }
  index.SetStats(total_terms);
  return index;
}

int64_t ContentIndex::DocFreq(int64_t term) const {
  if (term < 0 || term >= static_cast<int64_t>(df_.size())) return 0;
  return df_[static_cast<size_t>(term)];
}

int64_t ContentIndex::DocLen(Oid doc) const {
  return doc < doclen_.size() ? doclen_[doc] : 0;
}

int64_t ContentIndex::TermFrequency(Oid doc, int64_t term) const {
  if (term < 0 || term >= static_cast<int64_t>(term_ranges_.size())) return 0;
  auto [lo, hi] = term_ranges_[static_cast<size_t>(term)];
  auto begin = postings_.begin() + static_cast<ptrdiff_t>(lo);
  auto end = postings_.begin() + static_cast<ptrdiff_t>(hi);
  auto it = std::lower_bound(begin, end, doc,
                             [](const Posting& p, Oid d) { return p.doc < d; });
  if (it == end || it->doc != doc) return 0;
  return it->tf;
}

void ContentIndex::PostingsForTerm(int64_t term, EvalStrategy strategy,
                                   std::vector<const Posting*>* out) const {
  if (strategy == EvalStrategy::kInverted) {
    if (term < 0 || term >= static_cast<int64_t>(term_ranges_.size())) return;
    auto [lo, hi] = term_ranges_[static_cast<size_t>(term)];
    monet::TrackKernelOp(monet::KernelOp::kSelect, hi - lo, hi - lo);
    for (size_t i = lo; i < hi; ++i) out->push_back(&postings_[i]);
    return;
  }
  // Full scan baseline: reads every posting.
  monet::TrackKernelOp(monet::KernelOp::kSelect, postings_.size(), 0);
  for (const Posting& p : postings_) {
    if (p.term == term) out->push_back(&p);
  }
}

Bat ContentIndex::DocBat() const {
  std::vector<Oid> docs;
  docs.reserve(postings_.size());
  for (const Posting& p : postings_) docs.push_back(p.doc);
  return Bat::DenseOids(std::move(docs));
}

Bat ContentIndex::TermBat() const {
  std::vector<int64_t> terms;
  terms.reserve(postings_.size());
  for (const Posting& p : postings_) terms.push_back(p.term);
  return Bat::DenseInts(std::move(terms));
}

Bat ContentIndex::TfBat() const {
  std::vector<int64_t> tfs;
  tfs.reserve(postings_.size());
  for (const Posting& p : postings_) tfs.push_back(p.tf);
  return Bat::DenseInts(std::move(tfs));
}

Bat ContentIndex::DfBat() const {
  return Bat::DenseInts(df_);
}

Bat ContentIndex::DocLenBat() const {
  std::vector<Oid> docs(doclen_.size());
  std::iota(docs.begin(), docs.end(), Oid{0});
  return Bat(Column::MakeOids(std::move(docs)), Column::MakeInts(doclen_));
}

Bat ContentIndex::VocabBat() const {
  std::vector<std::string> spellings;
  spellings.reserve(static_cast<size_t>(vocab_.size()));
  for (int64_t t = 0; t < vocab_.size(); ++t) {
    spellings.push_back(vocab_.TermOf(t));
  }
  return Bat::DenseStrs(spellings);
}

void ContentIndex::SetStats(int64_t total_terms) {
  stats_.num_docs = static_cast<int64_t>(doclen_.size());
  stats_.vocab_size = vocab_.size();
  stats_.num_postings = static_cast<int64_t>(postings_.size());
  stats_.total_terms = total_terms;
  stats_.avg_doclen = stats_.num_docs == 0
                          ? 0.0
                          : static_cast<double>(stats_.total_terms) /
                                static_cast<double>(stats_.num_docs);
}

}  // namespace mirror::ir
