#include "ir/synthetic_text.h"

#include <algorithm>
#include <unordered_set>

#include "base/str_util.h"
#include "monet/worker_pool.h"

namespace mirror::ir {

ContentIndex MakeSyntheticIndex(const SyntheticTextOptions& options) {
  // Draw every document's term ranks first (the generator is sequential),
  // then index them on the shared pool.
  base::Rng rng(options.seed);
  std::vector<std::vector<uint64_t>> ranks(
      static_cast<size_t>(std::max<int64_t>(options.num_docs, 0)));
  for (std::vector<uint64_t>& doc : ranks) {
    int64_t len = options.doc_len_mean +
                  rng.UniformInt(-options.doc_len_spread,
                                 options.doc_len_spread);
    len = std::max<int64_t>(len, 1);
    doc.reserve(static_cast<size_t>(len));
    for (int64_t i = 0; i < len; ++i) {
      doc.push_back(rng.Zipf(static_cast<uint64_t>(options.vocab_size),
                             options.zipf_skew));
    }
  }
  return ContentIndex::Build(
             ranks.size(),
             [&](size_t d, std::vector<std::string>* storage) {
               for (uint64_t rank : ranks[d]) {
                 storage->push_back(base::StrFormat(
                     "t%llu", static_cast<unsigned long long>(rank)));
               }
               return storage;
             },
             &monet::SharedWorkerPool())
      .TakeValue();
}

std::vector<int64_t> SampleQueryTerms(const ContentIndex& index, int length,
                                      base::Rng* rng) {
  MIRROR_CHECK(rng != nullptr);
  // Candidate pool: terms with df in [2, num_docs/4] — informative terms.
  const int64_t vocab = index.vocab().size();
  std::vector<int64_t> pool;
  int64_t df_cap = std::max<int64_t>(index.stats().num_docs / 4, 4);
  for (int64_t t = 0; t < vocab; ++t) {
    int64_t df = index.DocFreq(t);
    if (df >= 2 && df <= df_cap) pool.push_back(t);
  }
  if (pool.empty()) {
    for (int64_t t = 0; t < vocab; ++t) {
      if (index.DocFreq(t) > 0) pool.push_back(t);
    }
  }
  std::unordered_set<int64_t> chosen;
  std::vector<int64_t> out;
  while (static_cast<int>(out.size()) < length &&
         chosen.size() < pool.size()) {
    int64_t t = pool[rng->Uniform(pool.size())];
    if (chosen.insert(t).second) out.push_back(t);
  }
  return out;
}

}  // namespace mirror::ir
