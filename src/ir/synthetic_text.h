#ifndef MIRROR_IR_SYNTHETIC_TEXT_H_
#define MIRROR_IR_SYNTHETIC_TEXT_H_

#include <string>
#include <vector>

#include "base/rng.h"
#include "ir/content_index.h"

namespace mirror::ir {

/// Parameters of the synthetic text workload used by the retrieval
/// benchmarks (E1/E3). Documents draw their terms from a Zipfian
/// vocabulary, matching the frequency skew of real collections.
struct SyntheticTextOptions {
  int64_t num_docs = 1000;
  int64_t vocab_size = 5000;
  int64_t doc_len_mean = 60;     // mean terms per document
  int64_t doc_len_spread = 20;   // +- uniform spread
  double zipf_skew = 1.1;
  uint64_t seed = 42;
};

/// Builds the index of synthetic documents with oids 0..n-1.
/// Terms are spelled "t<k>" with k the Zipf rank (t0 most frequent).
ContentIndex MakeSyntheticIndex(const SyntheticTextOptions& options);

/// Samples `length` distinct query term ids, biased towards
/// mid-frequency terms (the informative region real queries hit).
std::vector<int64_t> SampleQueryTerms(const ContentIndex& index,
                                      int length, base::Rng* rng);

}  // namespace mirror::ir

#endif  // MIRROR_IR_SYNTHETIC_TEXT_H_
