#ifndef MIRROR_MONET_PROB_OPS_H_
#define MIRROR_MONET_PROB_OPS_H_

#include "monet/bat.h"
#include "monet/bat_ops.h"

namespace mirror::monet {

/// Parameters of the InQuery default-belief estimator. The belief that
/// document d supports representation concept t is
///
///   bel(t|d) = alpha + (1 - alpha) * T(tf, dl) * I(df)
///   T = tf / (tf + k_tf + k_len * dl / avg_dl)      (tf normalization)
///   I = log((N + 0.5) / df) / log(N + 1)            (idf normalization)
///
/// with the InQuery defaults alpha = 0.4, k_tf = 0.5, k_len = 1.5. These
/// are the "new probabilistic operators at the physical level" that the
/// paper's CONTREP structure relies on (§3).
struct BeliefParams {
  double alpha = 0.4;
  double k_tf = 0.5;
  double k_len = 1.5;
};

/// Computes per-posting beliefs, column-at-a-time.
///
/// Inputs are positionally aligned BATs with identical heads (one row per
/// posting that survived candidate selection):
///   `tf`     (doc -> term frequency, int)
///   `df`     (doc -> document frequency of the posting's term, int)
///   `doclen` (doc -> document length, int)
/// `num_docs` is the collection size and `avg_doclen` the mean document
/// length. The result BAT maps each posting's doc to its belief in (0,1).
Bat BeliefTfIdf(const Bat& tf, const Bat& df, const Bat& doclen,
                int64_t num_docs, double avg_doclen,
                const BeliefParams& params);

// The probabilistic combinations of beliefs per document — prod (AND)
// and probor (OR, 1 - prod(1 - x)) — are two kinds of the one per-head
// aggregate, AggregatePerHead (monet/bat_ops.h), with its top-k pruned
// singleton path for ranking plans.

}  // namespace mirror::monet

#endif  // MIRROR_MONET_PROB_OPS_H_
