#include "monet/prob_ops.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "monet/profiler.h"

namespace mirror::monet {

Bat BeliefTfIdf(const Bat& tf, const Bat& df, const Bat& doclen,
                int64_t num_docs, double avg_doclen,
                const BeliefParams& params) {
  MIRROR_CHECK_EQ(tf.size(), df.size());
  MIRROR_CHECK_EQ(tf.size(), doclen.size());
  MIRROR_CHECK_GT(num_docs, 0);
  MIRROR_CHECK_GT(avg_doclen, 0.0);
  size_t n = tf.size();
  TrackKernelOp(KernelOp::kBelief, 3 * n, n);
  std::vector<double> beliefs(n);
  const double idf_denominator = std::log(static_cast<double>(num_docs) + 1.0);
  for (size_t i = 0; i < n; ++i) {
    double f = tf.tail().NumAt(i);
    double d = df.tail().NumAt(i);
    double dl = doclen.tail().NumAt(i);
    double t_norm =
        f / (f + params.k_tf + params.k_len * dl / avg_doclen);
    double i_norm =
        std::log((static_cast<double>(num_docs) + 0.5) / std::max(d, 1.0)) /
        idf_denominator;
    i_norm = std::clamp(i_norm, 0.0, 1.0);
    beliefs[i] = params.alpha + (1.0 - params.alpha) * t_norm * i_norm;
  }
  return Bat(tf.head(), Column::MakeDbls(std::move(beliefs)));
}

}  // namespace mirror::monet
