#ifndef MIRROR_IR_INFERENCE_NETWORK_H_
#define MIRROR_IR_INFERENCE_NETWORK_H_

#include <string>
#include <vector>

#include "ir/content_index.h"
#include "monet/prob_ops.h"

namespace mirror::ir {

/// A node in the query network of the inference network retrieval model
/// ([WY95], InQuery). Leaves are representation concepts (index terms);
/// inner nodes combine evidence with the probabilistic operators
/// #sum/#wsum/#and/#or/#not/#max.
struct QueryNode {
  enum class Kind { kTerm, kSum, kWSum, kAnd, kOr, kNot, kMax };

  Kind kind = Kind::kTerm;
  int64_t term = -1;   // kTerm only
  double weight = 1.0; // this node's weight under a #wsum parent
  std::vector<QueryNode> children;

  static QueryNode Term(int64_t id, double weight = 1.0);
  static QueryNode Sum(std::vector<QueryNode> children);
  static QueryNode WSum(std::vector<QueryNode> children);
  static QueryNode And(std::vector<QueryNode> children);
  static QueryNode Or(std::vector<QueryNode> children);
  static QueryNode Not(QueryNode child);
  static QueryNode Max(std::vector<QueryNode> children);

  /// Debug rendering, e.g. "#wsum(1.0 cat, 0.5 dog)".
  std::string ToString(const Vocabulary* vocab = nullptr) const;
};

/// A ranked retrieval result.
struct ScoredDoc {
  monet::Oid doc;
  double score;

  bool operator==(const ScoredDoc& o) const = default;
};

/// The document-network side of the inference network, bound to one
/// content index. Computes `bel(t|d)` with the InQuery default-belief
/// estimator (see monet::BeliefParams) and evaluates query networks over
/// the whole collection, set-at-a-time.
///
/// This is the *direct* (in-memory) engine used by the naive Moa
/// interpreter, the thesaurus and the daemons; the flattened query path
/// compiles the same arithmetic to MIL over the index's BAT export, and
/// the two must agree (tested).
class InferenceNetwork {
 public:
  /// The index must outlive the network.
  InferenceNetwork(const ContentIndex* index,
                   monet::BeliefParams params = monet::BeliefParams());

  const monet::BeliefParams& params() const { return params_; }
  const ContentIndex& index() const { return *index_; }

  /// Belief that `doc` supports `term`; `tf = 0` yields the default
  /// belief alpha.
  double Belief(monet::Oid doc, int64_t term) const;

  /// The belief estimator on raw counts: tf of the term in the document,
  /// the document's length and the term's document frequency (collection
  /// statistics come from the bound index). Used by engines that obtain
  /// the counts elsewhere (e.g. the tuple-at-a-time interpreter, which
  /// counts terms by navigating the materialized object).
  double BeliefFromCounts(int64_t tf, int64_t doclen, int64_t df) const;

  /// The belief assigned to a document that contains no evidence for a
  /// term (equals params().alpha).
  double DefaultBelief() const { return params_.alpha; }

  /// Evaluates a query network over all candidate documents (those
  /// containing at least one query leaf). Results are sorted by
  /// descending score, ties broken by ascending doc oid.
  std::vector<ScoredDoc> Evaluate(
      const QueryNode& query,
      EvalStrategy strategy = EvalStrategy::kInverted) const;

  /// The paper's §3 ranking: `map[sum(THIS)](map[getBL(...)](lib))`.
  /// Plain (unnormalized) sum of per-term beliefs, with absent terms
  /// contributing the default belief. Exactly matches the flattened MIL
  /// plan for the same query.
  std::vector<ScoredDoc> RankSum(
      const std::vector<int64_t>& terms,
      EvalStrategy strategy = EvalStrategy::kInverted) const;

  /// Weighted variant used by thesaurus query formulation and relevance
  /// feedback: score(d) = sum_t w_t * bel(t|d), absent terms at alpha.
  std::vector<ScoredDoc> RankWSum(
      const std::vector<std::pair<int64_t, double>>& weighted_terms,
      EvalStrategy strategy = EvalStrategy::kInverted) const;

 private:
  const ContentIndex* index_;
  monet::BeliefParams params_;
};

}  // namespace mirror::ir

#endif  // MIRROR_IR_INFERENCE_NETWORK_H_
