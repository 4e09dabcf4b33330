#include "ir/inference_network.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <unordered_map>

#include "base/str_util.h"

namespace mirror::ir {

using monet::Oid;

QueryNode QueryNode::Term(int64_t id, double weight) {
  QueryNode n;
  n.kind = Kind::kTerm;
  n.term = id;
  n.weight = weight;
  return n;
}

namespace {

QueryNode MakeCombiner(QueryNode::Kind kind,
                       std::vector<QueryNode> children) {
  QueryNode n;
  n.kind = kind;
  n.children = std::move(children);
  return n;
}

}  // namespace

QueryNode QueryNode::Sum(std::vector<QueryNode> children) {
  return MakeCombiner(Kind::kSum, std::move(children));
}
QueryNode QueryNode::WSum(std::vector<QueryNode> children) {
  return MakeCombiner(Kind::kWSum, std::move(children));
}
QueryNode QueryNode::And(std::vector<QueryNode> children) {
  return MakeCombiner(Kind::kAnd, std::move(children));
}
QueryNode QueryNode::Or(std::vector<QueryNode> children) {
  return MakeCombiner(Kind::kOr, std::move(children));
}
QueryNode QueryNode::Not(QueryNode child) {
  QueryNode n;
  n.kind = Kind::kNot;
  n.children.push_back(std::move(child));
  return n;
}
QueryNode QueryNode::Max(std::vector<QueryNode> children) {
  return MakeCombiner(Kind::kMax, std::move(children));
}

std::string QueryNode::ToString(const Vocabulary* vocab) const {
  switch (kind) {
    case Kind::kTerm:
      if (vocab != nullptr && term >= 0 && term < vocab->size()) {
        return vocab->TermOf(term);
      }
      return base::StrFormat("t%lld", static_cast<long long>(term));
    default: {
      const char* name = "?";
      switch (kind) {
        case Kind::kSum:
          name = "#sum";
          break;
        case Kind::kWSum:
          name = "#wsum";
          break;
        case Kind::kAnd:
          name = "#and";
          break;
        case Kind::kOr:
          name = "#or";
          break;
        case Kind::kNot:
          name = "#not";
          break;
        case Kind::kMax:
          name = "#max";
          break;
        default:
          break;
      }
      std::string out(name);
      out += "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += ", ";
        if (kind == Kind::kWSum) {
          out += base::StrFormat("%.3g ", children[i].weight);
        }
        out += children[i].ToString(vocab);
      }
      out += ")";
      return out;
    }
  }
}

InferenceNetwork::InferenceNetwork(const ContentIndex* index,
                                   monet::BeliefParams params)
    : index_(index), params_(params) {
  MIRROR_CHECK(index_ != nullptr);
}

double InferenceNetwork::Belief(Oid doc, int64_t term) const {
  return BeliefFromCounts(index_->TermFrequency(doc, term),
                          index_->DocLen(doc), index_->DocFreq(term));
}

double InferenceNetwork::BeliefFromCounts(int64_t tf, int64_t doclen,
                                          int64_t df) const {
  if (tf == 0) return params_.alpha;
  const CollectionStats& s = index_->stats();
  double f = static_cast<double>(tf);
  double dl = static_cast<double>(doclen);
  double t_norm =
      f / (f + params_.k_tf + params_.k_len * dl / s.avg_doclen);
  double i_norm =
      std::log((static_cast<double>(s.num_docs) + 0.5) /
               std::max<double>(static_cast<double>(df), 1.0)) /
      std::log(static_cast<double>(s.num_docs) + 1.0);
  i_norm = std::clamp(i_norm, 0.0, 1.0);
  return params_.alpha + (1.0 - params_.alpha) * t_norm * i_norm;
}

namespace {

/// Sparse belief assignment: per-candidate beliefs plus the value shared
/// by every document absent from the map.
struct BeliefSet {
  std::unordered_map<Oid, double> by_doc;
  double default_belief = 0.0;
};

double ValueOf(const BeliefSet& s, Oid doc) {
  auto it = s.by_doc.find(doc);
  return it == s.by_doc.end() ? s.default_belief : it->second;
}

std::vector<ScoredDoc> ToRanking(const std::unordered_map<Oid, double>& map) {
  std::vector<ScoredDoc> out;
  out.reserve(map.size());
  for (const auto& [doc, score] : map) out.push_back({doc, score});
  std::sort(out.begin(), out.end(), [](const ScoredDoc& a, const ScoredDoc& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc < b.doc;
  });
  return out;
}

}  // namespace

std::vector<ScoredDoc> InferenceNetwork::Evaluate(
    const QueryNode& query, EvalStrategy strategy) const {
  // Recursive evaluation producing sparse belief sets.
  std::function<BeliefSet(const QueryNode&)> eval =
      [&](const QueryNode& node) -> BeliefSet {
    BeliefSet result;
    switch (node.kind) {
      case QueryNode::Kind::kTerm: {
        std::vector<const Posting*> postings;
        index_->PostingsForTerm(node.term, strategy, &postings);
        for (const Posting* p : postings) {
          result.by_doc[p->doc] = Belief(p->doc, node.term);
        }
        result.default_belief = params_.alpha;
        return result;
      }
      case QueryNode::Kind::kNot: {
        MIRROR_CHECK_EQ(node.children.size(), 1u);
        BeliefSet child = eval(node.children[0]);
        result.default_belief = 1.0 - child.default_belief;
        for (const auto& [doc, b] : child.by_doc) {
          result.by_doc[doc] = 1.0 - b;
        }
        return result;
      }
      default: {
        MIRROR_CHECK(!node.children.empty()) << "combiner with no children";
        std::vector<BeliefSet> kids;
        kids.reserve(node.children.size());
        for (const QueryNode& c : node.children) kids.push_back(eval(c));
        // Candidate set: union of child candidates.
        std::unordered_map<Oid, double> acc;
        for (const BeliefSet& k : kids) {
          for (const auto& [doc, b] : k.by_doc) acc.emplace(doc, 0.0);
        }
        double total_weight = 0.0;
        for (const QueryNode& c : node.children) total_weight += c.weight;
        for (auto& [doc, out] : acc) {
          switch (node.kind) {
            case QueryNode::Kind::kSum: {
              double sum = 0;
              for (const BeliefSet& k : kids) sum += ValueOf(k, doc);
              out = sum / static_cast<double>(kids.size());
              break;
            }
            case QueryNode::Kind::kWSum: {
              double sum = 0;
              for (size_t i = 0; i < kids.size(); ++i) {
                sum += node.children[i].weight * ValueOf(kids[i], doc);
              }
              out = total_weight > 0 ? sum / total_weight : 0.0;
              break;
            }
            case QueryNode::Kind::kAnd: {
              double prod = 1;
              for (const BeliefSet& k : kids) prod *= ValueOf(k, doc);
              out = prod;
              break;
            }
            case QueryNode::Kind::kOr: {
              double prod = 1;
              for (const BeliefSet& k : kids) prod *= 1.0 - ValueOf(k, doc);
              out = 1.0 - prod;
              break;
            }
            case QueryNode::Kind::kMax: {
              double best = 0;
              for (const BeliefSet& k : kids) {
                best = std::max(best, ValueOf(k, doc));
              }
              out = best;
              break;
            }
            default:
              MIRROR_UNREACHABLE();
          }
        }
        // Default value of the combiner applied to child defaults.
        switch (node.kind) {
          case QueryNode::Kind::kSum: {
            double sum = 0;
            for (const BeliefSet& k : kids) sum += k.default_belief;
            result.default_belief = sum / static_cast<double>(kids.size());
            break;
          }
          case QueryNode::Kind::kWSum: {
            double sum = 0;
            for (size_t i = 0; i < kids.size(); ++i) {
              sum += node.children[i].weight * kids[i].default_belief;
            }
            result.default_belief = total_weight > 0 ? sum / total_weight : 0;
            break;
          }
          case QueryNode::Kind::kAnd: {
            double prod = 1;
            for (const BeliefSet& k : kids) prod *= k.default_belief;
            result.default_belief = prod;
            break;
          }
          case QueryNode::Kind::kOr: {
            double prod = 1;
            for (const BeliefSet& k : kids) prod *= 1.0 - k.default_belief;
            result.default_belief = 1.0 - prod;
            break;
          }
          case QueryNode::Kind::kMax: {
            double best = 0;
            for (const BeliefSet& k : kids) {
              best = std::max(best, k.default_belief);
            }
            result.default_belief = best;
            break;
          }
          default:
            MIRROR_UNREACHABLE();
        }
        result.by_doc = std::move(acc);
        return result;
      }
    }
  };

  BeliefSet top = eval(query);
  return ToRanking(top.by_doc);
}

std::vector<ScoredDoc> InferenceNetwork::RankSum(
    const std::vector<int64_t>& terms, EvalStrategy strategy) const {
  std::vector<std::pair<int64_t, double>> weighted;
  weighted.reserve(terms.size());
  for (int64_t t : terms) weighted.emplace_back(t, 1.0);
  return RankWSum(weighted, strategy);
}

std::vector<ScoredDoc> InferenceNetwork::RankWSum(
    const std::vector<std::pair<int64_t, double>>& weighted_terms,
    EvalStrategy strategy) const {
  std::unordered_map<Oid, double> sum_wb;      // sum of w * belief (present)
  std::unordered_map<Oid, double> sum_w_hit;   // sum of w over present terms
  double total_weight = 0.0;
  for (const auto& [term, weight] : weighted_terms) {
    total_weight += weight;
    std::vector<const Posting*> postings;
    index_->PostingsForTerm(term, strategy, &postings);
    for (const Posting* p : postings) {
      sum_wb[p->doc] += weight * Belief(p->doc, term);
      sum_w_hit[p->doc] += weight;
    }
  }
  // Absent terms contribute the default belief alpha.
  for (auto& [doc, score] : sum_wb) {
    score += params_.alpha * (total_weight - sum_w_hit[doc]);
  }
  return ToRanking(sum_wb);
}

}  // namespace mirror::ir
