#include "moa/optimizer.h"

namespace mirror::moa {

namespace {

/// Substitutes every THIS in `body` with `replacement` (used for map-map
/// fusion: the inner map's body becomes the outer THIS).
ExprPtr SubstituteThis(const ExprPtr& body, const ExprPtr& replacement) {
  if (body->op == Expr::Op::kThis) return replacement;
  if (body->children.empty()) return body;
  Expr copy = *body;
  for (ExprPtr& child : copy.children) {
    child = SubstituteThis(child, replacement);
  }
  return std::make_shared<const Expr>(std::move(copy));
}

/// True if the body is a pure scalar computation (safe to substitute).
bool IsScalarBody(const ExprPtr& body) {
  switch (body->op) {
    case Expr::Op::kThis:
    case Expr::Op::kLit:
      return true;
    case Expr::Op::kField:
      return body->children[0]->op == Expr::Op::kThis;
    case Expr::Op::kArith:
    case Expr::Op::kCmp:
    case Expr::Op::kAnd:
    case Expr::Op::kOr:
      return IsScalarBody(body->children[0]) &&
             IsScalarBody(body->children[1]);
    default:
      return false;
  }
}

}  // namespace

ExprPtr RewriteLogical(const ExprPtr& expr, OptimizerReport* report) {
  // Bottom-up: rewrite children first.
  Expr copy = *expr;
  bool changed = false;
  for (ExprPtr& child : copy.children) {
    ExprPtr rewritten = RewriteLogical(child, report);
    if (rewritten != child) {
      child = rewritten;
      changed = true;
    }
  }
  ExprPtr node =
      changed ? std::make_shared<const Expr>(std::move(copy)) : expr;

  // select[p](select[q](X)) => select[q and p](X).
  if (node->op == Expr::Op::kSelect &&
      node->children[1]->op == Expr::Op::kSelect) {
    const ExprPtr& outer_pred = node->children[0];
    const ExprPtr& inner = node->children[1];
    ExprPtr fused_pred = Expr::And(inner->children[0], outer_pred);
    if (report != nullptr) report->select_fusions++;
    return RewriteLogical(Expr::Select(fused_pred, inner->children[1]),
                          report);
  }

  // map[g](map[f](X)) => map[g{THIS:=f}](X) for scalar bodies.
  if (node->op == Expr::Op::kMap &&
      node->children[1]->op == Expr::Op::kMap) {
    const ExprPtr& g = node->children[0];
    const ExprPtr& inner = node->children[1];
    const ExprPtr& f = inner->children[0];
    if (IsScalarBody(g) && IsScalarBody(f)) {
      if (report != nullptr) report->map_fusions++;
      return RewriteLogical(
          Expr::Map(SubstituteThis(g, f), inner->children[1]), report);
    }
  }
  return node;
}

}  // namespace mirror::moa
