#ifndef MIRROR_MOA_OPTIMIZER_H_
#define MIRROR_MOA_OPTIMIZER_H_

#include "moa/expr.h"

namespace mirror::moa {

/// What the logical rewrites did to a query.
struct OptimizerReport {
  int map_fusions = 0;
  int select_fusions = 0;
};

/// Algebraic rewriting on the logical expression tree (paper §2: the
/// translation to a different physical model "provides an excellent basis
/// for algebraic query optimization"):
///  - select-select fusion: select[p](select[q](X)) => select[q and p](X)
///  - map-map fusion for scalar bodies:
///    map[g](map[f](X)) => map[g{THIS:=f}](X)
/// Returns the rewritten tree; `report` (optional) accumulates counts.
/// This is the optimizer's only pass: the physical choices, down to the
/// final MIL, are the flattener's (see FlattenOptions::optimize).
ExprPtr RewriteLogical(const ExprPtr& expr, OptimizerReport* report);

}  // namespace mirror::moa

#endif  // MIRROR_MOA_OPTIMIZER_H_
