#ifndef MIRROR_MOA_OPTIMIZER_H_
#define MIRROR_MOA_OPTIMIZER_H_

#include "moa/expr.h"
#include "monet/mil.h"

namespace mirror::moa {

/// What the optimizer did to a query (reported by the experiment
/// harnesses alongside kernel counters).
struct OptimizerReport {
  int map_fusions = 0;
  int select_fusions = 0;
  /// scalar.sum over multiplex add/sub pushed through the arithmetic
  /// (sum(a±b) => sum(a)±sum(b)): the map no longer materializes its
  /// candidate-view inputs, so both sums run fused over the views.
  int agg_fusions = 0;
  /// scalar.sum(topn(x, 1)) detours rewritten into dedicated scalar.fold
  /// instructions (max/min skip the bounded sort; the fold opcode is also
  /// the shard engine's cross-shard merge form).
  int fold_rewrites = 0;
  size_t cse_removed = 0;
  size_t dce_removed = 0;
};

/// Algebraic rewriting on the logical expression tree (paper §2: the
/// translation to a different physical model "provides an excellent basis
/// for algebraic query optimization"):
///  - select-select fusion: select[p](select[q](X)) => select[q and p](X)
///  - map-map fusion for scalar bodies:
///    map[g](map[f](X)) => map[g{THIS:=f}](X)
/// Returns the rewritten tree; `report` (optional) accumulates counts.
ExprPtr RewriteLogical(const ExprPtr& expr, OptimizerReport* report);

/// Peephole passes over a flattened MIL program: scalar-aggregate
/// pushdown (sum(a±b) => sum(a)±sum(b), emitting the fused-agg form the
/// engine runs over candidate views), the scalar.fold rewrite of
/// sum(topn(x, 1)), then common subexpression elimination, then dead code
/// elimination. Range selections are not fused here: the flattener, which
/// still sees the predicate tree, emits one select.range per bound pair.
void OptimizeMil(monet::mil::Program* program, OptimizerReport* report);

}  // namespace mirror::moa

#endif  // MIRROR_MOA_OPTIMIZER_H_
