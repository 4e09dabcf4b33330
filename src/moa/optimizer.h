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
  /// select.cmp chains fused into single select.range instructions (the
  /// MIL-level peephole feeding the engine's candidate pipelines).
  int range_fusions = 0;
  /// scalar.sum over multiplex add/sub pushed through the arithmetic
  /// (sum(a±b) => sum(a)±sum(b)): the map no longer materializes its
  /// candidate-view inputs, so both sums run fused over the views.
  int agg_fusions = 0;
  /// Links in select→semijoin chains the engine will run over candidate
  /// vectors without materializing (diagnostic).
  int candidate_chain_links = 0;
  /// Join inputs fed by candidate-pipeline producers: joins the radix
  /// engine will probe/build directly over candidate views instead of
  /// materializing them (diagnostic).
  int join_input_fusions = 0;
  /// scalar.sum(topn(x, 1)) detours rewritten into dedicated scalar.fold
  /// instructions (max/min skip the bounded sort; the fold opcode is also
  /// the shard engine's cross-shard merge form).
  int fold_rewrites = 0;
  /// Instructions the shard-parallel engine will fan out shard-locally
  /// when the database is sharded: ops reachable from loads through the
  /// shard-preserving instruction set (diagnostic; the engine makes the
  /// final call per register at run time).
  int shard_fanouts = 0;
  /// Selects over base BATs whose predicate normalizes to a recycler
  /// interval (SelectPredicate::FromInstr): candidates for exact-match
  /// replay or subsumption seeding when the recycler is armed
  /// (diagnostic; the engine decides per execution).
  int recycle_eligible_selects = 0;
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

/// Peephole passes over a flattened MIL program: select-chain fusion
/// (select.cmp pairs forming a range collapse into one select.range, so
/// candidate pipelines scan once), scalar-aggregate pushdown
/// (sum(a±b) => sum(a)±sum(b), emitting the fused-agg form the engine
/// runs over candidate views), then common subexpression elimination,
/// then dead code elimination.
void OptimizeMil(monet::mil::Program* program, OptimizerReport* report);

}  // namespace mirror::moa

#endif  // MIRROR_MOA_OPTIMIZER_H_
