#ifndef MIRROR_MOA_FLATTEN_H_
#define MIRROR_MOA_FLATTEN_H_

#include "base/status.h"
#include "moa/database.h"
#include "moa/expr.h"
#include "moa/query_context.h"
#include "monet/mil.h"

namespace mirror::moa {

/// Flattening options.
struct FlattenOptions {
  /// When true (the Mirror way), the translator applies the physical
  /// optimizations the architecture was designed for:
  ///  - getBL evaluates inverted: postings are restricted to the query's
  ///    terms (and to candidate documents from enclosing selections)
  ///    BEFORE the belief computation;
  ///  - selection candidates are pushed into content plans;
  ///  - conjuncts filter sequentially, each over the previous one's
  ///    candidates, and the first lower bound (> or >=) and first upper
  ///    bound (< or <=) against literals on one field (or on THIS over a
  ///    mapped set) compile to one select.range instead of two selects.
  /// Its emission is the final MIL, by four rules:
  ///  - an instruction identical to an earlier one reuses its register
  ///    (mil::Instr::SameOperation), so shared loads and semijoins are
  ///    emitted once;
  ///  - max/min compile to one scalar.fold(max|min);
  ///  - sum(map[a ± b](X)) compiles to two scalar.sum and one scalar.bin
  ///    (one level; no map.bin);
  ///  - getBL's (doc -> weight) join is emitted only for sum/avg scores,
  ///    the only ones that read it.
  /// When false, beliefs are computed for every posting and filtered
  /// afterwards, conjuncts are evaluated independently and intersected,
  /// max/min are sum(topN(1)) and every instruction is emitted as
  /// translated (the un-optimized algebraic translation): experiment E2's
  /// baseline.
  bool optimize = true;
};

/// Compiles Moa expressions to MIL programs over the flattened BAT layout
/// — the [BWK98] translation that gives the Mirror DBMS its set-at-a-time
/// execution model.
///
/// Supported query class (the paper's demo queries and their relational
/// combinations):
///  - named set scans, `select[pred]` with field/literal comparisons
///    combined by and/or, `semijoin`;
///  - `map[...]` with scalar bodies (field access, arithmetic);
///  - the content-ranking pattern
///    `map[sum(THIS)](map[getBL(THIS.f, q, stats)](X))` (also `count`);
///  - scalar aggregates `sum/count/avg/max/min` over mapped sets;
///    `topN`.
///
/// A bare `map[getBL(...)](X)` compiles to the sparse evidence BAT
/// (beliefs of query terms present in each document); the total map
/// semantics (absent terms at the default belief) is restored by the
/// aggregate patterns, which is where the two engines are required to
/// agree exactly.
class Flattener {
 public:
  /// `db` and `ctx` must outlive the flattener.
  Flattener(const Database* db, const QueryContext* ctx,
            FlattenOptions options = FlattenOptions())
      : db_(db), ctx_(ctx), options_(options) {}

  /// Translates `expr` into a MIL program ready for the ExecutionEngine
  /// (or the legacy mil::Executor) bound to `db->catalog()`.
  base::Result<monet::mil::Program> Compile(const ExprPtr& expr) const;

 private:
  const Database* db_;
  const QueryContext* ctx_;
  FlattenOptions options_;
};

}  // namespace mirror::moa

#endif  // MIRROR_MOA_FLATTEN_H_
