#ifndef MIRROR_MOA_FLATTEN_H_
#define MIRROR_MOA_FLATTEN_H_

#include "base/status.h"
#include "moa/database.h"
#include "moa/expr.h"
#include "moa/query_context.h"
#include "monet/exec.h"
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
  /// When false, beliefs are computed for every posting and filtered
  /// afterwards, and conjuncts are evaluated independently and intersected
  /// (the un-optimized algebraic translation): experiment E2's baseline.
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
  /// `db`, `ctx` and `exec_ctx` must outlive the flattener. A non-null
  /// `exec_ctx` enables the session plan cache: repeated compilations of
  /// the same expression under the same query bindings return the cached
  /// MIL program instead of re-flattening.
  Flattener(const Database* db, const QueryContext* ctx,
            FlattenOptions options = FlattenOptions(),
            monet::mil::ExecutionContext* exec_ctx = nullptr)
      : db_(db), ctx_(ctx), options_(options), exec_ctx_(exec_ctx) {}

  /// Translates `expr` into a MIL program ready for the ExecutionEngine
  /// (or the legacy mil::Executor) bound to `db->catalog()`.
  base::Result<monet::mil::Program> Compile(const ExprPtr& expr) const;

 private:
  const Database* db_;
  const QueryContext* ctx_;
  FlattenOptions options_;
  monet::mil::ExecutionContext* exec_ctx_;
};

}  // namespace mirror::moa

#endif  // MIRROR_MOA_FLATTEN_H_
