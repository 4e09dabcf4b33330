#ifndef MIRROR_MONET_BAT_OPS_H_
#define MIRROR_MONET_BAT_OPS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "monet/bat.h"
#include "monet/candidate.h"
#include "monet/worker_pool.h"
#include "monet/zone_map.h"

namespace mirror::monet {

class QueryTrace;  // monet/trace.h

using BatPtr = std::shared_ptr<const Bat>;  // also declared in catalog.h

// The Monet-style column-at-a-time operator set. Every operator is a free
// function that consumes const BATs and materializes a new BAT (the
// bulk-processing model that Moa's flattening targets, [BWK98]). All
// operators report to the kernel profiler.
//
// The selection/semijoin/slice family additionally has candidate-vector
// forms (suffix `Cand`) that produce a CandidateList over the input's base
// BAT instead of copying tuples; pipelines of those operators materialize
// once, at a pipeline breaker, via Materialize(). Aggregates, topN and
// joins read such views directly: they take an optional candidate list
// (null = every row), so a whole BAT is the view over all of its rows.
// The ExecutionEngine drives this late-materialization mode; the
// materializing forms remain the definition of operator semantics.

/// Intra-operator (morsel) parallelism resources, threaded into the hot
/// kernels by the ExecutionEngine. A kernel whose input domain exceeds
/// `morsel_size` splits it into ceil(n / morsel_size) morsels dispatched
/// on `pool` (a select's morsels write into one domain-sized position
/// buffer, compacted in morsel order; aggregates merge per-morsel partial
/// accumulators).
/// A null pool or morsel_size 0 — the default — runs the kernel on the
/// calling thread, which is also the sequential Executor's mode.
struct MorselExec {
  WorkerPool* pool = nullptr;
  size_t morsel_size = 0;
  /// Radix partition count for hash join build sides. 0 (the default)
  /// derives it from the estimated L2 budget (cache_info.h); an explicit
  /// value — rounded up to a power of two — forces it, which tests use
  /// to exercise the multi-partition path on small inputs.
  size_t radix_partitions = 0;
  /// When true, selective membership probes (semijoin/antijoin where the
  /// probe domain is at least as large as the member-key set) build a
  /// per-partition Bloom filter in front of the radix table, so probe
  /// misses cost one cache line instead of a bucket-chain walk. Filter
  /// rejects are counted as KernelStats.bloom_hits. The engine always
  /// leaves it on; tests turn it off to compare against unfiltered probes.
  bool bloom_probes = true;
  /// Cooperative query deadline (ExecOptions.query_deadline_ms): when
  /// set, morsel drivers skip remaining morsels once the clock passes it
  /// and the engine turns the abandoned (partial) kernel output into a
  /// DeadlineExceeded error at the next instruction boundary — a long
  /// query releases its session promptly instead of holding it forever.
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};
  /// Per-query memory accounting (ExecOptions.memory_budget_bytes): kernels
  /// that materialize output (gathers, radix build arrays, register stores)
  /// charge approximate bytes into `mem_used`; once the running total
  /// passes `mem_budget` morsel drivers skip remaining work and the engine
  /// turns the abandoned output into a ResourceExhausted error at the next
  /// instruction boundary. A null `mem_used` disables accounting; a zero
  /// budget with a non-null counter tracks peak usage without enforcing.
  std::atomic<uint64_t>* mem_used = nullptr;
  uint64_t mem_budget = 0;
  /// Per-query tracing (ExecOptions.trace): when set, the morsel drivers
  /// record one kMorsel span per dispatched task into the sink, tagged
  /// with `trace_shard` (the shard whose RunState carries this MorselExec;
  /// -1 when running unsharded/global). Null — the default — records
  /// nothing.
  QueryTrace* trace = nullptr;
  int32_t trace_shard = -1;

  /// True once the deadline (if any) has passed.
  bool Expired() const {
    return has_deadline && std::chrono::steady_clock::now() >= deadline;
  }

  /// Adds `bytes` of materialized output to the query's running total.
  void Charge(uint64_t bytes) const {
    if (mem_used != nullptr) {
      mem_used->fetch_add(bytes, std::memory_order_relaxed);
    }
  }

  /// True once charged bytes exceed the (non-zero) budget.
  bool OverBudget() const {
    return mem_used != nullptr && mem_budget > 0 &&
           mem_used->load(std::memory_order_relaxed) > mem_budget;
  }

  /// True when the query should stop doing work (deadline or budget).
  bool Aborted() const { return Expired() || OverBudget(); }

  /// Number of morsels a domain of `n` rows splits into (1 = run inline).
  size_t MorselsFor(size_t n) const {
    if (pool == nullptr || morsel_size == 0 || n <= morsel_size) return 1;
    return (n + morsel_size - 1) / morsel_size;
  }
};

// ---------------------------------------------------------------------------
// Structural operators.

/// (h,t) -> (t,h). A void column is materialized to oids.
Bat Reverse(const Bat& b);

/// (h,t) -> (h,h): pairs each head value with itself.
Bat Mirror(const Bat& b);

/// (h,t) -> (h, void(base)): numbers the rows densely from `base`.
Bat Mark(const Bat& b, Oid base = 0);

/// Rows [start, start+count) (clamped to size): a view of `b`'s buffers.
Bat Slice(const Bat& b, size_t start, size_t count);

/// Appends `b` to `a`; column types must match (numeric widening int->dbl
/// is applied; a void head is kept void when the result stays dense).
Bat Concat(const Bat& a, const Bat& b);

/// Order-preserving n-way concatenation — the fan-in merge of shard (and
/// morsel) fragments. Equivalent to folding Concat left to right, but
/// with one output allocation; adjacent void heads whose ranges chain
/// re-form a single void column, so gathered shard fragments of a dense
/// BAT reproduce it exactly. `parts` must be non-empty.
Bat ConcatAll(const std::vector<const Bat*>& parts);

// ---------------------------------------------------------------------------
// Selection.

/// Rows whose tail equals `v`.
Bat SelectEq(const Bat& b, const Value& v);

/// Rows whose tail lies in the range [lo,hi] / (lo,hi) per the
/// inclusive flags.
Bat SelectRange(const Bat& b, const Value& lo, const Value& hi,
                bool lo_inclusive, bool hi_inclusive);

/// Rows whose tail does not equal `v`.
Bat SelectNeq(const Bat& b, const Value& v);

/// Comparison operators for the general selection form.
enum class CmpOp { kEq, kNeq, kLt, kLe, kGt, kGe };

/// Rows whose tail satisfies `tail (cmp) v`. Works for numeric and string
/// tails; ordering across int/dbl compares as double.
Bat SelectCmp(const Bat& b, CmpOp cmp, const Value& v);

// ---------------------------------------------------------------------------
// Candidate-vector forms (late materialization). Each takes an optional
// candidate domain over `b` (nullptr = all rows) and returns the surviving
// row positions of `b` without copying tuples. Semantics match
// `Materialize(b, XCand(b, ..., cands))` == `X(Materialize(b, *cands), ...)`.
// The trailing MorselExec splits large domains across the worker pool
// (results are identical; see MorselExec).
//
// Eq/Cmp/Range additionally accept the tail column's zone map (`zones`,
// nullable): over dense sub-domains, blocks whose [min, max] provably
// fails the predicate are skipped without reading a row, and blocks that
// provably satisfy it append their positions wholesale. Positions
// produced are identical either way; skipped blocks count into
// KernelStats.zone_blocks_skipped.
//
// Comparisons follow the naive oracle: an int or oid tail compares
// exactly with an int or oid literal and in double space with a dbl one;
// dbl tails compare as doubles, str tails bytewise.

CandidateList SelectEqCand(const Bat& b, const Value& v,
                           const CandidateList* cands = nullptr,
                           const MorselExec& mx = {},
                           const ZoneMap* zones = nullptr);
CandidateList SelectNeqCand(const Bat& b, const Value& v,
                            const CandidateList* cands = nullptr,
                            const MorselExec& mx = {});
CandidateList SelectCmpCand(const Bat& b, CmpOp cmp, const Value& v,
                            const CandidateList* cands = nullptr,
                            const MorselExec& mx = {},
                            const ZoneMap* zones = nullptr);
CandidateList SelectRangeCand(const Bat& b, const Value& lo, const Value& hi,
                              bool lo_inclusive, bool hi_inclusive,
                              const CandidateList* cands = nullptr,
                              const MorselExec& mx = {},
                              const ZoneMap* zones = nullptr);

/// Positions of `l` (within `lcands`, or all rows) whose HEAD occurs among
/// the heads of `r`. The membership hash set over `r` is built once and
/// shared by all probe morsels.
CandidateList SemiJoinHeadCand(const Bat& l, const Bat& r,
                               const CandidateList* lcands = nullptr,
                               const MorselExec& mx = {});

/// Positions of `l` whose HEAD does not occur among the heads of `r`.
CandidateList AntiJoinHeadCand(const Bat& l, const Bat& r,
                               const CandidateList* lcands = nullptr,
                               const MorselExec& mx = {});

/// Positions of `l` whose TAIL occurs among the TAILS of `r`.
CandidateList SemiJoinTailCand(const Bat& l, const Bat& r,
                               const CandidateList* lcands = nullptr,
                               const MorselExec& mx = {});

/// Copies the candidate rows of `b` into a materialized BAT: the single
/// tuple-copy point of a candidate pipeline (sort, join build sides and
/// result delivery are the pipeline breakers; candidate-aware aggregates
/// below no longer are). A dense candidate range copies nothing: it is a
/// view of `b`'s buffers, like Slice. Large sparse gathers split into
/// per-morsel fragment BATs that are appended once at the end.
Bat Materialize(const Bat& b, const CandidateList& cands,
                const MorselExec& mx = {});

/// Approximate resident bytes of a BAT's columns, used for per-query
/// memory accounting (MorselExec::Charge). Fixed-width columns count
/// 8 bytes per row; string columns count their 4-byte offset vectors only
/// (the interned heap is shared with the base BAT and not re-copied by
/// gathers). Void columns are free. A view counts its own rows, not the
/// buffer it pins.
uint64_t ApproxBatBytes(const Bat& b);

// ---------------------------------------------------------------------------
// Join family. Keys compare across compatible types (int/dbl inter-compare,
// void acts as oid).

/// Natural join on l.tail == r.head: (A,B) join (B,C) -> (A,C).
/// When r has a void head the join degenerates to positional fetch.
///
/// Executes as a radix-partitioned hash join: the build side is
/// clustered by key-hash prefix into cache-sized partitions (count
/// derived from the L2 budget, see cache_info.h), per-partition chain
/// indexes are built as independent pool tasks, and probe morsels emit
/// disjoint ordered match fragments. Output rows appear in probe order
/// with build matches per key in build order — exactly the order
/// JoinLegacy produces. String keys across distinct heaps fall back to
/// the legacy spelling-keyed path.
Bat Join(const Bat& l, const Bat& r, const MorselExec& mx = {});

/// Candidate-aware join: probes `l` at the `lcands` positions against a
/// table built over `r` at the `rcands` positions (nullptr = all rows),
/// so select→join plans consume candidate views with zero Materialize()
/// calls. Equivalent to
/// `Join(Materialize(l, *lcands), Materialize(r, *rcands))`.
Bat JoinCand(const Bat& l, const CandidateList* lcands, const Bat& r,
             const CandidateList* rcands, const MorselExec& mx = {});

/// The pre-radix single-threaded build/probe hash join, kept verbatim as
/// the sequential Executor's join and the output-order reference the
/// join tests compare the radix pipeline against.
Bat JoinLegacy(const Bat& l, const Bat& r);

/// A reusable join build side: the radix-clustered table over `r` (at the
/// build candidate positions) that `JoinCand` constructs internally, made
/// shareable so N probes — the shard engine probes one shard fragment
/// each — build it exactly once instead of once per probe. Tables are
/// built lazily per key mode (the canonical key type depends on the probe
/// column's type, which may differ across probes) under an internal
/// mutex; a positional fetch join (void build head, full coverage) needs
/// no table at all.
class JoinBuild {
 public:
  ~JoinBuild();
  JoinBuild(const JoinBuild&) = delete;
  JoinBuild& operator=(const JoinBuild&) = delete;

 private:
  JoinBuild();
  friend std::shared_ptr<const JoinBuild> PrepareJoinBuild(
      BatPtr r, std::shared_ptr<const CandidateList> rcands,
      const MorselExec& mx);
  friend Bat ProbePreparedJoin(const Bat& l, const CandidateList* lcands,
                               const JoinBuild& build, const MorselExec& mx);
  friend void WarmJoinBuild(const JoinBuild& build, const Column& probe_tail);
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Forces the table serving probes of `probe_tail`'s type (and heap) to
/// exist, building it on the calling thread. Call before fanning probe
/// tasks out across the pool so the shared build happens exactly once,
/// up front, instead of lazily under the first racing probe.
void WarmJoinBuild(const JoinBuild& build, const Column& probe_tail);

/// Captures `r` (and its optional build-side candidate domain) as a
/// shareable join build side. `mx` supplies the pool for morsel-parallel
/// clustering when a table is first needed; it must outlive the build.
std::shared_ptr<const JoinBuild> PrepareJoinBuild(
    BatPtr r, std::shared_ptr<const CandidateList> rcands = nullptr,
    const MorselExec& mx = {});

/// Probes `l` (at `lcands`, or all rows) against a prepared build side.
/// `ProbePreparedJoin(l, lc, *PrepareJoinBuild(r, rc), mx)` is equivalent
/// to `JoinCand(l, lc, r, rc, mx)` — same rows, same order.
Bat ProbePreparedJoin(const Bat& l, const CandidateList* lcands,
                      const JoinBuild& build, const MorselExec& mx = {});

/// Rows of `l` whose HEAD occurs among the heads of `r` (MonetDB semijoin
/// semantics).
Bat SemiJoinHead(const Bat& l, const Bat& r);

/// Rows of `l` whose HEAD does not occur among the heads of `r`.
Bat AntiJoinHead(const Bat& l, const Bat& r);

/// Rows of `l` whose TAIL occurs among the TAILS of `r`. (Convenience for
/// inverted-file candidate filtering.)
Bat SemiJoinTail(const Bat& l, const Bat& r);

// ---------------------------------------------------------------------------
// Ordering and duplicates.

/// Stable sort by tail value.
Bat SortByTail(const Bat& b, bool ascending = true);

/// The `n` rows with the greatest (descending=true) or smallest tails,
/// in sorted order; ties break toward the earlier row (the order a full
/// stable sort would produce). Runs in O(n log k) via a bounded
/// partial sort rather than sorting all rows.
Bat TopNByTail(const Bat& b, size_t n, bool descending = true);

/// Top-n over a view: equivalent to
/// `TopNByTail(Materialize(b, *cands), n, descending)` without the copy
/// (`cands` null: every row of `b`). Morsels compute per-morsel top-n
/// prefixes that are merged at the end.
///
/// When a shared top-k threshold is supplied (descending, dbl tails —
/// ranking plans), candidates scoring strictly below the current bound
/// are prefiltered before the partial sorts; a pruned row scores
/// strictly below the final k'th row, so the result (including tie
/// order) is bit-identical. The TopN only consumes the threshold — the
/// coupled aggregate is the sole offerer, because re-offering rows it
/// already offered would double-count scores and lift the bound past
/// the true k'th score.
Bat TopNByTailCand(const Bat& b, const CandidateList* cands, size_t n,
                   bool descending = true, const MorselExec& mx = {},
                   TopKThreshold* topk = nullptr);

/// Keeps the first row for each distinct tail value.
Bat UniqueTail(const Bat& b);

/// Keeps the first row for each distinct head value.
Bat UniqueHead(const Bat& b);

// ---------------------------------------------------------------------------
// Grouping and aggregation. Heads must be oid-like (void/oid) or int.
// Output order is ascending head.

/// The per-head aggregates, one parameter of one group-by (MIL's `{f}`
/// pump). prod and probor (1 - prod(1 - x)) are the inference network's
/// probabilistic AND and OR. count yields int tails; every other kind
/// yields dbl tails.
enum class AggKind { kSum, kCount, kMax, kMin, kAvg, kProd, kProbOr };

/// What the caller knows about an aggregate's input beyond the BAT.
/// The defaults know nothing, and every hint leaves the output unchanged
/// except the top-k coupling, which may drop rows that cannot rank.
struct AggHints {
  /// Every head oid lies in [head_lo, head_hi); an empty range (the
  /// default) means no bound is known. The shard engine supplies its
  /// fragments' oid ranges, the engine a base BAT's load-time zone head
  /// bounds. An oid-typed head within a range no wider than 8 rows per
  /// domain row (plus 1024) accumulates into a dense array indexed by
  /// `oid - head_lo`: no hash table, no partial-map merge, no sort. Void
  /// heads and sparser ranges take the exact singleton/hash paths.
  Oid head_lo = 0;
  Oid head_hi = 0;
  /// Top-k coupling of a ranking plan (WAND-style), honoured on the
  /// void-head path of a dbl tail for every kind but count: rows scoring
  /// strictly below the shared threshold are dropped before the
  /// downstream TopN reads them, and `tail_zones` block upper bounds skip
  /// whole blocks and morsels without touching a row. ONLY legal when the
  /// downstream TopN (descending, n == threshold k) is this aggregate's
  /// sole consumer: the output then differs only in rows that provably
  /// cannot reach the final top k.
  const ZoneMap* tail_zones = nullptr;
  TopKThreshold* topk = nullptr;
};

/// Aggregates the tails of `b` per distinct head: (g, x) -> (g, f(x...)).
/// `cands` restricts the input to a candidate view over `b` (null: every
/// row); the result equals aggregating `Materialize(b, *cands)` without
/// the copy. A void head (dense oids — what the flattener's select chains
/// produce) makes every group a singleton, so the group-by degenerates to
/// a direct (oid, value) construction; late materialization keeps exactly
/// the structural knowledge this path needs, which a materialized oid
/// column has lost. Otherwise large domains split into morsels whose
/// partial accumulator tables merge in morsel order before finalization.
Bat AggregatePerHead(const Bat& b, const CandidateList* cands, AggKind kind,
                     const MorselExec& mx = {}, const AggHints& hints = {});

/// Value-frequency histogram over tails: (x, t) -> (t, count). The result
/// head takes the tail's type.
Bat CountPerTailValue(const Bat& b);

/// Scalar aggregates over the tail column. The count also takes a
/// candidate view over `b` (null: every row), which it answers off the
/// list alone.
double ScalarSum(const Bat& b);
int64_t ScalarCount(const Bat& b, const CandidateList* cands = nullptr);
Value ScalarMax(const Bat& b);
Value ScalarMin(const Bat& b);

/// Scalar fold combinators: each is associative and commutative, so
/// per-morsel (and per-shard) partial folds merge with the same operator
/// — the natural cross-shard merge instruction behind MIL's scalar.fold.
enum class FoldOp { kMax, kMin, kProd, kPor };

/// Combines two fold partials (por(a,b) = 1 - (1-a)(1-b)).
double ApplyFold(double a, double b, FoldOp op);

/// The fold's empty-input value: 0 for max/min (the naive oracle's
/// extremum-of-empty-set convention, which the topN(1)+sum flattening
/// also produced) and por (its identity), 1 for prod (its identity).
/// Single source of truth for the kernel and the shard engine's
/// all-shards-empty merge.
double FoldEmptyValue(FoldOp op);

/// Folds the numeric tails of `b`. The empty input yields 0 for
/// max/min/por (matching the naive oracle's extremum-of-empty-set and the
/// por identity) and 1 for prod (its identity).
double ScalarFold(const Bat& b, FoldOp op);

// ---------------------------------------------------------------------------
// Multiplexed scalar arithmetic ("map[op]" at the physical level). Numeric
// columns only; binary forms require equal sizes and positionally aligned
// heads (the flattener guarantees this).

enum class BinOp { kAdd, kSub, kMul, kDiv, kMax, kMin, kPow };
enum class UnOp { kLog, kLog1p, kExp, kSqrt, kNeg, kAbs, kOneMinus };

/// Element-wise l.tail (op) r.tail; result keeps l's head. Result is int
/// only when both inputs are int and the op is closed over ints.
Bat MapBinary(const Bat& l, const Bat& r, BinOp op);

/// Element-wise l.tail (op) scalar.
Bat MapBinaryScalar(const Bat& l, const Value& scalar, BinOp op);

/// Element-wise unary function of the tail; result tail is dbl.
Bat MapUnary(const Bat& b, UnOp op);

/// Replaces every tail with the constant `v` (keeps the head). Used by
/// the flattener to give map results their default value on elements
/// without matching evidence.
Bat FillTail(const Bat& b, const Value& v);

/// Scalar `a (op) b` with BinOp's arithmetic (double domain throughout) —
/// the kernel behind MIL's scalar.bin instruction, which the optimizer
/// emits when pushing scalar sums through multiplex arithmetic.
double ApplyScalarBin(double a, double b, BinOp op);

// ---------------------------------------------------------------------------
// Mapped views: scalar map arithmetic kept as a chain of per-element steps
// over a candidate view (or a whole BAT) instead of one new BAT per map.
// Scalar aggregates evaluate the chain inline, a block of tail values at a
// time; every other consumer collapses the view with one gather that
// applies the chain (MaterializeMapped).

/// One per-element step: `x (bin_op) scalar` — MapBinaryScalar — or
/// `un_op(x)` — MapUnary. `out` is the step's result type, decided exactly
/// as the materializing kernel decides it: int only while the input and
/// the constant are int and the op is closed over ints, dbl otherwise.
struct MapStep {
  bool unary = false;
  BinOp bin_op = BinOp::kAdd;
  UnOp un_op = UnOp::kLog;
  Value scalar;
  ValueType out = ValueType::kDbl;
};

/// An immutable chain of steps over a numeric tail of type `input`. Chains
/// are shared between registers; appending a step builds a new chain.
struct MapChain {
  ValueType input = ValueType::kInt;
  std::vector<MapStep> steps;

  /// The tail type the chain produces.
  ValueType out_type() const {
    return steps.empty() ? input : steps.back().out;
  }

  /// `prev` (null: the empty chain over a tail of type `input`) followed
  /// by `x (op) scalar`. Null when the step cannot be deferred: a
  /// non-numeric tail or constant, which the materializing kernel rejects.
  static std::shared_ptr<const MapChain> ThenBinary(const MapChain* prev,
                                                    ValueType input,
                                                    BinOp op,
                                                    const Value& scalar);

  /// `prev` followed by `op(x)`; null for a non-numeric tail.
  static std::shared_ptr<const MapChain> ThenUnary(const MapChain* prev,
                                                   ValueType input, UnOp op);
};

/// `sum` of the view: equals ScalarSum over the BAT that applying `chain`
/// (null: no steps) to `Materialize(b, *cands)` (or to `b` when `cands`
/// is null) would produce. Large domains split into morsels whose partial
/// sums add in morsel order: int chains are exact, dbl values may differ
/// from the single-pass sum only by that regrouping.
double ScalarSumMapped(const Bat& b, const CandidateList* cands,
                       const MapChain* chain, const MorselExec& mx = {});

/// Fold of the view, with the same morsels; partials merge via ApplyFold
/// in morsel order (empty morsels contribute nothing), so max/min are
/// exact and prod/por may regroup like the sum.
double ScalarFoldMapped(const Bat& b, const CandidateList* cands,
                        const MapChain* chain, FoldOp op,
                        const MorselExec& mx = {});

/// Collapses the mapped view into one BAT: identical to applying the
/// chain's MapBinaryScalar/MapUnary steps to `Materialize(b, *cands)` (or
/// to `b` when `cands` is null), with a single output tail instead of one
/// per step.
Bat MaterializeMapped(const Bat& b, const CandidateList* cands,
                      const MapChain& chain, const MorselExec& mx = {});

}  // namespace mirror::monet

#endif  // MIRROR_MONET_BAT_OPS_H_
