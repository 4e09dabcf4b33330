#include "monet/exec.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <map>

#include "monet/bat_ops.h"
#include "monet/prob_ops.h"
#include "monet/profiler.h"
#include "monet/recycler.h"
#include "monet/trace.h"
#include "monet/worker_pool.h"

namespace mirror::monet::mil {

// ---------------------------------------------------------------------------
// ExecutionContext.

std::string ExecutionContext::NormalizeText(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  bool pending_space = false;
  bool in_literal = false;  // inside '...': whitespace is significant
  for (char c : text) {
    if (!in_literal && std::isspace(static_cast<unsigned char>(c))) {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) {
      out += ' ';
      pending_space = false;
    }
    if (c == '\'') in_literal = !in_literal;
    out += c;
  }
  return out;
}

std::shared_ptr<const Program> ExecutionContext::CachedPlan(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  ++lookups_;
  auto it = plans_.find(key);
  if (it == plans_.end()) return nullptr;
  ++hits_;
  return it->second;
}

void ExecutionContext::CachePlan(const std::string& key, Program program) {
  std::lock_guard<std::mutex> lock(mu_);
  // Bounded: keys include query bindings, so sessions serving ad-hoc
  // queries would otherwise grow without limit. Eviction is arbitrary —
  // the cache targets verbatim-repeated queries, not working sets.
  while (plans_.size() >= kMaxPlans && !plans_.empty()) {
    plans_.erase(plans_.begin());
  }
  plans_[key] = std::make_shared<const Program>(std::move(program));
}

void ExecutionContext::InvalidatePlans() {
  std::lock_guard<std::mutex> lock(mu_);
  plans_.clear();
}

size_t ExecutionContext::plan_cache_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plans_.size();
}

// ---------------------------------------------------------------------------
// ExecutionEngine.

bool IsCandidatePipelineOp(OpCode op) {
  switch (op) {
    case OpCode::kSelectEq:
    case OpCode::kSelectNeq:
    case OpCode::kSelectCmp:
    case OpCode::kSelectRange:
    case OpCode::kSemiJoinHead:
    case OpCode::kAntiJoinHead:
    case OpCode::kSemiJoinTail:
    case OpCode::kSlice:
      return true;
    default:
      return false;
  }
}

bool IsShardLocalUnaryOp(OpCode op) {
  switch (op) {
    case OpCode::kSelectEq:
    case OpCode::kSelectNeq:
    case OpCode::kSelectCmp:
    case OpCode::kSelectRange:
    case OpCode::kMirror:
    case OpCode::kUniqueHead:
    case OpCode::kMapBinaryScalar:
    case OpCode::kMapUnary:
    case OpCode::kFillTail:
      return true;
    default:
      return PerHeadAggKind(op).has_value();
  }
}

namespace {

/// The WAND couplings of one Run(): each ranking pattern — a prob
/// aggregate whose SOLE consumer is a descending kTopN — shares one
/// rising top-k threshold between the aggregate (prunes + offers) and
/// the TopN (prefilters + offers). Keyed by instruction identity, so the
/// shard engine's re-execution of the same Instr per shard shares one
/// threshold across every shard of the plan.
struct TopKPlan {
  std::map<const Instr*, std::shared_ptr<TopKThreshold>> by_instr;

  TopKThreshold* For(const Instr& i) const {
    auto it = by_instr.find(&i);
    return it == by_instr.end() ? nullptr : it->second.get();
  }
};

/// Detects the ranking patterns of `program`. The aggregate's output may
/// legally omit provably-losing rows only when nothing but the TopN ever
/// reads it, so the coupling requires the aggregate register to have
/// exactly one writer and exactly one use (the TopN's src0), and the
/// result register not to be the aggregate itself.
TopKPlan BuildTopKPlan(const Program& program) {
  TopKPlan plan;
  std::map<int, int> uses;
  std::map<int, int> writers;
  std::map<int, const Instr*> producer;
  for (const Instr& i : program.instrs()) {
    for (int src : {i.src0, i.src1, i.src2}) {
      if (src >= 0) ++uses[src];
    }
    ++writers[i.dst];
    producer[i.dst] = &i;
  }
  ++uses[program.result_reg()];
  for (const Instr& i : program.instrs()) {
    if (i.op != OpCode::kTopN || !i.flag0 || i.n < 1 || i.src0 < 0) continue;
    if (writers[i.src0] != 1 || uses[i.src0] != 1) continue;
    const Instr* p = producer[i.src0];
    if (p == nullptr ||
        (p->op != OpCode::kProdPerHead && p->op != OpCode::kProbOrPerHead)) {
      continue;
    }
    auto threshold =
        std::make_shared<TopKThreshold>(static_cast<size_t>(i.n));
    plan.by_instr.emplace(p, threshold);
    plan.by_instr.emplace(&i, threshold);
  }
  return plan;
}

/// Shared state of one Run(): the borrowed register file plus the mutex
/// guarding post-completion slot upgrades (candidate view -> materialized
/// BAT). Producer-side slot writes need no lock: the scheduler's queue
/// mutex orders them before any dependent reads. `mx` carries the morsel
/// resources into the kernels (null pool when running single-threaded).
struct RunState {
  const Catalog* catalog;
  bool zone_maps;
  bool topk_prune;
  const TopKPlan* topk;
  MorselExec mx;
  std::vector<RegValue>* regs;
  std::mutex slot_mu;
  /// Zone statistics pinned for the whole run: the catalog can mutate
  /// (and drop its caches) while a query executes, so the run holds its
  /// own reference instead of chasing the catalog's current snapshot.
  Catalog::ZoneSnapshot zones;
  /// Recycler wiring (armed on the unsharded path only — shard-local
  /// candidate positions don't compose across layouts): the server-wide
  /// cache, the generation this execution captured at query start, and
  /// the base-BAT load name per register (empty unless the register's
  /// sole writer is a kLoadNamed).
  Recycler* recycler = nullptr;
  uint64_t recycler_gen = 0;
  const std::vector<std::string>* load_names = nullptr;
  /// Tracing (armed by ExecOptions.trace + trace_sink): the span sink,
  /// the shard this state executes against (-1 = global), and the
  /// program's instruction array base for index recovery. Per-shard
  /// RunStates keep `trace` null — ExecShardFanout records the per-shard
  /// spans itself, so shard-local ExecInstr calls stay silent and every
  /// (instruction, shard) pair yields exactly one span.
  QueryTrace* trace = nullptr;
  int32_t trace_shard = -1;
  const Instr* trace_base = nullptr;

  RegValue& slot(int reg) { return (*regs)[static_cast<size_t>(reg)]; }
};

/// The typed error of an aborted run: budget breaches win over deadline
/// expiry (a query can hit both; the budget is the more actionable one).
base::Status AbortedStatus(const MorselExec& mx) {
  if (mx.OverBudget()) {
    return base::Status::ResourceExhausted("query memory budget exceeded");
  }
  return base::Status::DeadlineExceeded("query deadline exceeded");
}

/// The tail zone map of `bat` from the run's pinned zone snapshot, or
/// null when zone pruning is off, the BAT is not a cached base BAT, or
/// its tail carries no bounds. Intermediate results never hit the cache
/// (pointer lookup), so pruning only ever consults load-time statistics.
const ZoneMap* TailZonesFor(RunState& st, const Bat* bat) {
  if (!st.zone_maps || st.zones == nullptr || bat == nullptr) {
    return nullptr;
  }
  const BatZones* z = st.zones->ForBat(bat);
  if (z == nullptr || !z->tail.valid) return nullptr;
  return &z->tail;
}

/// The shared top-k threshold coupled to instruction `i`, or null when
/// top-k pruning is off or `i` is not part of a ranking pattern.
TopKThreshold* TopKFor(RunState& st, const Instr& i) {
  if (!st.topk_prune || st.topk == nullptr) return nullptr;
  return st.topk->For(i);
}

/// True when `c` is every row of an `n`-row BAT.
bool CoversAllRows(const CandidateList& c, size_t n) {
  return c.is_dense() && c.first() == 0 && c.size() == n;
}

/// A register's materialized BAT; lazily collapses a candidate or mapped
/// view into a BAT (shared by all later consumers of the register): one
/// gather that applies the view's map chain, if any. The gather itself
/// runs outside slot_mu so independent pipeline breakers stay parallel;
/// racing consumers may materialize twice, and the first to publish wins.
base::Result<BatPtr> MatInput(RunState& st, int reg) {
  if (reg < 0 || reg >= static_cast<int>(st.regs->size())) {
    return base::Status::Internal("register out of range");
  }
  BatPtr base;
  std::shared_ptr<const CandidateList> cands;
  std::shared_ptr<const MapChain> map;
  {
    std::lock_guard<std::mutex> lock(st.slot_mu);
    RegValue& rv = st.slot(reg);
    if (!rv.written || rv.is_scalar || rv.bat == nullptr) {
      return base::Status::Internal("register r" + std::to_string(reg) +
                                    " does not hold a BAT");
    }
    if (rv.is_candidate() && CoversAllRows(*rv.cands, rv.bat->size())) {
      rv.cands = nullptr;  // full coverage: the base IS the domain
    }
    if (!rv.is_candidate() && !rv.is_mapped()) return rv.bat;
    base = rv.bat;
    cands = rv.cands;
    map = rv.map;
  }
  BatPtr materialized = std::make_shared<const Bat>(
      map != nullptr ? MaterializeMapped(*base, cands.get(), *map, st.mx)
                     : Materialize(*base, *cands, st.mx));
  std::lock_guard<std::mutex> lock(st.slot_mu);
  RegValue& rv = st.slot(reg);
  if (rv.is_candidate() || rv.is_mapped()) {
    rv.bat = materialized;
    rv.cands = nullptr;
    rv.map = nullptr;
  }
  return rv.bat;
}

/// A register as (base BAT, optional candidate list) without forcing
/// materialization. A mapped view is handed out as such when the caller
/// takes its chain (`map` non-null); otherwise it collapses first, since
/// its base's tail does not hold the register's values.
base::Status CandInput(RunState& st, int reg, BatPtr* base,
                       std::shared_ptr<const CandidateList>* cands,
                       std::shared_ptr<const MapChain>* map = nullptr) {
  if (reg < 0 || reg >= static_cast<int>(st.regs->size())) {
    return base::Status::Internal("register out of range");
  }
  {
    std::lock_guard<std::mutex> lock(st.slot_mu);
    RegValue& rv = st.slot(reg);
    if (!rv.written || rv.is_scalar || rv.bat == nullptr) {
      return base::Status::Internal("register r" + std::to_string(reg) +
                                    " does not hold a BAT");
    }
    if (!rv.is_mapped() || map != nullptr) {
      *base = rv.bat;
      *cands = rv.cands;
      if (map != nullptr) *map = rv.map;
      return base::Status::Ok();
    }
  }
  auto collapsed = MatInput(st, reg);
  if (!collapsed.ok()) return collapsed.status();
  *base = collapsed.value();
  cands->reset();
  return base::Status::Ok();
}

void PutBat(RunState& st, int dst, Bat bat) {
  // Register stores of freshly materialized BATs are the engine's main
  // allocation points; shared-pointer stores (PutBatPtr — base BATs,
  // already-counted results) are references, not copies, and stay free.
  st.mx.Charge(ApproxBatBytes(bat));
  RegValue& rv = st.slot(dst);
  rv.Clear();
  rv.bat = std::make_shared<const Bat>(std::move(bat));
  rv.written = true;
}

void PutBatPtr(RunState& st, int dst, BatPtr bat) {
  RegValue& rv = st.slot(dst);
  rv.Clear();
  rv.bat = std::move(bat);
  rv.written = true;
}

void PutCand(RunState& st, int dst, BatPtr base, CandidateList cands) {
  if (!cands.is_dense()) {
    st.mx.Charge(static_cast<uint64_t>(cands.size()) * sizeof(uint32_t));
  }
  RegValue& rv = st.slot(dst);
  rv.Clear();
  rv.bat = std::move(base);
  rv.cands = std::make_shared<const CandidateList>(std::move(cands));
  rv.written = true;
}

void PutCandPtr(RunState& st, int dst, BatPtr base,
                std::shared_ptr<const CandidateList> cands) {
  // A shared list (another register's) is a reference, not a fresh
  // allocation of this query: no memory charge.
  RegValue& rv = st.slot(dst);
  rv.Clear();
  rv.bat = std::move(base);
  rv.cands = std::move(cands);
  rv.written = true;
}

void PutMapped(RunState& st, int dst, BatPtr base,
               std::shared_ptr<const CandidateList> cands,
               std::shared_ptr<const MapChain> map) {
  // A mapped view allocates nothing until a consumer collapses it.
  RegValue& rv = st.slot(dst);
  rv.Clear();
  rv.bat = std::move(base);
  rv.cands = std::move(cands);
  rv.map = std::move(map);
  rv.written = true;
}

void PutScalar(RunState& st, int dst, double scalar) {
  RegValue& rv = st.slot(dst);
  rv.Clear();
  rv.scalar = scalar;
  rv.is_scalar = true;
  rv.written = true;
}

base::Result<double> ScalarInput(RunState& st, int reg) {
  if (reg < 0 || reg >= static_cast<int>(st.regs->size())) {
    return base::Status::Internal("register out of range");
  }
  std::lock_guard<std::mutex> lock(st.slot_mu);
  RegValue& rv = st.slot(reg);
  if (!rv.written || !rv.is_scalar) {
    return base::Status::Internal("register r" + std::to_string(reg) +
                                  " does not hold a scalar");
  }
  return rv.scalar;
}

/// True for the aggregate opcodes: the per-head family, topN and the
/// scalar sum/count/fold. ExecAggregate runs every one of them.
bool IsAggregateOp(OpCode op) {
  return PerHeadAggKind(op).has_value() || op == OpCode::kTopN ||
         op == OpCode::kScalarSum || op == OpCode::kScalarCount ||
         op == OpCode::kScalarFold;
}

/// Runs aggregate `i` over its source register, whatever that holds: a
/// BAT (the view over all of its rows), a candidate view or a mapped
/// view. The kernels read the view at its positions, so select→agg plans
/// never call Materialize(). Scalar aggregates evaluate a mapped view's
/// chain inline; the others collapse it first (CandInput). `shard` is the
/// fragment's oid range when one shard runs the instruction, else null.
base::Status ExecAggregate(RunState& st, const Instr& i,
                           const ShardRange* shard = nullptr) {
  const bool scalar = i.op == OpCode::kScalarSum ||
                      i.op == OpCode::kScalarCount ||
                      i.op == OpCode::kScalarFold;
  BatPtr base;
  std::shared_ptr<const CandidateList> cands_ptr;
  std::shared_ptr<const MapChain> map;
  MIRROR_RETURN_IF_ERROR(CandInput(st, i.src0, &base, &cands_ptr,
                                   scalar ? &map : nullptr));
  const CandidateList* cands = cands_ptr.get();
  switch (i.op) {
    case OpCode::kTopN:
      PutBat(st, i.dst,
             TopNByTailCand(*base, cands, static_cast<size_t>(i.n), i.flag0,
                            st.mx, TopKFor(st, i)));
      return base::Status::Ok();
    case OpCode::kScalarSum:
      PutScalar(st, i.dst, ScalarSumMapped(*base, cands, map.get(), st.mx));
      return base::Status::Ok();
    case OpCode::kScalarCount:
      PutScalar(st, i.dst, static_cast<double>(ScalarCount(*base, cands)));
      return base::Status::Ok();
    case OpCode::kScalarFold:
      PutScalar(st, i.dst,
                ScalarFoldMapped(*base, cands, map.get(), i.fold_op, st.mx));
      return base::Status::Ok();
    default:
      break;
  }
  const AggKind kind = *PerHeadAggKind(i.op);
  AggHints hints;
  if (kind == AggKind::kProd || kind == AggKind::kProbOr) {
    // Ranking plans couple the prob aggregates to their topN; head ranges
    // are never derived for them.
    hints.tail_zones = TailZonesFor(st, base.get());
    hints.topk = TopKFor(st, i);
  } else if (shard != nullptr) {
    hints.head_lo = shard->begin;
    hints.head_hi = shard->end;
  } else if (cands == nullptr && st.zone_maps && st.zones != nullptr &&
             base->head().type() == ValueType::kOid) {
    // A base BAT's load-time head bounds; intermediates have none. Bounds
    // widen outward on conversion, so the range holds every head oid.
    const BatZones* z = st.zones->ForBat(base.get());
    if (z != nullptr && z->head.valid) {
      hints.head_lo = static_cast<Oid>(z->head.min);
      hints.head_hi = static_cast<Oid>(z->head.max) + 1;
    }
  }
  PutBat(st, i.dst, AggregatePerHead(*base, cands, kind, st.mx, hints));
  return base::Status::Ok();
}

/// Recycler integration for interval selects over base BATs: an exact
/// predicate hit replays the cached candidate list; a *subsuming* cached
/// predicate seeds the kernel as its pre-filter domain (identical output
/// — every qualifying row lies inside the wider interval); a miss runs
/// the kernel and publishes its list. Returns true when it wrote the
/// destination register; false defers to the normal select path
/// (recycler unarmed, an upstream candidate domain already narrows the
/// scan, or the predicate doesn't normalize).
bool TryRecycledSelect(RunState& st, const Instr& i, const BatPtr& base,
                       const CandidateList* domain) {
  if (st.recycler == nullptr || domain != nullptr ||
      st.load_names == nullptr) {
    return false;
  }
  if (i.src0 < 0 ||
      i.src0 >= static_cast<int>(st.load_names->size())) {
    return false;
  }
  const std::string& name = (*st.load_names)[static_cast<size_t>(i.src0)];
  if (name.empty()) return false;
  SelectPredicate pred;
  if (!SelectPredicate::FromInstr(i, name, &pred)) return false;
  bool subsumed = false;
  std::optional<CandidateList> cached =
      st.recycler->LookupCandidates(st.recycler_gen, pred, &subsumed);
  if (cached.has_value() && !subsumed) {
    // Exact replay: no scan at all. The decoded list is new memory, which
    // PutCand charges like a computed one.
    TrackKernelOp(KernelOp::kSelect, 0, cached->size());
    TrackCandidateOp();
    PutCand(st, i.dst, base, std::move(*cached));
    return true;
  }
  const CandidateList* seed = cached.has_value() ? &*cached : nullptr;
  const auto start = std::chrono::steady_clock::now();
  CandidateList out;
  switch (i.op) {
    case OpCode::kSelectEq:
      out = SelectEqCand(*base, i.imm0, seed, st.mx,
                         TailZonesFor(st, base.get()));
      break;
    case OpCode::kSelectCmp:
      out = SelectCmpCand(*base, i.cmp_op, i.imm0, seed, st.mx,
                          TailZonesFor(st, base.get()));
      break;
    case OpCode::kSelectRange:
      out = SelectRangeCand(*base, i.imm0, i.imm1, i.flag0, i.flag1, seed,
                            st.mx, TailZonesFor(st, base.get()));
      break;
    default:
      return false;
  }
  const uint64_t micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  // An aborted kernel (deadline/budget) may have stopped mid-scan; its
  // partial list must never be published.
  if (!st.mx.Aborted()) {
    st.recycler->InsertCandidates(st.recycler_gen, pred, out, micros);
  }
  PutCand(st, i.dst, base, std::move(out));
  return true;
}

/// Executes one instruction against the register file. The selection
/// family produces candidate views, which joins and aggregates consume
/// directly; everything else is a pipeline breaker that materializes its
/// inputs.
base::Status ExecInstr(RunState& st, const Instr& i) {
  // Instruction boundaries are the engine-level abort checkpoints
  // (morsel drivers check between morsels below the kernel layer); an
  // expired or over-budget query stops scheduling work and unwinds with
  // a clean error.
  if (st.mx.Aborted()) return AbortedStatus(st.mx);
  TraceSpanRecorder trace_span(
      st.trace,
      st.trace == nullptr ? kTraceNoInstr
                          : static_cast<uint32_t>(&i - st.trace_base),
      OpCodeName(i.op), st.trace_shard);
  auto mat1 = [&]() { return MatInput(st, i.src1); };

  if (IsCandidatePipelineOp(i.op)) {
    BatPtr base;
    std::shared_ptr<const CandidateList> cands;
    MIRROR_RETURN_IF_ERROR(CandInput(st, i.src0, &base, &cands));
    const CandidateList* domain = cands.get();
    switch (i.op) {
      case OpCode::kSelectEq:
        if (TryRecycledSelect(st, i, base, domain)) return base::Status::Ok();
        PutCand(st, i.dst, base,
                SelectEqCand(*base, i.imm0, domain, st.mx,
                             TailZonesFor(st, base.get())));
        return base::Status::Ok();
      case OpCode::kSelectNeq:
        PutCand(st, i.dst, base,
                SelectNeqCand(*base, i.imm0, domain, st.mx));
        return base::Status::Ok();
      case OpCode::kSelectCmp:
        if (TryRecycledSelect(st, i, base, domain)) return base::Status::Ok();
        PutCand(st, i.dst, base,
                SelectCmpCand(*base, i.cmp_op, i.imm0, domain, st.mx,
                              TailZonesFor(st, base.get())));
        return base::Status::Ok();
      case OpCode::kSelectRange:
        if (TryRecycledSelect(st, i, base, domain)) return base::Status::Ok();
        PutCand(st, i.dst, base,
                SelectRangeCand(*base, i.imm0, i.imm1, i.flag0, i.flag1,
                                domain, st.mx, TailZonesFor(st, base.get())));
        return base::Status::Ok();
      case OpCode::kSemiJoinHead:
      case OpCode::kAntiJoinHead: {
        // Oid-aligned fast path: when both sides are void-headed columns
        // over the same dense oid range (the flattener's select→semijoin
        // candidate chains), head membership IS position membership, so
        // the semijoin collapses to a sorted position-set intersection —
        // no hash build, no materialization of either side. Only heads
        // matter, so a mapped right side stays uncollapsed.
        BatPtr rbase;
        std::shared_ptr<const CandidateList> rcands;
        std::shared_ptr<const MapChain> rmap;
        MIRROR_RETURN_IF_ERROR(CandInput(st, i.src1, &rbase, &rcands, &rmap));
        if (base->head().is_void() && rbase->head().is_void() &&
            base->head().void_base() == rbase->head().void_base()) {
          const size_t n = base->size();
          const size_t rn = rbase->size();
          const CandidateList all_l = CandidateList::All(n);
          const CandidateList all_r = CandidateList::All(rn);
          const CandidateList& lc = domain != nullptr ? *domain : all_l;
          const CandidateList& rc = rcands != nullptr ? *rcands : all_r;
          // When one side is every row of its BAT and the other's rows all
          // lie inside it, the other side's list IS the result: share it.
          auto within = [](const CandidateList& c, size_t rows) {
            return c.empty() || c.PositionAt(c.size() - 1) < rows;
          };
          std::shared_ptr<const CandidateList> shared;
          if (i.op == OpCode::kSemiJoinHead) {
            if (rcands != nullptr && CoversAllRows(lc, n) && within(rc, n)) {
              shared = rcands;
            } else if (cands != nullptr && CoversAllRows(rc, rn) &&
                       within(lc, rn)) {
              shared = cands;
            }
          }
          CandidateList out;
          if (shared == nullptr) {
            // lc lies inside [0, n), so rows of rc past n drop out of both
            // the intersection and the difference without a clamp.
            out = i.op == OpCode::kSemiJoinHead ? lc.Intersect(rc)
                                                : lc.Difference(rc);
          }
          TrackKernelOp(i.op == OpCode::kSemiJoinHead ? KernelOp::kSemiJoin
                                                      : KernelOp::kAntiJoin,
                        lc.size() + rc.size(),
                        shared != nullptr ? shared->size() : out.size());
          TrackCandidateOp();
          if (shared != nullptr) {
            PutCandPtr(st, i.dst, base, std::move(shared));
          } else {
            PutCand(st, i.dst, base, std::move(out));
          }
          return base::Status::Ok();
        }
        // General case: the right side is a hash build side (pipeline
        // breaker).
        auto r = mat1();
        if (!r.ok()) return r.status();
        CandidateList out =
            i.op == OpCode::kSemiJoinHead
                ? SemiJoinHeadCand(*base, *r.value(), domain, st.mx)
                : AntiJoinHeadCand(*base, *r.value(), domain, st.mx);
        PutCand(st, i.dst, base, std::move(out));
        return base::Status::Ok();
      }
      case OpCode::kSemiJoinTail: {
        auto r = mat1();
        if (!r.ok()) return r.status();
        PutCand(st, i.dst, base,
                SemiJoinTailCand(*base, *r.value(), domain, st.mx));
        return base::Status::Ok();
      }
      case OpCode::kSlice: {
        CandidateList all = CandidateList::All(base->size());
        const CandidateList& dom = domain != nullptr ? *domain : all;
        CandidateList out = dom.Sliced(static_cast<size_t>(i.n),
                                       static_cast<size_t>(i.n2));
        TrackKernelOp(KernelOp::kSlice, dom.size(), out.size());
        TrackCandidateOp();
        PutCand(st, i.dst, base, std::move(out));
        return base::Status::Ok();
      }
      default:
        break;
    }
  }

  // Radix joins consume candidate views on both sides directly (probing
  // the base BATs at the candidate positions), so select→join plans
  // never call Materialize().
  if (i.op == OpCode::kJoin) {
    BatPtr lbase;
    std::shared_ptr<const CandidateList> lcands;
    MIRROR_RETURN_IF_ERROR(CandInput(st, i.src0, &lbase, &lcands));
    BatPtr rbase;
    std::shared_ptr<const CandidateList> rcands;
    MIRROR_RETURN_IF_ERROR(CandInput(st, i.src1, &rbase, &rcands));
    PutBat(st, i.dst,
           JoinCand(*lbase, lcands.get(), *rbase, rcands.get(), st.mx));
    return base::Status::Ok();
  }

  // Mapped views: scalar map arithmetic over a BAT or a candidate view
  // appends one step to the register's map chain and computes nothing.
  // Scalar aggregates evaluate the chain inline; every other consumer
  // collapses it with one gather (MatInput). A step the materializing
  // kernel would reject (non-numeric tail or constant) runs eagerly below.
  if (i.op == OpCode::kMapBinaryScalar || i.op == OpCode::kMapUnary) {
    BatPtr base;
    std::shared_ptr<const CandidateList> cands;
    std::shared_ptr<const MapChain> map;
    MIRROR_RETURN_IF_ERROR(CandInput(st, i.src0, &base, &cands, &map));
    const ValueType in = base->tail().type();
    std::shared_ptr<const MapChain> chain =
        i.op == OpCode::kMapBinaryScalar
            ? MapChain::ThenBinary(map.get(), in, i.bin_op, i.imm0)
            : MapChain::ThenUnary(map.get(), in, i.un_op);
    if (chain != nullptr) {
      // Full coverage keeps the base's head, exactly as MatInput would.
      if (cands != nullptr && CoversAllRows(*cands, base->size())) {
        cands = nullptr;
      }
      PutMapped(st, i.dst, std::move(base), std::move(cands),
                std::move(chain));
      return base::Status::Ok();
    }
  }

  if (IsAggregateOp(i.op)) return ExecAggregate(st, i);

  switch (i.op) {
    case OpCode::kLoadNamed: {
      if (st.catalog == nullptr) {
        return base::Status::Internal("no catalog bound for load: " + i.name);
      }
      auto bat = st.catalog->Get(i.name);
      if (!bat.ok()) return bat.status();
      PutBatPtr(st, i.dst, bat.TakeValue());
      return base::Status::Ok();
    }
    case OpCode::kConstBat:
      MIRROR_CHECK(i.const_bat != nullptr);
      PutBatPtr(st, i.dst, i.const_bat);
      return base::Status::Ok();
    case OpCode::kScalarBin: {
      auto a = ScalarInput(st, i.src0);
      if (!a.ok()) return a.status();
      double rhs = i.imm0.type() == ValueType::kVoid ? 0.0 : i.imm0.AsDouble();
      if (i.src1 >= 0) {
        auto b = ScalarInput(st, i.src1);
        if (!b.ok()) return b.status();
        rhs = b.value();
      }
      PutScalar(st, i.dst, ApplyScalarBin(a.value(), rhs, i.bin_op));
      return base::Status::Ok();
    }
    default:
      break;
  }

  auto l = MatInput(st, i.src0);
  if (!l.ok()) return l.status();
  const Bat& b0 = *l.value();
  switch (i.op) {
    case OpCode::kReverse:
      PutBat(st, i.dst, Reverse(b0));
      break;
    case OpCode::kMirror:
      PutBat(st, i.dst, Mirror(b0));
      break;
    case OpCode::kMark:
      PutBat(st, i.dst, Mark(b0, static_cast<Oid>(i.n)));
      break;
    case OpCode::kSortTail:
      PutBat(st, i.dst, SortByTail(b0, i.flag0));
      break;
    case OpCode::kUniqueTail:
      PutBat(st, i.dst, UniqueTail(b0));
      break;
    case OpCode::kUniqueHead:
      PutBat(st, i.dst, UniqueHead(b0));
      break;
    case OpCode::kConcat: {
      auto r = mat1();
      if (!r.ok()) return r.status();
      PutBat(st, i.dst, Concat(b0, *r.value()));
      break;
    }
    case OpCode::kCountPerTailValue:
      PutBat(st, i.dst, CountPerTailValue(b0));
      break;
    case OpCode::kMapBinary: {
      auto r = mat1();
      if (!r.ok()) return r.status();
      PutBat(st, i.dst, MapBinary(b0, *r.value(), i.bin_op));
      break;
    }
    case OpCode::kMapBinaryScalar:
      PutBat(st, i.dst, MapBinaryScalar(b0, i.imm0, i.bin_op));
      break;
    case OpCode::kMapUnary:
      PutBat(st, i.dst, MapUnary(b0, i.un_op));
      break;
    case OpCode::kFillTail:
      PutBat(st, i.dst, FillTail(b0, i.imm0));
      break;
    case OpCode::kBelief: {
      auto r1 = mat1();
      if (!r1.ok()) return r1.status();
      auto r2 = MatInput(st, i.src2);
      if (!r2.ok()) return r2.status();
      PutBat(st, i.dst,
             BeliefTfIdf(b0, *r1.value(), *r2.value(), i.num_docs,
                         i.avg_doclen, i.belief));
      break;
    }
    // Handled above: candidate producers, joins, aggregates, loads and
    // scalar math.
    case OpCode::kSelectEq:
    case OpCode::kSelectNeq:
    case OpCode::kSelectCmp:
    case OpCode::kSelectRange:
    case OpCode::kSemiJoinHead:
    case OpCode::kAntiJoinHead:
    case OpCode::kSemiJoinTail:
    case OpCode::kSlice:
    case OpCode::kJoin:
    case OpCode::kLoadNamed:
    case OpCode::kConstBat:
    case OpCode::kScalarBin:
    case OpCode::kTopN:
    case OpCode::kSumPerHead:
    case OpCode::kCountPerHead:
    case OpCode::kMaxPerHead:
    case OpCode::kMinPerHead:
    case OpCode::kAvgPerHead:
    case OpCode::kProdPerHead:
    case OpCode::kProbOrPerHead:
    case OpCode::kScalarSum:
    case OpCode::kScalarCount:
    case OpCode::kScalarFold:
      MIRROR_UNREACHABLE();
      break;
  }
  return base::Status::Ok();
}

/// Register dependency DAG over the straight-line SSA program: one node
/// per instruction, one edge producer -> consumer per source register.
struct Dag {
  std::vector<std::vector<int>> dependents;  // producer idx -> consumer idxs
  std::vector<int> indegree;                 // distinct producers per instr
  bool ssa = true;  // every register written at most once
};

Dag BuildDag(const Program& program) {
  const std::vector<Instr>& instrs = program.instrs();
  Dag dag;
  dag.dependents.resize(instrs.size());
  dag.indegree.assign(instrs.size(), 0);
  std::vector<int> producer(static_cast<size_t>(program.num_regs()), -1);
  for (size_t idx = 0; idx < instrs.size(); ++idx) {
    const Instr& i = instrs[idx];
    if (i.dst < 0 || i.dst >= program.num_regs() ||
        producer[static_cast<size_t>(i.dst)] != -1) {
      dag.ssa = false;
      return dag;
    }
    producer[static_cast<size_t>(i.dst)] = static_cast<int>(idx);
  }
  for (size_t idx = 0; idx < instrs.size(); ++idx) {
    const Instr& i = instrs[idx];
    int deps[3] = {-1, -1, -1};
    int num_deps = 0;
    for (int src : {i.src0, i.src1, i.src2}) {
      if (src < 0) continue;
      int p = producer[static_cast<size_t>(src)];
      if (p < 0) continue;  // unwritten register: surfaces at exec time
      bool dup = false;
      for (int d = 0; d < num_deps; ++d) dup = dup || deps[d] == p;
      if (!dup) deps[num_deps++] = p;
    }
    for (int d = 0; d < num_deps; ++d) {
      dag.dependents[static_cast<size_t>(deps[d])].push_back(
          static_cast<int>(idx));
      ++dag.indegree[idx];
    }
  }
  return dag;
}

base::Status RunSequential(RunState& st, const Program& program) {
  for (const Instr& i : program.instrs()) {
    MIRROR_RETURN_IF_ERROR(ExecInstr(st, i));
  }
  return base::Status::Ok();
}

/// Maximum number of instructions sharing one topological depth: the
/// best-case count of instructions the DAG scheduler can run at once.
/// Producers always precede consumers in the straight-line program, so
/// one forward pass suffices.
int DagWidth(const Dag& dag) {
  size_t n = dag.dependents.size();
  std::vector<int> level(n, 0);
  int max_level = 0;
  for (size_t idx = 0; idx < n; ++idx) {
    for (int dep : dag.dependents[idx]) {
      level[static_cast<size_t>(dep)] =
          std::max(level[static_cast<size_t>(dep)], level[idx] + 1);
      max_level = std::max(max_level, level[static_cast<size_t>(dep)]);
    }
  }
  std::vector<int> count(static_cast<size_t>(max_level) + 1, 0);
  int width = 0;
  for (size_t idx = 0; idx < n; ++idx) {
    width = std::max(width, ++count[static_cast<size_t>(level[idx])]);
  }
  return width;
}

/// True when some instruction can split its input into morsels: the
/// select/semijoin/slice family (and the Materialize() of its views at
/// pipeline breakers), radix joins, and aggregates.
bool HasMorselEligibleOp(const Program& program, const ExecOptions& options) {
  if (options.morsel_size == 0) return false;
  for (const Instr& i : program.instrs()) {
    if (IsCandidatePipelineOp(i.op) || i.op == OpCode::kJoin ||
        IsAggregateOp(i.op)) {
      return true;
    }
  }
  return false;
}

/// One DAG execution: tasks (one per instruction) are submitted to the
/// process-wide worker pool as they become ready; each finishing
/// task releases its dependents. The submitting thread blocks until every
/// submitted task has finished (`inflight == 0`).
struct DagRun {
  RunState* st;
  const std::vector<Instr>* instrs;
  const Dag* dag;
  WorkerPool* pool;

  std::mutex mu;
  std::condition_variable done_cv;
  std::vector<int> indegree;
  size_t completed = 0;
  size_t inflight = 0;  // submitted tasks not yet finished
  bool failed = false;
  base::Status error;

  void SubmitNode(int idx) {
    ++inflight;  // caller holds mu (or no worker is running yet)
    pool->Submit([this, idx] { ExecNode(idx); });
  }

  void ExecNode(int idx) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (failed) {
        // Short-circuit: still account for the task so the waiter wakes.
        if (--inflight == 0) done_cv.notify_all();
        return;
      }
    }
    base::Status status = ExecInstr(*st, (*instrs)[static_cast<size_t>(idx)]);
    std::lock_guard<std::mutex> lock(mu);
    if (!status.ok()) {
      failed = true;
      error = status;
    } else {
      ++completed;
      for (int dep : dag->dependents[static_cast<size_t>(idx)]) {
        if (--indegree[static_cast<size_t>(dep)] == 0) SubmitNode(dep);
      }
    }
    if (--inflight == 0) done_cv.notify_all();
  }
};

// ---------------------------------------------------------------------------
// Shard-parallel execution (the scatter/gather engine).
//
// One MIL program runs over the catalog's oid-range sharding: every
// register is either GLOBAL (one value, in the borrowed session register
// file) or SHARDED (one fragment per shard, in shard-local register
// files whose loads resolve against the shard-local catalogs).
// Shard-local instructions execute as one pool task per shard; fan-in
// instructions gather a sharded register into its global value first —
// per-shard candidate views materialize in parallel, fragments append
// order-preservingly (ConcatAll), and
// a register fed by a bare load gathers for free off the base catalog.
//
// Exactness rests on one invariant: a sharded register's fragment i
// holds exactly the global rows whose positions fall in shard i's slice,
// in global row order, with head oids confined to shard i's oid range.
// Loads establish it (void heads slice into shifted void heads); the
// shard-local instruction set below preserves it; everything else is
// executed globally. Concatenating fragments in shard order therefore
// *is* the global value, and per-head aggregates never see a group that
// straddles shards.

/// The shape of a register during sharded execution.
enum class RegShape : uint8_t { kGlobal, kSharded };

struct ShardRunState {
  const ShardedCatalog* layout = nullptr;
  size_t num_shards = 0;
  RunState* global = nullptr;
  std::vector<std::unique_ptr<RunState>> shard;
  std::vector<RegShape> shape;
  /// Oid-range boundaries of each sharded register (aliases the layout's
  /// range vectors; compared by value across different names).
  std::vector<const std::vector<ShardRange>*> domain;
  /// Non-empty for sharded registers fed by a bare kLoadNamed: gathering
  /// re-reads the full BAT from the base catalog instead of copying.
  std::vector<std::string> load_name;

  void NoteWrite(int dst, RegShape s, const std::vector<ShardRange>* dom) {
    shape[static_cast<size_t>(dst)] = s;
    domain[static_cast<size_t>(dst)] = dom;
    load_name[static_cast<size_t>(dst)].clear();
  }
};

bool SameShardDomain(const std::vector<ShardRange>* a,
                     const std::vector<ShardRange>* b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  return *a == *b;
}

/// Gathers a sharded register into its global value (fan-in): candidate
/// fragments materialize shard-parallel, fragment BATs append in shard
/// order. The register becomes GLOBAL afterwards — later shard-local
/// consumers see it broadcast like any other global value. (Leaving it
/// "sharded with a cached global copy" would be wrong, not just slower:
/// BroadcastGlobalSources skips sharded registers, so a per-shard
/// consumer that needed the WHOLE value — a semijoin filter side from a
/// foreign domain, say — would silently read only its own fragment.)
base::Status GatherReg(ShardRunState& sst, int reg) {
  size_t r = static_cast<size_t>(reg);
  if (sst.shape[r] == RegShape::kGlobal) return base::Status::Ok();
  TrackShardFanin();
  RunState& g = *sst.global;
  if (!sst.load_name[r].empty()) {
    auto bat = g.catalog->Get(sst.load_name[r]);
    if (!bat.ok()) return bat.status();
    PutBatPtr(g, reg, bat.TakeValue());
    sst.NoteWrite(reg, RegShape::kGlobal, nullptr);
    return base::Status::Ok();
  }
  size_t S = sst.num_shards;
  std::vector<BatPtr> frags(S);
  std::vector<base::Status> errs(S, base::Status::Ok());
  ParallelFor(g.mx.pool, S, [&](size_t s) {
    auto b = MatInput(*sst.shard[s], reg);
    if (b.ok()) {
      frags[s] = b.value();
    } else {
      errs[s] = b.status();
    }
  });
  for (const base::Status& e : errs) {
    if (!e.ok()) return e;
  }
  std::vector<const Bat*> parts;
  parts.reserve(S);
  for (const BatPtr& f : frags) parts.push_back(f.get());
  PutBat(g, reg, ConcatAll(parts));
  sst.NoteWrite(reg, RegShape::kGlobal, nullptr);
  return base::Status::Ok();
}

/// Copies global source registers into every shard-local register file
/// (shared_ptr aliases, no data copies) so per-shard ExecInstr sees them.
void BroadcastGlobalSources(ShardRunState& sst, const Instr& i) {
  for (int src : {i.src0, i.src1, i.src2}) {
    if (src < 0) continue;
    // Sharded sources keep their fragments; only global registers are
    // replicated into the shard files.
    if (sst.shape[static_cast<size_t>(src)] != RegShape::kGlobal) continue;
    const RegValue& gv = sst.global->slot(src);
    for (std::unique_ptr<RunState>& st : sst.shard) st->slot(src) = gv;
  }
}

/// The shared fan-out scaffolding: broadcasts global sources, runs
/// `per_shard(state, s)` as one pool task per shard, propagates the
/// first error, and claims `out_domain` for the sharded dst. Every
/// shard-local execution path goes through here so accounting and error
/// handling cannot diverge.
base::Status ExecShardFanout(
    ShardRunState& sst, const Instr& i,
    const std::vector<ShardRange>* out_domain,
    const std::function<base::Status(RunState&, size_t)>& per_shard) {
  TrackShardFanout();
  BroadcastGlobalSources(sst, i);
  size_t S = sst.num_shards;
  std::vector<base::Status> errs(S, base::Status::Ok());
  // Span attribution for sharded work happens here, not inside the
  // shard-local ExecInstr (those RunStates keep trace null): one span per
  // (instruction, shard), stamped by whichever pool thread ran the shard.
  QueryTrace* trace = sst.global->trace;
  const uint32_t instr_idx =
      trace == nullptr ? kTraceNoInstr
                       : static_cast<uint32_t>(&i - sst.global->trace_base);
  ParallelFor(sst.global->mx.pool, S, [&](size_t s) {
    TraceSpanRecorder span(trace, instr_idx, OpCodeName(i.op),
                           static_cast<int32_t>(s));
    errs[s] = per_shard(*sst.shard[s], s);
  });
  for (const base::Status& e : errs) {
    if (!e.ok()) return e;
  }
  sst.NoteWrite(i.dst, RegShape::kSharded, out_domain);
  return base::Status::Ok();
}

/// Runs one instruction verbatim as a per-shard fan-out.
base::Status ExecShardLocal(ShardRunState& sst, const Instr& i,
                            const std::vector<ShardRange>* out_domain) {
  return ExecShardFanout(sst, i, out_domain,
                         [&](RunState& st, size_t) { return ExecInstr(st, i); });
}

/// Rows a shard's fragment of `reg` covers (for skipping empty shards in
/// scalar-fold merges).
size_t ShardInputRows(ShardRunState& sst, size_t s, int reg) {
  RegValue& rv = sst.shard[s]->slot(reg);
  if (!rv.written || rv.bat == nullptr) return 0;
  return rv.is_candidate() ? rv.cands->size() : rv.bat->size();
}

base::Status RunSharded(ShardRunState& sst, const Program& program) {
  RunState& g = *sst.global;
  for (const Instr& i : program.instrs()) {
    // ---- Scatter: loads of sharded names establish sharded registers.
    if (i.op == OpCode::kLoadNamed) {
      const std::vector<ShardRange>* ranges = sst.layout->RangesFor(i.name);
      if (ranges != nullptr) {
        MIRROR_RETURN_IF_ERROR(ExecShardLocal(sst, i, ranges));
        sst.load_name[static_cast<size_t>(i.dst)] = i.name;
        continue;
      }
      MIRROR_RETURN_IF_ERROR(ExecInstr(g, i));
      sst.NoteWrite(i.dst, RegShape::kGlobal, nullptr);
      continue;
    }

    auto shape_of = [&](int reg) {
      return reg < 0 ? RegShape::kGlobal
                     : sst.shape[static_cast<size_t>(reg)];
    };
    auto domain_of = [&](int reg) {
      return reg < 0 ? nullptr : sst.domain[static_cast<size_t>(reg)];
    };

    // ---- Whole-shard top-k pruning: a threshold-coupled prob aggregate
    // whose fragment's tail upper bound (load-time zone map) is strictly
    // below the shared bound cannot contribute a top-k row — the shard's
    // aggregate (and its TopN downstream) collapses to an empty BAT
    // without reading a row. The bound only rises after k scores exist,
    // so not every shard can be pruned.
    if ((i.op == OpCode::kProdPerHead || i.op == OpCode::kProbOrPerHead) &&
        shape_of(i.src0) == RegShape::kSharded) {
      TopKThreshold* topk = TopKFor(g, i);
      if (topk != nullptr) {
        MIRROR_RETURN_IF_ERROR(ExecShardFanout(
            sst, i, domain_of(i.src0), [&](RunState& st, size_t) {
              BatPtr base;
              std::shared_ptr<const CandidateList> cands;
              MIRROR_RETURN_IF_ERROR(CandInput(st, i.src0, &base, &cands));
              const ZoneMap* z = TailZonesFor(st, base.get());
              if (base->head().is_void() && z != nullptr &&
                  z->max < topk->bound()) {
                TrackTopkShardPruned();
                PutBat(st, i.dst,
                       Bat(Column::MakeOids({}), Column::MakeDbls({})));
                return base::Status::Ok();
              }
              return ExecInstr(st, i);
            }));
        continue;
      }
    }

    // ---- Range-hinted per-head aggregation: the fragment's oid range
    // is static shard metadata, so each shard aggregates into a dense
    // array indexed by (oid - lo) — no hash table, no partial-map
    // merge, ascending output with no sort. This is the shard layout's
    // structural win over the unsharded engine, which cannot bound the
    // heads without a scan. (ExecAggregate takes no range for the prob
    // aggregates.)
    if (PerHeadAggKind(i.op).has_value() &&
        shape_of(i.src0) == RegShape::kSharded &&
        domain_of(i.src0) != nullptr) {
      const std::vector<ShardRange>* dom = domain_of(i.src0);
      MIRROR_RETURN_IF_ERROR(ExecShardFanout(
          sst, i, dom, [&](RunState& st, size_t s) {
            return ExecAggregate(st, i, &(*dom)[s]);
          }));
      continue;
    }

    // ---- Shard-local unary family.
    if (IsShardLocalUnaryOp(i.op) && shape_of(i.src0) == RegShape::kSharded) {
      MIRROR_RETURN_IF_ERROR(ExecShardLocal(sst, i, domain_of(i.src0)));
      continue;
    }

    // ---- Semijoins: shard-local when the probe side is sharded and the
    // filter side is replicated or co-sharded. Head membership cannot
    // cross shards (probe heads live in range i; a co-sharded filter's
    // heads in range j != i can never match), and tail membership
    // against a replicated side filters each fragment independently.
    if (i.op == OpCode::kSemiJoinHead || i.op == OpCode::kAntiJoinHead ||
        i.op == OpCode::kSemiJoinTail) {
      if (shape_of(i.src0) == RegShape::kSharded) {
        bool right_sharded = shape_of(i.src1) == RegShape::kSharded;
        bool co_sharded =
            right_sharded && i.op != OpCode::kSemiJoinTail &&
            SameShardDomain(domain_of(i.src0), domain_of(i.src1));
        if (right_sharded && !co_sharded) {
          MIRROR_RETURN_IF_ERROR(GatherReg(sst, i.src1));
        }
        MIRROR_RETURN_IF_ERROR(ExecShardLocal(sst, i, domain_of(i.src0)));
        continue;
      }
    }

    // ---- Joins: a sharded probe side fans out over a single shared
    // build table. A sharded build side is broadcast (gathered) first —
    // the cross-shard join case; a build fed by a bare load broadcasts
    // for free off the base catalog.
    if (i.op == OpCode::kJoin && shape_of(i.src0) == RegShape::kSharded) {
      MIRROR_RETURN_IF_ERROR(GatherReg(sst, i.src1));
      BatPtr rbase;
      std::shared_ptr<const CandidateList> rcands;
      MIRROR_RETURN_IF_ERROR(CandInput(g, i.src1, &rbase, &rcands));
      std::shared_ptr<const JoinBuild> build =
          PrepareJoinBuild(rbase, rcands, g.mx);
      // Build the shared table up front (keyed off shard 0's probe
      // type), so the fanned-out probes find it built instead of each
      // racing to build a copy.
      {
        BatPtr probe0;
        std::shared_ptr<const CandidateList> cands0;
        MIRROR_RETURN_IF_ERROR(
            CandInput(*sst.shard[0], i.src0, &probe0, &cands0));
        WarmJoinBuild(*build, probe0->tail());
      }
      MIRROR_RETURN_IF_ERROR(ExecShardFanout(
          sst, i, domain_of(i.src0), [&](RunState& st, size_t) {
            BatPtr lbase;
            std::shared_ptr<const CandidateList> lcands;
            MIRROR_RETURN_IF_ERROR(CandInput(st, i.src0, &lbase, &lcands));
            PutBat(st, i.dst,
                   ProbePreparedJoin(*lbase, lcands.get(), *build, st.mx));
            return base::Status::Ok();
          }));
      continue;
    }

    // ---- TopN merge: per-shard bounded tops, then one reduce over the
    // gathered <= shards*n survivors. Ties stay exact: fragments
    // concatenate in shard (= global row) order and TopNByTail breaks
    // ties toward the earlier row.
    if (i.op == OpCode::kTopN && shape_of(i.src0) == RegShape::kSharded) {
      MIRROR_RETURN_IF_ERROR(ExecShardLocal(sst, i, domain_of(i.src0)));
      MIRROR_RETURN_IF_ERROR(GatherReg(sst, i.dst));
      auto merged = MatInput(g, i.dst);
      if (!merged.ok()) return merged.status();
      PutBat(g, i.dst,
             TopNByTail(*merged.value(), static_cast<size_t>(i.n), i.flag0));
      sst.NoteWrite(i.dst, RegShape::kGlobal, nullptr);
      continue;
    }

    // ---- Scalar folds: per-shard partials merged with the fold
    // operator — sum/count add, max/min/prod/por apply the combinator,
    // empty shards contribute nothing (their partial is the fold's
    // empty-input value, not an identity).
    if ((i.op == OpCode::kScalarSum || i.op == OpCode::kScalarCount ||
         i.op == OpCode::kScalarFold) &&
        shape_of(i.src0) == RegShape::kSharded) {
      size_t S = sst.num_shards;
      // Per-shard input sizes must be read BEFORE execution: a non-SSA
      // program may fold a register onto itself (dst == src0), and the
      // per-shard write would make every input look empty.
      std::vector<size_t> input_rows(S);
      for (size_t s = 0; s < S; ++s) {
        input_rows[s] = ShardInputRows(sst, s, i.src0);
      }
      MIRROR_RETURN_IF_ERROR(ExecShardLocal(sst, i, nullptr));
      double merged = 0;
      if (i.op == OpCode::kScalarFold) {
        bool seeded = false;
        for (size_t s = 0; s < S; ++s) {
          if (input_rows[s] == 0) continue;
          double part = sst.shard[s]->slot(i.dst).scalar;
          merged = seeded ? ApplyFold(merged, part, i.fold_op) : part;
          seeded = true;
        }
        if (!seeded) merged = FoldEmptyValue(i.fold_op);
      } else {
        for (size_t s = 0; s < S; ++s) {
          merged += sst.shard[s]->slot(i.dst).scalar;
        }
      }
      PutScalar(g, i.dst, merged);
      sst.NoteWrite(i.dst, RegShape::kGlobal, nullptr);
      continue;
    }

    // ---- Fan-in: everything else executes globally; sharded sources
    // gather first.
    for (int src : {i.src0, i.src1, i.src2}) {
      if (src >= 0 && shape_of(src) == RegShape::kSharded) {
        MIRROR_RETURN_IF_ERROR(GatherReg(sst, src));
      }
    }
    MIRROR_RETURN_IF_ERROR(ExecInstr(g, i));
    sst.NoteWrite(i.dst, RegShape::kGlobal, nullptr);
  }
  return base::Status::Ok();
}

base::Status RunParallel(RunState& st, const Program& program, const Dag& dag,
                         WorkerPool* pool) {
  const std::vector<Instr>& instrs = program.instrs();
  DagRun run;
  run.st = &st;
  run.instrs = &instrs;
  run.dag = &dag;
  run.pool = pool;
  run.indegree = dag.indegree;
  {
    std::lock_guard<std::mutex> lock(run.mu);
    for (size_t idx = 0; idx < instrs.size(); ++idx) {
      if (run.indegree[idx] == 0) run.SubmitNode(static_cast<int>(idx));
    }
  }
  std::unique_lock<std::mutex> lock(run.mu);
  run.done_cv.wait(lock, [&] { return run.inflight == 0; });
  if (run.failed) return run.error;
  if (run.completed != instrs.size()) {
    return base::Status::Internal(
        "execution DAG stalled (cyclic register dependencies?)");
  }
  return base::Status::Ok();
}

}  // namespace

base::Result<RunResult> ExecutionEngine::Run(const Program& program,
                                             ExecutionContext* ctx) const {
  ExecutionContext local;
  if (ctx == nullptr) ctx = &local;
  std::vector<RegValue>& regs = ctx->regs_;
  regs.assign(static_cast<size_t>(program.num_regs()), RegValue());
  // Release the query's intermediates when Run leaves — on error paths
  // too — rather than pinning them in the session until the next run
  // (the vector's capacity stays for reuse).
  struct RegsReleaser {
    std::vector<RegValue>* regs;
    ~RegsReleaser() { regs->clear(); }
  } releaser{&regs};

  // Ranking patterns share one rising top-k threshold per plan run
  // (fresh each Run: the bound is only monotone within one execution).
  TopKPlan topk_plan;
  if (options_.topk_prune) topk_plan = BuildTopKPlan(program);

  RunState st{catalog_,
              options_.zone_maps,
              options_.topk_prune,
              &topk_plan,
              MorselExec{},
              &regs};
  st.mx.radix_partitions = options_.radix_partitions;
  if (options_.zone_maps && catalog_ != nullptr) {
    // Pin this generation's statistics for the whole run: a concurrent
    // writer may drop and rebuild the catalog's caches mid-query.
    st.zones = catalog_->PinZones();
  }
  // Tracing: the sink is cleared (fresh epoch) at entry, the instruction
  // base enables index recovery by pointer arithmetic, and the sink rides
  // MorselExec into the kernels so morsel drivers can record their tasks.
  QueryTrace* trace_sink =
      (options_.trace && options_.trace_sink != nullptr) ? options_.trace_sink
                                                         : nullptr;
  if (trace_sink != nullptr) {
    trace_sink->Clear();
    st.trace = trace_sink;
    st.trace_base = program.instrs().data();
  }
  // The deadline is stamped once at entry and the memory counter lives
  // for the whole run; `arm` re-applies both wherever the morsel
  // resources are re-assigned below (always BEFORE shard RunStates copy
  // st.mx, so every shard charges the same counter).
  const auto deadline_at =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.query_deadline_ms);
  std::atomic<uint64_t> mem_used{0};
  auto arm_deadline = [&](MorselExec* mx) {
    if (options_.query_deadline_ms > 0) {
      mx->has_deadline = true;
      mx->deadline = deadline_at;
    }
    mx->mem_used = &mem_used;
    mx->mem_budget = options_.memory_budget_bytes;
    mx->trace = trace_sink;
  };
  arm_deadline(&st.mx);
  // Publish this query's charged high-water mark on every exit path.
  struct PeakTracker {
    std::atomic<uint64_t>* used;
    ~PeakTracker() { TrackPeakQueryBytes(used->load()); }
  } peak_tracker{&mem_used};

  // Thread resolution: 0 = auto, one worker per hardware thread (the
  // unsharded branch may clamp back to 1 below). Every query, with or
  // without a session, schedules on the one process-wide pool, grown to
  // the largest count any query asks for.
  int threads = options_.num_threads;
  if (threads <= 0) threads = AutoThreads();
  WorkerPool& pool = SharedWorkerPool();

  // Outlives the branch below: st.load_names points into it.
  std::vector<std::string> reg_load_names;

  // Shard-parallel path: the program fans out over the catalog's
  // oid-range sharding (instruction-ordered scatter/gather; shard and
  // morsel fan-out supply the parallelism instead of the DAG scheduler).
  std::shared_ptr<const ShardedCatalog> shard_pin =
      (options_.num_shards > 1 && catalog_ != nullptr)
          ? catalog_->SharedShards(options_.num_shards)
          : nullptr;
  const ShardedCatalog* shard_layout = shard_pin.get();
  if (shard_layout != nullptr) {
    if (threads > 1) {
      pool.EnsureWorkers(threads);
      st.mx = MorselExec{&pool, options_.morsel_size,
                         options_.radix_partitions};
      arm_deadline(&st.mx);
    }
    size_t num_regs = static_cast<size_t>(program.num_regs());
    size_t S = shard_layout->num_shards();
    std::vector<std::vector<RegValue>> shard_regs(
        S, std::vector<RegValue>(num_regs));
    ShardRunState sst;
    sst.layout = shard_layout;
    sst.num_shards = S;
    sst.global = &st;
    sst.shard.reserve(S);
    for (size_t s = 0; s < S; ++s) {
      sst.shard.emplace_back(new RunState{
          &shard_layout->shard(s), options_.zone_maps, options_.topk_prune,
          &topk_plan, st.mx, &shard_regs[s]});
      // Shard states record no instruction spans themselves (trace stays
      // null; ExecShardFanout attributes per shard), but their morsel
      // drivers tag morsel spans with the owning shard.
      sst.shard.back()->mx.trace_shard = static_cast<int32_t>(s);
      if (options_.zone_maps) {
        // Shard-local catalogs are immutable once built, but their zone
        // caches follow the same pin-per-run rule as the base catalog's.
        sst.shard.back()->zones = shard_layout->shard(s).PinZones();
      }
    }
    sst.shape.assign(num_regs, RegShape::kGlobal);
    sst.domain.assign(num_regs, nullptr);
    sst.load_name.assign(num_regs, std::string());
    MIRROR_RETURN_IF_ERROR(RunSharded(sst, program));
    if (program.result_reg() >= 0 &&
        program.result_reg() < static_cast<int>(num_regs)) {
      // Result delivery is a fan-in boundary.
      MIRROR_RETURN_IF_ERROR(GatherReg(sst, program.result_reg()));
    }
  } else {
    // Arm the recycler (unsharded only): map each register to the name
    // of its sole kLoadNamed writer, so selects over base BATs can key
    // predicate cache entries. Multi-writer registers (non-SSA programs)
    // stay unmapped and bypass the cache.
    if (options_.recycle && options_.recycler != nullptr) {
      const size_t num_regs = static_cast<size_t>(program.num_regs());
      reg_load_names.assign(num_regs, std::string());
      std::vector<int> writers(num_regs, 0);
      for (const Instr& ins : program.instrs()) {
        if (ins.dst >= 0 && ins.dst < static_cast<int>(num_regs)) {
          ++writers[static_cast<size_t>(ins.dst)];
        }
      }
      for (const Instr& ins : program.instrs()) {
        if (ins.op == OpCode::kLoadNamed && ins.dst >= 0 &&
            ins.dst < static_cast<int>(num_regs) &&
            writers[static_cast<size_t>(ins.dst)] == 1) {
          reg_load_names[static_cast<size_t>(ins.dst)] = ins.name;
        }
      }
      st.recycler = options_.recycler;
      st.recycler_gen = options_.recycler_generation;
      st.load_names = &reg_load_names;
    }
    // Auto thread counts back off to 1 when the plan has neither DAG
    // parallelism (width < 2) nor a morsel-eligible operator — on such
    // plans the scheduler and pool are pure overhead (the 1-core
    // regression of BENCH_retrieval.json).
    Dag dag;
    bool scheduled = threads > 1 && program.instrs().size() >= 2;
    if (scheduled) {
      dag = BuildDag(program);
      // Multiple writers of one register: not a data-flow program; run in
      // program order, which is always correct.
      scheduled = dag.ssa;
    }
    if (options_.num_threads <= 0 && threads > 1 &&
        !(scheduled && DagWidth(dag) >= 2) &&
        !HasMorselEligibleOp(program, options_)) {
      threads = 1;
      scheduled = false;
    }
    if (threads > 1) {
      pool.EnsureWorkers(threads);
      if (options_.morsel_size > 0) {
        st.mx = MorselExec{&pool, options_.morsel_size,
                           options_.radix_partitions};
        arm_deadline(&st.mx);
      }
    }
    if (scheduled) {
      MIRROR_RETURN_IF_ERROR(RunParallel(st, program, dag, &pool));
    } else {
      MIRROR_RETURN_IF_ERROR(RunSequential(st, program));
    }
  }

  // Kernels whose morsel drivers observed an expired deadline or a blown
  // memory budget abandoned work (their output is partial); the run must
  // not deliver it.
  if (st.mx.Aborted()) return AbortedStatus(st.mx);
  if (program.result_reg() < 0) {
    return base::Status::Internal("program has no result register");
  }
  if (program.result_reg() >= static_cast<int>(regs.size())) {
    return base::Status::Internal("result register out of range");
  }
  RegValue& result = st.slot(program.result_reg());
  if (!result.written) {
    return base::Status::Internal("result register was never written");
  }
  RunResult out;
  if (result.is_scalar) {
    out.scalar = result.scalar;
    out.is_scalar = true;
  } else {
    // Result delivery is a pipeline breaker: collapse any candidate view.
    auto bat = MatInput(st, program.result_reg());
    if (!bat.ok()) return bat.status();
    // The delivery gather itself can blow the budget (or deadline).
    if (st.mx.Aborted()) return AbortedStatus(st.mx);
    out.bat = bat.value();
  }
  return out;
}

}  // namespace mirror::monet::mil
