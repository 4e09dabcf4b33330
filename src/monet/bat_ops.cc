#include "monet/bat_ops.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "monet/cache_info.h"
#include "monet/profiler.h"
#include "monet/trace.h"

namespace mirror::monet {

namespace {

// --------------------------------------------------------------------------
// Key canonicalization for hash-based operators.
//
// Join/semijoin keys are canonicalized per the type pair:
//  - oid/oid and int/int      -> int64 keys (exact)
//  - any numeric pair w/ dbl  -> double keys
//  - str/str, shared heap     -> int64 keys over heap offsets (exact)
//  - str/str, distinct heaps  -> std::string keys
enum class KeyMode { kI64, kF64, kStrOffset, kString };

ValueType Norm(ValueType t) {
  return t == ValueType::kVoid ? ValueType::kOid : t;
}

KeyMode PickKeyMode(const Column& a, const Column& b) {
  ValueType ta = Norm(a.type());
  ValueType tb = Norm(b.type());
  if (ta == ValueType::kStr || tb == ValueType::kStr) {
    MIRROR_CHECK(ta == ValueType::kStr && tb == ValueType::kStr)
        << "str keys must pair with str keys";
    return (a.heap() == b.heap()) ? KeyMode::kStrOffset : KeyMode::kString;
  }
  MIRROR_CHECK(a.TypeCompatible(tb))
      << "incompatible join key types: " << ValueTypeName(ta) << " vs "
      << ValueTypeName(tb);
  if (ta == ValueType::kDbl || tb == ValueType::kDbl) return KeyMode::kF64;
  return KeyMode::kI64;
}

int64_t I64KeyAt(const Column& c, size_t i) {
  switch (c.type()) {
    case ValueType::kVoid:
    case ValueType::kOid:
      return static_cast<int64_t>(c.OidAt(i));
    case ValueType::kInt:
      return c.IntAt(i);
    case ValueType::kStr:
      return static_cast<int64_t>(c.StrOffsetAt(i));
    default:
      MIRROR_UNREACHABLE();
      return 0;
  }
}

double F64KeyAt(const Column& c, size_t i) {
  switch (c.type()) {
    case ValueType::kInt:
      return static_cast<double>(c.IntAt(i));
    case ValueType::kDbl:
      return c.DblAt(i);
    case ValueType::kVoid:
    case ValueType::kOid:
      return static_cast<double>(c.OidAt(i));
    default:
      MIRROR_UNREACHABLE();
      return 0;
  }
}

// Hash multimap from canonical key to row positions of the indexed column.
template <typename K>
using PosMap = std::unordered_map<K, std::vector<uint32_t>>;

template <typename K, typename KeyFn>
PosMap<K> BuildIndex(size_t n, KeyFn key_at) {
  PosMap<K> index;
  index.reserve(n * 2);
  for (size_t i = 0; i < n; ++i) {
    index[key_at(i)].push_back(static_cast<uint32_t>(i));
  }
  return index;
}

// Generic hash join over canonicalized keys; fills aligned position pairs.
template <typename K, typename LKeyFn, typename RKeyFn>
void HashJoinPositions(size_t ln, LKeyFn lkey, size_t rn, RKeyFn rkey,
                       std::vector<size_t>* lpos, std::vector<size_t>* rpos) {
  PosMap<K> index = BuildIndex<K>(rn, rkey);
  for (size_t i = 0; i < ln; ++i) {
    auto it = index.find(lkey(i));
    if (it == index.end()) continue;
    for (uint32_t r : it->second) {
      lpos->push_back(i);
      rpos->push_back(r);
    }
  }
}

// A kernel's domain or one morsel's slice of it: domain indexes [lo, hi)
// of `cands`, or rows [lo, hi) when `cands` is null. Morsels read their
// slice of the one candidate list in place; cutting a domain copies
// nothing.
struct DomainSpan {
  const CandidateList* cands = nullptr;
  size_t lo = 0;
  size_t hi = 0;

  size_t size() const { return hi - lo; }
};

size_t DomainSize(size_t n, const CandidateList* cands) {
  return cands == nullptr ? n : cands->size();
}

// The whole domain over an n-row column: all rows when `cands` is null,
// the candidate positions otherwise.
DomainSpan WholeDomain(size_t n, const CandidateList* cands) {
  return {cands, 0, DomainSize(n, cands)};
}

// Calls fn(row) for every row position of `d`, in ascending order.
template <typename Fn>
void ForEachInDomain(const DomainSpan& d, Fn fn) {
  if (d.cands == nullptr || d.cands->is_dense()) {
    const size_t first = d.cands == nullptr ? 0 : d.cands->first();
    for (size_t i = first + d.lo; i < first + d.hi; ++i) fn(i);
    return;
  }
  const uint32_t* pos = d.cands->sparse_positions().data();
  for (size_t j = d.lo; j < d.hi; ++j) fn(size_t{pos[j]});
}

// --------------------------------------------------------------------------
// Traced morsel dispatch: ParallelFor / ParallelForChunks veneers that
// record one kMorsel span per task when the query is traced (mx.trace
// set). `label` must point at static storage — spans keep the pointer.

template <typename Fn>
void MorselFor(const MorselExec& mx, const char* label, WorkerPool* pool,
               size_t tasks, Fn fn) {
  if (mx.trace == nullptr) {
    ParallelFor(pool, tasks, fn);
    return;
  }
  ParallelFor(pool, tasks, [&](size_t j) {
    TraceSpanRecorder span(mx.trace, kTraceNoInstr, label, mx.trace_shard,
                           TraceSpanKind::kMorsel);
    fn(j);
  });
}

template <typename Fn>
void MorselForChunks(const MorselExec& mx, const char* label,
                     WorkerPool* pool, size_t total, size_t chunks, Fn fn) {
  if (mx.trace == nullptr) {
    ParallelForChunks(pool, total, chunks, fn);
    return;
  }
  ParallelForChunks(pool, total, chunks,
                    [&](size_t j, size_t lo, size_t hi) {
                      TraceSpanRecorder span(mx.trace, kTraceNoInstr, label,
                                             mx.trace_shard,
                                             TraceSpanKind::kMorsel);
                      fn(j, lo, hi);
                    });
}

// --------------------------------------------------------------------------
// Morsel splitting. A kernel's domain (all n rows, or the candidate list)
// is cut into contiguous spans in candidate order; because every span
// covers a later slice than its predecessor, per-morsel results are
// disjoint and ordered.

// Morsel j of a domain of `m` rows split `morsels` ways (trailing morsels
// may be short or empty).
DomainSpan MorselSpan(const CandidateList* cands, size_t m, size_t morsels,
                      size_t j) {
  const size_t chunk = (m + morsels - 1) / morsels;
  const size_t lo = std::min(m, j * chunk);
  return {cands, lo, std::min(m, lo + chunk)};
}

// Runs a position core over the domain into one buffer sized to it.
// `core(span, out)` writes the ascending row positions of `span` it keeps
// to `out` and returns their count, at most span.size(). Each morsel
// writes at its own domain offset, and the regions then slide down in
// morsel order, so the buffer is the result: one allocation per call,
// whose pages past what the cores wrote are never touched
// (PositionVector).
template <typename Core>
CandidateList MorselizedPositions(size_t n, const CandidateList* cands,
                                  const MorselExec& mx, Core core) {
  const size_t m = DomainSize(n, cands);
  PositionVector out;
  out.resize(m);
  const size_t morsels = mx.MorselsFor(m);
  if (morsels <= 1) {
    out.resize(core(WholeDomain(n, cands), out.data()));
    return CandidateList::FromPositions(std::move(out));
  }
  std::vector<size_t> kept(morsels, 0);
  MorselFor(mx, "scan.morsel", mx.pool, morsels, [&](size_t j) {
    // Morsel-boundary abort check: an expired or over-budget query
    // abandons its remaining morsels (the engine discards the partial
    // kernel output and errors at the next instruction boundary).
    if (mx.Aborted()) return;
    const DomainSpan span = MorselSpan(cands, m, morsels, j);
    kept[j] = core(span, out.data() + span.lo);
  });
  TrackMorselTasks(morsels);
  size_t total = 0;
  for (size_t j = 0; j < morsels; ++j) {
    const size_t lo = MorselSpan(cands, m, morsels, j).lo;
    if (kept[j] > 0 && lo != total) {
      std::memmove(out.data() + total, out.data() + lo,
                   kept[j] * sizeof(uint32_t));
    }
    total += kept[j];
  }
  out.resize(total);
  return CandidateList::FromPositions(std::move(out));
}

// The branch-free selection loop (MonetDB/X100's selection primitives):
// every row of `d` is written to out[k], and k moves past it only when
// `keep` accepts it, so no branch depends on the data.
template <typename Keep>
size_t SelectInto(const DomainSpan& d, Keep keep, uint32_t* out) {
  size_t k = 0;
  ForEachInDomain(d, [&](size_t i) {
    out[k] = static_cast<uint32_t>(i);
    k += static_cast<size_t>(keep(i));
  });
  return k;
}

Bat GatherBat(const Bat& b, std::span<const uint32_t> positions) {
  return Bat(b.head().Gather(positions), b.tail().Gather(positions));
}

Bat GatherBat(const Bat& b, std::span<const size_t> positions) {
  return Bat(b.head().Gather(positions), b.tail().Gather(positions));
}

bool IsNumericOrOid(ValueType t) {
  return t == ValueType::kVoid || t == ValueType::kOid ||
         t == ValueType::kInt || t == ValueType::kDbl;
}

}  // namespace

// ---------------------------------------------------------------------------
// Structural operators.

Bat Reverse(const Bat& b) {
  TrackKernelOp(KernelOp::kReverse, b.size(), b.size());
  return Bat(b.tail().Materialized(), b.head().Materialized());
}

Bat Mirror(const Bat& b) {
  TrackKernelOp(KernelOp::kMirror, b.size(), b.size());
  Column h = b.head().Materialized();
  return Bat(h, h);
}

Bat Mark(const Bat& b, Oid base) {
  TrackKernelOp(KernelOp::kMark, b.size(), b.size());
  return Bat(b.head(), Column::MakeVoid(base, b.size()));
}

Bat Slice(const Bat& b, size_t start, size_t count) {
  start = std::min(start, b.size());
  count = std::min(count, b.size() - start);
  TrackKernelOp(KernelOp::kSlice, b.size(), count);
  return b.View(start, count);
}

namespace {

// n-way column append: the single definition of the append type rules
// (void chains stay void; shared-heap strings append offsets, foreign
// heaps re-intern into a copy of the first part's heap; oids
// concatenate; all-int stays int; mixed numeric widens to dbl). One
// allocation for the whole output, shared by pairwise Concat and
// morselized Materialize.
Column AppendAllColumns(const std::vector<const Column*>& parts) {
  MIRROR_CHECK(!parts.empty());
  size_t total = 0;
  for (const Column* c : parts) total += c->size();
  bool void_chain = parts[0]->is_void();
  for (size_t i = 1; void_chain && i < parts.size(); ++i) {
    void_chain = parts[i]->is_void() &&
                 parts[i]->void_base() ==
                     parts[i - 1]->void_base() + parts[i - 1]->size();
  }
  if (void_chain) return Column::MakeVoid(parts[0]->void_base(), total);
  ValueType t0 = Norm(parts[0]->type());
  bool any_dbl = false;
  for (const Column* c : parts) {
    ValueType t = Norm(c->type());
    if (t0 == ValueType::kStr || t == ValueType::kStr) {
      MIRROR_CHECK(t0 == t) << "cannot append str to non-str";
    } else if (t0 == ValueType::kOid || t == ValueType::kOid) {
      MIRROR_CHECK(t0 == t) << "cannot append oid to non-oid";
    }
    any_dbl = any_dbl || t == ValueType::kDbl;
  }
  if (t0 == ValueType::kStr) {
    // Foreign-heap rows are interned into a copy of the first heap: the
    // first part's rows keep their offsets, and the first heap itself
    // (perhaps a catalog base heap that readers are using) is never
    // written. Parts that all share one heap share it with the output.
    std::shared_ptr<StringHeap> heap = parts[0]->heap();
    for (const Column* c : parts) {
      if (c->heap() != parts[0]->heap()) {
        heap = std::make_shared<StringHeap>(*parts[0]->heap());
        break;
      }
    }
    std::vector<uint32_t> offsets;
    offsets.reserve(total);
    for (const Column* c : parts) {
      if (c->heap() == parts[0]->heap()) {
        offsets.insert(offsets.end(), c->str_offsets().begin(),
                       c->str_offsets().end());
      } else {
        for (size_t i = 0; i < c->size(); ++i) {
          offsets.push_back(heap->Intern(c->StrAt(i)));
        }
      }
    }
    return Column::MakeStrsShared(std::move(heap), std::move(offsets));
  }
  if (t0 == ValueType::kOid) {
    std::vector<Oid> out;
    out.reserve(total);
    for (const Column* c : parts) {
      for (size_t i = 0; i < c->size(); ++i) out.push_back(c->OidAt(i));
    }
    return Column::MakeOids(std::move(out));
  }
  if (!any_dbl) {
    std::vector<int64_t> out;
    out.reserve(total);
    for (const Column* c : parts) {
      out.insert(out.end(), c->ints().begin(), c->ints().end());
    }
    return Column::MakeInts(std::move(out));
  }
  std::vector<double> out;
  out.reserve(total);
  for (const Column* c : parts) {
    for (size_t i = 0; i < c->size(); ++i) out.push_back(c->NumAt(i));
  }
  return Column::MakeDbls(std::move(out));
}

}  // namespace

Bat Concat(const Bat& a, const Bat& b) {
  KernelTimer timer(KernelOp::kConcat);
  TrackKernelOp(KernelOp::kConcat, a.size() + b.size(), a.size() + b.size());
  return Bat(AppendAllColumns({&a.head(), &b.head()}),
             AppendAllColumns({&a.tail(), &b.tail()}));
}

Bat ConcatAll(const std::vector<const Bat*>& parts) {
  MIRROR_CHECK(!parts.empty());
  KernelTimer timer(KernelOp::kConcat);
  size_t total = 0;
  for (const Bat* p : parts) total += p->size();
  TrackKernelOp(KernelOp::kConcat, total, total);
  std::vector<const Column*> heads;
  std::vector<const Column*> tails;
  heads.reserve(parts.size());
  tails.reserve(parts.size());
  for (const Bat* p : parts) {
    heads.push_back(&p->head());
    tails.push_back(&p->tail());
  }
  return Bat(AppendAllColumns(heads), AppendAllColumns(tails));
}

// ---------------------------------------------------------------------------
// Selection. Every form normalizes its bounds once, at kernel entry, into
// one inclusive interval in the tail column's own domain, then runs the
// typed branch-free core of the column's type. The materializing forms
// (classic Monet semantics) and the candidate forms (late
// materialization) share the cores.

namespace {

constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();

// Rows at domain indexes [lo, hi) of `cands`: a dense range is a view of
// `b`'s buffers; sparse positions gather, read in place.
Bat GatherFragment(const Bat& b, const CandidateList& cands, size_t lo,
                   size_t hi) {
  if (!cands.is_dense()) {
    return GatherBat(b, cands.sparse_positions().subspan(lo, hi - lo));
  }
  return b.View(cands.first() + lo, hi - lo);
}

Bat GatherFragment(const Bat& b, const CandidateList& cands) {
  return GatherFragment(b, cands, 0, cands.size());
}

// One side of a selection predicate: absent (null `v`), or `*v` with its
// inclusivity.
struct Bound {
  const Value* v = nullptr;
  bool inclusive = true;
};

// The bounds of `tail (cmp) v`; eq and neq bound v on both sides.
std::pair<Bound, Bound> CmpBounds(CmpOp cmp, const Value& v) {
  switch (cmp) {
    case CmpOp::kLt:
      return {Bound{}, Bound{&v, false}};
    case CmpOp::kLe:
      return {Bound{}, Bound{&v, true}};
    case CmpOp::kGt:
      return {Bound{&v, false}, Bound{}};
    case CmpOp::kGe:
      return {Bound{&v, true}, Bound{}};
    default:
      return {Bound{&v, true}, Bound{&v, true}};
  }
}

// The interval of tail values a selection keeps, in the zone maps' double
// space, both ends inclusive: [lo, hi] holds every kept value (a block
// outside it keeps no row), [all_lo, all_hi] only kept ones (a block
// inside it keeps every row).
struct ZoneInterval {
  bool usable = false;
  double lo = -kInf;
  double hi = kInf;
  double all_lo = -kInf;
  double all_hi = kInf;
};

// A selection predicate normalized at kernel entry. It keeps the rows
// inside the interval, or outside it when `negate` is set (neq); `none`
// means no row qualifies, so nothing is scanned.
//  - int, oid and void tails: v - lo <= span in uint64 arithmetic, the
//    one-comparison form of lo <= v <= hi (signed for int, unsigned for
//    oid);
//  - dbl tails: dlo <= v <= dhi, exclusive bounds moved one ulp inward;
//  - str tails: the bounds as given.
struct SelectPred {
  bool none = false;
  bool negate = false;
  uint64_t lo = 0;
  uint64_t span = 0;
  double dlo = -kInf;
  double dhi = kInf;
  Bound slo;
  Bound shi;
  ZoneInterval zone;
};

// The least x with `x > v` (`x >= v` when inclusive) for an integral
// literal in the column's own domain; nullopt past the type's maximum.
template <typename T>
std::optional<T> IntegralAbove(T v, bool inclusive) {
  if (inclusive) return v;
  if (v == std::numeric_limits<T>::max()) return std::nullopt;
  return v + 1;
}

// The greatest x with `x < v` (`x <= v` when inclusive).
template <typename T>
std::optional<T> IntegralBelow(T v, bool inclusive) {
  if (inclusive) return v;
  if (v == std::numeric_limits<T>::min()) return std::nullopt;
  return v - 1;
}

// The smallest int64 x with keep(x), for a keep that is false up to some
// x and true from there on; nullopt when it holds for no int64.
template <typename Keep>
std::optional<int64_t> FirstInt(Keep keep) {
  if (!keep(kI64Max)) return std::nullopt;
  int64_t lo = kI64Min;
  int64_t hi = kI64Max;
  while (lo < hi) {
    const int64_t mid =
        lo + static_cast<int64_t>(
                 (static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo)) / 2);
    if (keep(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

// The least int64 x with `x > v` (`x >= v` when inclusive) as the naive
// oracle compares an int with `v`: exactly for an int literal, as doubles
// for a dbl one (Value::operator<). Int-to-double conversion is monotone,
// so a bisection finds the bound exactly, where ceil and floor go wrong
// past 2^53.
std::optional<int64_t> IntLowerBound(const Value& v, bool inclusive) {
  if (v.type() == ValueType::kInt) return IntegralAbove(v.i(), inclusive);
  const double d = v.d();
  return FirstInt([&](int64_t x) {
    const double dx = static_cast<double>(x);
    return inclusive ? dx >= d : dx > d;
  });
}

// The greatest int64 x with `x < v` (`x <= v` when inclusive), likewise.
std::optional<int64_t> IntUpperBound(const Value& v, bool inclusive) {
  if (v.type() == ValueType::kInt) return IntegralBelow(v.i(), inclusive);
  if (std::isnan(v.d())) return std::nullopt;
  // The ints past the bound are the least ones failing it.
  const std::optional<int64_t> past = IntLowerBound(v, !inclusive);
  if (!past) return kI64Max;
  return IntegralBelow(*past, false);
}

// The least double >= d (> d when exclusive); NaN when none exists.
double DblLowerBound(double d, bool inclusive) {
  if (inclusive) return d;
  return d == kInf ? std::nan("") : std::nextafter(d, kInf);
}

// The greatest double <= d (< d when exclusive); NaN when none exists.
double DblUpperBound(double d, bool inclusive) {
  if (inclusive) return d;
  return d == -kInf ? std::nan("") : std::nextafter(d, -kInf);
}

// Stores the integral interval [lo, hi] (int64 or uint64 order) as lo and
// span, with its zone intervals: the one that prunes widens outward
// (DoubleLowerBound of lo, DoubleUpperBound of hi), the one that keeps
// whole blocks narrows inward (DoubleUpperBound of lo, DoubleLowerBound of
// hi), so kNone and kAll stay exact past 2^53; an open side is infinite.
template <typename T>
void SetIntegralInterval(T lo, T hi, SelectPred* p) {
  p->lo = static_cast<uint64_t>(lo);
  p->span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  if (p->negate) return;
  // Zone maps hold oids as int64 (RunSelect checks that no oid is past
  // int64's range), so an oid lower bound past it prunes nothing.
  if constexpr (std::is_unsigned_v<T>) {
    if (lo > static_cast<T>(kI64Max)) return;
  }
  p->zone.usable = true;
  if (lo != std::numeric_limits<T>::min()) {
    p->zone.lo = DoubleLowerBound(static_cast<int64_t>(lo));
    p->zone.all_lo = DoubleUpperBound(static_cast<int64_t>(lo));
  }
  if (hi < static_cast<T>(kI64Max)) {
    p->zone.hi = DoubleUpperBound(static_cast<int64_t>(hi));
    p->zone.all_hi = DoubleLowerBound(static_cast<int64_t>(hi));
  }
}

template <typename T>
void SetIntegralPred(std::optional<T> lo, std::optional<T> hi,
                     SelectPred* p) {
  if (lo && hi && *lo <= *hi) {
    SetIntegralInterval(*lo, *hi, p);
  } else if (p->negate) {
    // neq of a value no row equals: every row qualifies.
    p->negate = false;
    p->lo = 0;
    p->span = std::numeric_limits<uint64_t>::max();
  } else {
    p->none = true;
  }
}

SelectPred NormalizeSelect(const Column& tail, Bound lo, Bound hi,
                           bool negate) {
  for (const Bound& b : {lo, hi}) {
    MIRROR_CHECK(b.v == nullptr || tail.TypeCompatible(b.v->type()))
        << "select type mismatch: column " << ValueTypeName(tail.type())
        << " vs literal " << b.v->ToString();
  }
  SelectPred p;
  p.negate = negate;
  switch (tail.type()) {
    case ValueType::kInt:
      SetIntegralPred<int64_t>(
          lo.v != nullptr ? IntLowerBound(*lo.v, lo.inclusive) : kI64Min,
          hi.v != nullptr ? IntUpperBound(*hi.v, hi.inclusive) : kI64Max,
          &p);
      break;
    case ValueType::kVoid:
    case ValueType::kOid:
      SetIntegralPred<uint64_t>(
          lo.v != nullptr ? IntegralAbove(lo.v->oid(), lo.inclusive) : 0,
          hi.v != nullptr ? IntegralBelow(hi.v->oid(), hi.inclusive)
                          : std::numeric_limits<uint64_t>::max(),
          &p);
      break;
    case ValueType::kDbl:
      if (lo.v != nullptr) p.dlo = DblLowerBound(lo.v->AsDouble(), lo.inclusive);
      if (hi.v != nullptr) p.dhi = DblUpperBound(hi.v->AsDouble(), hi.inclusive);
      // An empty interval (NaN bounds compare false) negates to every row.
      if (!(p.dlo <= p.dhi)) {
        p.none = !negate;
      } else if (!negate) {
        p.zone = {true, p.dlo, p.dhi, p.dlo, p.dhi};
      }
      break;
    case ValueType::kStr:
      p.slo = lo;
      p.shi = hi;
      break;
  }
  return p;
}

// Zone-map pruning over a dense span: blocks whose [min, max] lies
// outside the interval are skipped unread, blocks inside it write their
// rows wholesale, and runs of the remaining blocks go to `core`. A sparse
// span goes to `core` whole. Positions are those of the unpruned core;
// skipped blocks count into `skipped`.
template <typename Core>
size_t ZonedSelectInto(const DomainSpan& d, const ZoneMap& zones,
                       const ZoneInterval& iv, const Core& core,
                       uint32_t* out, std::atomic<uint64_t>* skipped) {
  if (d.cands != nullptr && !d.cands->is_dense()) return core(d, out);
  const size_t first = (d.cands == nullptr ? 0 : d.cands->first()) + d.lo;
  const size_t end = first + d.size();
  if (first == end) return 0;
  const size_t br = zones.block_rows;
  size_t k = 0;
  size_t run_lo = first;  // start of the pending run of mixed blocks
  uint64_t dead = 0;
  for (size_t blk = first / br; blk * br < end; ++blk) {
    const size_t blo = std::max(first, blk * br);
    const size_t bhi = std::min(end, (blk + 1) * br);
    const double bmin = zones.block_min[blk];
    const double bmax = zones.block_max[blk];
    ZoneMatch match = ClassifyZone(bmin, bmax, iv.lo, true, iv.hi, true);
    if (match == ZoneMatch::kAll && (bmin < iv.all_lo || bmax > iv.all_hi)) {
      match = ZoneMatch::kSome;
    }
    if (match == ZoneMatch::kSome) continue;
    k += core(DomainSpan{nullptr, run_lo, blo}, out + k);
    run_lo = bhi;
    if (match == ZoneMatch::kNone) {
      ++dead;
      continue;
    }
    for (size_t i = blo; i < bhi; ++i) out[k++] = static_cast<uint32_t>(i);
  }
  k += core(DomainSpan{nullptr, run_lo, end}, out + k);
  if (dead > 0) skipped->fetch_add(dead, std::memory_order_relaxed);
  return k;
}

// Runs a normalized predicate over the domain with the typed core of the
// tail's type, behind zone-map pruning when the interval allows it.
CandidateList RunSelect(const Column& tail, const SelectPred& p,
                        const CandidateList* cands, const MorselExec& mx,
                        const ZoneMap* zones) {
  if (p.none) return CandidateList::FromPositions({});
  // Zone maps hold oids as int64: an oid past 2^63 (a negative zone
  // minimum) would sit in the wrong place.
  const bool oids = Norm(tail.type()) == ValueType::kOid;
  const bool zoned = p.zone.usable && zones != nullptr && zones->valid &&
                     (!oids || zones->min >= 0);
  std::atomic<uint64_t> skipped{0};
  auto run = [&](auto keep) {
    auto core = [&](const DomainSpan& d, uint32_t* out) {
      return SelectInto(d, keep, out);
    };
    if (!zoned) return MorselizedPositions(tail.size(), cands, mx, core);
    return MorselizedPositions(
        tail.size(), cands, mx, [&](const DomainSpan& d, uint32_t* out) {
          return ZonedSelectInto(d, *zones, p.zone, core, out, &skipped);
        });
  };
  const uint64_t lo = p.lo;
  const uint64_t span = p.span;
  const bool neg = p.negate;
  CandidateList out;
  switch (tail.type()) {
    case ValueType::kVoid: {
      const uint64_t base = tail.void_base();
      out = run([=](size_t i) { return (base + i - lo <= span) != neg; });
      break;
    }
    case ValueType::kOid: {
      const Oid* v = tail.oids().data();
      out = run([=](size_t i) { return (v[i] - lo <= span) != neg; });
      break;
    }
    case ValueType::kInt: {
      const int64_t* v = tail.ints().data();
      out = run([=](size_t i) {
        return (static_cast<uint64_t>(v[i]) - lo <= span) != neg;
      });
      break;
    }
    case ValueType::kDbl: {
      const double* v = tail.dbls().data();
      const double dlo = p.dlo;
      const double dhi = p.dhi;
      out = run([=](size_t i) { return ((v[i] >= dlo) & (v[i] <= dhi)) != neg; });
      break;
    }
    case ValueType::kStr: {
      const std::string* slo = p.slo.v != nullptr ? &p.slo.v->s() : nullptr;
      const std::string* shi = p.shi.v != nullptr ? &p.shi.v->s() : nullptr;
      const bool eq = slo != nullptr && shi != nullptr && *slo == *shi &&
                      p.slo.inclusive && p.shi.inclusive;  // eq and neq
      out = run([&, slo, shi, eq, neg](size_t i) {
        const std::string_view s = tail.StrAt(i);
        if (eq) return (s == *slo) != neg;
        const bool above =
            slo == nullptr || (p.slo.inclusive ? s >= *slo : s > *slo);
        const bool below =
            shi == nullptr || (p.shi.inclusive ? s <= *shi : s < *shi);
        return (above && below) != neg;
      });
      break;
    }
  }
  const uint64_t s = skipped.load(std::memory_order_relaxed);
  if (s > 0) TrackZoneBlocksSkipped(s);
  return out;
}

// The candidate forms' shared body.
CandidateList SelectCand(const Bat& b, Bound lo, Bound hi, bool negate,
                         const CandidateList* cands, const MorselExec& mx,
                         const ZoneMap* zones) {
  KernelTimer timer(KernelOp::kSelect);
  CandidateList out = RunSelect(
      b.tail(), NormalizeSelect(b.tail(), lo, hi, negate), cands, mx, zones);
  TrackKernelOp(KernelOp::kSelect, DomainSize(b.size(), cands), out.size());
  TrackCandidateOp();
  return out;
}

// The materializing forms' shared body: the same core over every row,
// then one gather.
Bat SelectBat(const Bat& b, Bound lo, Bound hi, bool negate) {
  KernelTimer timer(KernelOp::kSelect);
  CandidateList kept =
      RunSelect(b.tail(), NormalizeSelect(b.tail(), lo, hi, negate), nullptr,
                MorselExec{}, nullptr);
  TrackKernelOp(KernelOp::kSelect, b.size(), kept.size());
  return GatherFragment(b, kept);
}

}  // namespace

Bat SelectEq(const Bat& b, const Value& v) {
  return SelectBat(b, Bound{&v}, Bound{&v}, /*negate=*/false);
}

Bat SelectNeq(const Bat& b, const Value& v) {
  return SelectBat(b, Bound{&v}, Bound{&v}, /*negate=*/true);
}

Bat SelectCmp(const Bat& b, CmpOp cmp, const Value& v) {
  auto [lo, hi] = CmpBounds(cmp, v);
  return SelectBat(b, lo, hi, cmp == CmpOp::kNeq);
}

Bat SelectRange(const Bat& b, const Value& lo, const Value& hi,
                bool lo_inclusive, bool hi_inclusive) {
  return SelectBat(b, Bound{&lo, lo_inclusive}, Bound{&hi, hi_inclusive},
                   /*negate=*/false);
}

CandidateList SelectEqCand(const Bat& b, const Value& v,
                           const CandidateList* cands, const MorselExec& mx,
                           const ZoneMap* zones) {
  return SelectCand(b, Bound{&v}, Bound{&v}, /*negate=*/false, cands, mx,
                    zones);
}

CandidateList SelectNeqCand(const Bat& b, const Value& v,
                            const CandidateList* cands, const MorselExec& mx) {
  return SelectCand(b, Bound{&v}, Bound{&v}, /*negate=*/true, cands, mx,
                    nullptr);
}

CandidateList SelectCmpCand(const Bat& b, CmpOp cmp, const Value& v,
                            const CandidateList* cands, const MorselExec& mx,
                            const ZoneMap* zones) {
  auto [lo, hi] = CmpBounds(cmp, v);
  return SelectCand(b, lo, hi, cmp == CmpOp::kNeq, cands, mx, zones);
}

CandidateList SelectRangeCand(const Bat& b, const Value& lo, const Value& hi,
                              bool lo_inclusive, bool hi_inclusive,
                              const CandidateList* cands, const MorselExec& mx,
                              const ZoneMap* zones) {
  return SelectCand(b, Bound{&lo, lo_inclusive}, Bound{&hi, hi_inclusive},
                    /*negate=*/false, cands, mx, zones);
}

namespace {

uint64_t ApproxColumnBytes(const Column& c) {
  switch (c.type()) {
    case ValueType::kVoid:
      return 0;
    case ValueType::kStr:
      return static_cast<uint64_t>(c.size()) * sizeof(uint32_t);
    default:
      return static_cast<uint64_t>(c.size()) * 8;
  }
}

}  // namespace

uint64_t ApproxBatBytes(const Bat& b) {
  return ApproxColumnBytes(b.head()) + ApproxColumnBytes(b.tail());
}

Bat Materialize(const Bat& b, const CandidateList& cands,
                const MorselExec& mx) {
  KernelTimer timer(KernelOp::kMaterialize);
  TrackKernelOp(KernelOp::kMaterialize, cands.size(), cands.size());
  TrackMaterialization(cands.size());
  size_t morsels = mx.MorselsFor(cands.size());
  if (morsels <= 1) {
    Bat out = GatherFragment(b, cands);
    mx.Charge(ApproxBatBytes(out));
    return out;
  }
  std::vector<std::optional<Bat>> fragments(morsels);
  MorselFor(mx, "materialize.morsel", mx.pool, morsels, [&](size_t j) {
    const DomainSpan span = MorselSpan(&cands, cands.size(), morsels, j);
    // An abandoned morsel stands in an empty fragment so the merge below
    // stays well-formed; the engine discards the partial result.
    const bool aborted = mx.Aborted();
    fragments[j].emplace(
        GatherFragment(b, cands, span.lo, aborted ? span.lo : span.hi));
    if (!aborted) mx.Charge(ApproxBatBytes(*fragments[j]));
  });
  TrackMorselTasks(morsels);
  std::vector<const Column*> heads;
  std::vector<const Column*> tails;
  heads.reserve(morsels);
  tails.reserve(morsels);
  for (const std::optional<Bat>& f : fragments) {
    heads.push_back(&f->head());
    tails.push_back(&f->tail());
  }
  return Bat(AppendAllColumns(heads), AppendAllColumns(tails));
}

// ---------------------------------------------------------------------------
// Joins. The general hash join runs as a radix-partitioned, morsel-
// parallel pipeline:
//
//   (1) radix-cluster: the build side's (key, position) pairs are
//       scattered into partitions by key-hash prefix. Partition count
//       comes from the estimated L2 budget (cache_info.h) so one
//       partition's table stays cache-resident; the scatter is a
//       morsel-parallel histogram + stable partition-major prefix sum,
//       so within a partition rows keep ascending position order.
//   (2) partition build: each partition gets a power-of-two bucket array
//       with intrusive chains over the clustered rows, built as
//       independent pool tasks. Chains link ascending, so duplicates
//       probe out in build order.
//   (3) morsel probe: probe morsels cover later and later slices of the
//       probe domain and emit disjoint ordered (lpos, rpos) fragments
//       into pre-reserved vectors; fragments gather into per-morsel
//       result Bats appended once at the end.
//
// Output row order is exactly JoinLegacy's: probe order, duplicates in
// build order.

namespace {

constexpr uint32_t kNoEntry = 0xFFFFFFFFu;

inline uint64_t MixHash(uint64_t x) {
  x *= 0x9E3779B97F4A7C15ull;
  x ^= x >> 32;
  x *= 0xD6E8FEB86659FD93ull;
  x ^= x >> 29;
  return x;
}

inline uint64_t RadixHash(int64_t k) {
  return MixHash(static_cast<uint64_t>(k));
}

inline uint64_t RadixHash(double k) {
  if (k == 0.0) k = 0.0;  // collapse -0.0 onto +0.0 (they compare equal)
  uint64_t bits;
  std::memcpy(&bits, &k, sizeof(bits));
  return MixHash(bits);
}

/// The clustered build side of a radix join: keys and base positions
/// scattered into partition-contiguous ranges, with one bucket-chain
/// index per partition (partition from the hash's low bits, bucket from
/// its high bits, so the two are independent).
template <typename K>
struct RadixTable {
  size_t part_mask = 0;
  std::vector<K> keys;             // clustered by partition
  std::vector<uint32_t> pos;       // base positions, same order
  std::vector<uint32_t> next;      // intrusive chains (ascending)
  std::vector<uint32_t> buckets;   // concatenated per-partition arrays
  std::vector<size_t> part_begin;    // rows of partition p
  std::vector<size_t> bucket_begin;  // buckets of partition p
  /// Optional per-partition Bloom filter (membership probes only): a
  /// fixed stride of `bloom_words` 64-bit words per partition, sized to
  /// ~8 bits per key, with two probe bits taken from the same hash the
  /// partition and bucket selectors use. 0 words = no filter.
  std::vector<uint64_t> bloom;
  size_t bloom_words = 0;
};

/// The two filter bit positions for hash `h` in a `bits`-wide partition
/// filter — the single definition shared by the build and probe sides
/// (they must agree exactly or probes would test bits the build never
/// set and silently drop valid members).
struct BloomBits {
  size_t b1;
  size_t b2;

  BloomBits(uint64_t h, size_t bits)
      : b1((h >> 11) & (bits - 1)), b2((h >> 43) & (bits - 1)) {}
};

/// True when the filter proves `h` absent from partition `p` (two-bit
/// check in one 512-byte-max window: a miss touches at most two cache
/// lines instead of a bucket head + chain walk).
template <typename K>
inline bool BloomRejects(const RadixTable<K>& t, uint64_t h, size_t p) {
  const uint64_t* words = t.bloom.data() + p * t.bloom_words;
  BloomBits bits(h, t.bloom_words * 64);
  return ((words[bits.b1 >> 6] >> (bits.b1 & 63)) & 1) == 0 ||
         ((words[bits.b2 >> 6] >> (bits.b2 & 63)) & 1) == 0;
}

/// Radix-clusters the candidate domain of an n-row build column.
/// `key_at(pos)` reads the canonical key at base position `pos`.
/// `dedup_chains` skips chain-linking rows whose key is already present
/// in their bucket chain — the membership probes only ask "is this key
/// here", so duplicate build keys would just lengthen the chains every
/// colliding probe has to walk (joins need every duplicate and keep it
/// false).
template <typename K, typename KeyAtFn>
RadixTable<K> BuildRadixTable(size_t n, const CandidateList* cands,
                              KeyAtFn key_at, const MorselExec& mx,
                              bool dedup_chains = false,
                              bool with_bloom = false) {
  size_t m = DomainSize(n, cands);
  size_t parts = mx.radix_partitions > 0
                     ? NextPowerOfTwo(mx.radix_partitions)
                     : RadixPartitionsFor(m);
  RadixTable<K> t;
  t.part_mask = parts - 1;
  t.part_begin.assign(parts + 1, 0);
  t.bucket_begin.assign(parts + 1, 0);
  if (m == 0) return t;
  // An aborted query returns the empty-shaped table (all partition ranges
  // zero) rather than building: probes find no matches and the engine
  // errors at the next instruction boundary.
  if (mx.Aborted()) return t;
  if (with_bloom) {
    // ~8 bits per key in the average partition (two probe bits => ~5%
    // false-positive rate), as one power-of-two word stride per
    // partition so addressing stays shift-and-mask.
    t.bloom_words = NextPowerOfTwo(std::max<size_t>(1, m / parts / 8));
    t.bloom.assign(parts * t.bloom_words, 0);
    TrackBloomBuild();
  }
  t.keys.resize(m);
  t.pos.resize(m);
  // keys + pos + next arrays; buckets are charged with them (same order).
  mx.Charge(static_cast<uint64_t>(m) * (sizeof(K) + 2 * sizeof(uint32_t)));
  auto base_pos = [&](size_t j) -> size_t {
    return cands == nullptr ? j : cands->PositionAt(j);
  };
  size_t morsels = mx.MorselsFor(m);
  WorkerPool* pool = morsels <= 1 ? nullptr : mx.pool;
  // (1a) per-(morsel, partition) histograms.
  std::vector<std::vector<uint32_t>> hist(morsels,
                                          std::vector<uint32_t>(parts, 0));
  MorselForChunks(mx, "radix.cluster.morsel", pool, m, morsels,
                  [&](size_t j, size_t lo, size_t hi) {
                    std::vector<uint32_t>& h = hist[j];
                    for (size_t i = lo; i < hi; ++i) {
                      ++h[RadixHash(key_at(base_pos(i))) & t.part_mask];
                    }
                  });
  // (1b) partition-major, morsel-minor exclusive prefix sums turn the
  // histograms into scatter cursors; this ordering makes the scatter
  // stable (morsel j's rows precede morsel j+1's within each partition).
  size_t running = 0;
  for (size_t p = 0; p < parts; ++p) {
    t.part_begin[p] = running;
    for (size_t j = 0; j < morsels; ++j) {
      uint32_t count = hist[j][p];
      hist[j][p] = static_cast<uint32_t>(running);
      running += count;
    }
  }
  t.part_begin[parts] = running;
  // (1c) scatter (morsels write disjoint cursor ranges).
  MorselForChunks(mx, "radix.cluster.morsel", pool, m, morsels,
                  [&](size_t j, size_t lo, size_t hi) {
                    std::vector<uint32_t>& cursor = hist[j];
                    for (size_t i = lo; i < hi; ++i) {
                      size_t bp = base_pos(i);
                      K key = key_at(bp);
                      uint32_t slot = cursor[RadixHash(key) & t.part_mask]++;
                      t.keys[slot] = key;
                      t.pos[slot] = static_cast<uint32_t>(bp);
                    }
                  });
  // (2) per-partition bucket arrays; chains are threaded back-to-front so
  // walking a chain visits ascending clustered rows (= build order).
  size_t btotal = 0;
  for (size_t p = 0; p < parts; ++p) {
    t.bucket_begin[p] = btotal;
    size_t rows = t.part_begin[p + 1] - t.part_begin[p];
    if (rows > 0) btotal += NextPowerOfTwo(std::max<size_t>(rows * 2, 4));
  }
  t.bucket_begin[parts] = btotal;
  t.buckets.assign(btotal, kNoEntry);
  t.next.resize(m);
  MorselFor(mx, "radix.build.part", parts <= 1 ? nullptr : mx.pool, parts,
            [&](size_t p) {
    // Partition-boundary abort check: a skipped partition keeps its
    // buckets at kNoEntry (probes miss); the run errors before delivery.
    if (mx.Aborted()) return;
    size_t bbase = t.bucket_begin[p];
    size_t bsize = t.bucket_begin[p + 1] - bbase;
    if (bsize == 0) return;
    size_t bmask = bsize - 1;
    size_t lo = t.part_begin[p];
    if (t.bloom_words > 0) {
      // Each partition task owns its filter stride, so bit sets race-free.
      uint64_t* words = t.bloom.data() + p * t.bloom_words;
      for (size_t i = lo; i < t.part_begin[p + 1]; ++i) {
        BloomBits bits(RadixHash(t.keys[i]), t.bloom_words * 64);
        words[bits.b1 >> 6] |= uint64_t{1} << (bits.b1 & 63);
        words[bits.b2 >> 6] |= uint64_t{1} << (bits.b2 & 63);
      }
    }
    for (size_t i = t.part_begin[p + 1]; i-- > lo;) {
      size_t b = bbase + ((RadixHash(t.keys[i]) >> 32) & bmask);
      if (dedup_chains) {
        bool seen = false;
        for (uint32_t c = t.buckets[b]; c != kNoEntry; c = t.next[c]) {
          if (t.keys[c] == t.keys[i]) {
            seen = true;
            break;
          }
        }
        if (seen) continue;
      }
      t.next[i] = t.buckets[b];
      t.buckets[b] = static_cast<uint32_t>(i);
    }
  });
  if (parts > 1) TrackRadixBuild(parts);
  return t;
}

/// Calls `emit(build position)` for every build row matching `key`, in
/// build order.
template <typename K, typename EmitFn>
inline void ForEachMatch(const RadixTable<K>& t, K key, EmitFn emit) {
  uint64_t h = RadixHash(key);
  size_t p = h & t.part_mask;
  size_t bbase = t.bucket_begin[p];
  size_t bsize = t.bucket_begin[p + 1] - bbase;
  if (bsize == 0) return;
  uint32_t idx = t.buckets[bbase + ((h >> 32) & (bsize - 1))];
  while (idx != kNoEntry) {
    if (t.keys[idx] == key) emit(t.pos[idx]);
    idx = t.next[idx];
  }
}

template <typename K>
inline bool RadixContainsHashed(const RadixTable<K>& t, K key, uint64_t h,
                                size_t p) {
  size_t bbase = t.bucket_begin[p];
  size_t bsize = t.bucket_begin[p + 1] - bbase;
  if (bsize == 0) return false;
  uint32_t idx = t.buckets[bbase + ((h >> 32) & (bsize - 1))];
  while (idx != kNoEntry) {
    if (t.keys[idx] == key) return true;
    idx = t.next[idx];
  }
  return false;
}

template <typename K>
inline bool RadixContains(const RadixTable<K>& t, K key) {
  uint64_t h = RadixHash(key);
  return RadixContainsHashed(t, key, h, h & t.part_mask);
}

/// Gathers per-morsel (lpos, rpos) fragments into the join result
/// (l.head, r.tail): fragment Bats are gathered in parallel and appended
/// once, mirroring morselized Materialize.
Bat AssembleJoin(const Bat& l, const Bat& r,
                 std::vector<std::vector<uint32_t>> lfrags,
                 std::vector<std::vector<uint32_t>> rfrags,
                 const MorselExec& mx) {
  if (lfrags.size() == 1) {
    return Bat(l.head().Gather(lfrags[0]), r.tail().Gather(rfrags[0]));
  }
  std::vector<std::optional<Bat>> parts(lfrags.size());
  MorselFor(mx, "join.gather.morsel", mx.pool, lfrags.size(), [&](size_t j) {
    parts[j].emplace(l.head().Gather(lfrags[j]), r.tail().Gather(rfrags[j]));
  });
  std::vector<const Column*> heads;
  std::vector<const Column*> tails;
  heads.reserve(parts.size());
  tails.reserve(parts.size());
  for (const std::optional<Bat>& f : parts) {
    heads.push_back(&f->head());
    tails.push_back(&f->tail());
  }
  return Bat(AppendAllColumns(heads), AppendAllColumns(tails));
}

/// The shared probe pipeline: splits the probe domain into morsels, each
/// probing via `match(base position, emit)` into pre-reserved fragment
/// vectors (one expected match per probe row — re-reserving per match
/// was the fetch join's reallocation churn), then assembles the result.
template <typename MatchFn>
Bat ProbeJoin(const Bat& l, const CandidateList* lcands, const Bat& r,
              MatchFn match, const MorselExec& mx) {
  size_t m = DomainSize(l.size(), lcands);
  size_t morsels = mx.MorselsFor(m);
  std::vector<std::vector<uint32_t>> lfrags(morsels);
  std::vector<std::vector<uint32_t>> rfrags(morsels);
  MorselForChunks(
      mx, "join.probe.morsel", morsels <= 1 ? nullptr : mx.pool, m, morsels,
      [&](size_t j, size_t lo, size_t hi) {
        std::vector<uint32_t>& lp = lfrags[j];
        std::vector<uint32_t>& rp = rfrags[j];
        lp.reserve(hi - lo);
        rp.reserve(hi - lo);
        for (size_t i = lo; i < hi; ++i) {
          size_t bp = lcands == nullptr ? i : lcands->PositionAt(i);
          match(bp, [&](uint32_t rpos) {
            lp.push_back(static_cast<uint32_t>(bp));
            rp.push_back(rpos);
          });
        }
      });
  if (morsels > 1) TrackMorselTasks(morsels);
  return AssembleJoin(l, r, std::move(lfrags), std::move(rfrags), mx);
}

/// Probe domains below this size keep the simple morselized probe: the
/// extra clustering pass only pays off once the probe side is large
/// enough that random partition hops dominate.
constexpr size_t kPartitionWiseMinProbe = 4096;

/// Partition-wise probe scheduling: the probe domain is radix-clustered
/// with the build table's own partition function, then each (build
/// partition, probe partition) pair probes as one task whose working set
/// is a single cache-resident build partition plus a contiguous probe
/// run — instead of every probe row hopping to a different partition of
/// the whole table. Output rows are scattered back through per-row match
/// counts and a prefix sum, so row order is exactly ProbeJoin's (probe
/// order, duplicates in build order).
template <typename K, typename KeyAtFn>
Bat PartitionWiseProbeJoin(const Bat& l, const CandidateList* lcands,
                           const Bat& r, const RadixTable<K>& t,
                           KeyAtFn key_at, const MorselExec& mx) {
  size_t m = DomainSize(l.size(), lcands);
  size_t parts = t.part_mask + 1;
  auto base_pos = [&](size_t j) -> size_t {
    return lcands == nullptr ? j : lcands->PositionAt(j);
  };
  size_t morsels = mx.MorselsFor(m);
  WorkerPool* pool = morsels <= 1 ? nullptr : mx.pool;
  // (1) Cluster (key, domain index) by the build's partition bits, with
  // the same stable 3-phase scatter the build side uses (domain indices
  // stay ascending within each partition).
  std::vector<K> keys(m);
  std::vector<std::vector<uint32_t>> hist(morsels,
                                          std::vector<uint32_t>(parts, 0));
  MorselForChunks(mx, "join.cluster.morsel", pool, m, morsels,
                  [&](size_t j, size_t lo, size_t hi) {
                    std::vector<uint32_t>& h = hist[j];
                    for (size_t i = lo; i < hi; ++i) {
                      keys[i] = key_at(base_pos(i));
                      ++h[RadixHash(keys[i]) & t.part_mask];
                    }
                  });
  std::vector<size_t> pbegin(parts + 1, 0);
  size_t running = 0;
  for (size_t p = 0; p < parts; ++p) {
    pbegin[p] = running;
    for (size_t j = 0; j < morsels; ++j) {
      uint32_t count = hist[j][p];
      hist[j][p] = static_cast<uint32_t>(running);
      running += count;
    }
  }
  pbegin[parts] = running;
  std::vector<uint32_t> idx_cl(m);
  std::vector<K> key_cl(m);
  MorselForChunks(mx, "join.cluster.morsel", pool, m, morsels,
                  [&](size_t j, size_t lo, size_t hi) {
                    std::vector<uint32_t>& cursor = hist[j];
                    for (size_t i = lo; i < hi; ++i) {
                      uint32_t slot =
                          cursor[RadixHash(keys[i]) & t.part_mask]++;
                      idx_cl[slot] = static_cast<uint32_t>(i);
                      key_cl[slot] = keys[i];
                    }
                  });
  // (2) Probe partition pairs. Each task owns one probe partition: its
  // matches buffer up in clustered order, and each probe row's match
  // count lands in a slot owned by exactly this task (race-free).
  std::vector<uint32_t> counts(m);
  std::vector<std::vector<uint32_t>> pmatches(parts);
  MorselFor(mx, "join.probe.part", parts <= 1 ? nullptr : mx.pool, parts,
            [&](size_t p) {
    // Partition-boundary abort check: a skipped probe partition emits no
    // matches; the partial join is discarded at the next boundary.
    if (mx.Aborted()) return;
    std::vector<uint32_t>& buf = pmatches[p];
    buf.reserve(pbegin[p + 1] - pbegin[p]);
    for (size_t s = pbegin[p]; s < pbegin[p + 1]; ++s) {
      uint32_t matches = 0;
      ForEachMatch(t, key_cl[s], [&](uint32_t rpos) {
        buf.push_back(rpos);
        ++matches;
      });
      counts[idx_cl[s]] = matches;
    }
  });
  // (3) Exclusive prefix sum over per-row counts in domain order fixes
  // each row's output range.
  std::vector<size_t> offsets(m + 1, 0);
  for (size_t i = 0; i < m; ++i) offsets[i + 1] = offsets[i] + counts[i];
  size_t total = offsets[m];
  // (4) Scatter each clustered row's matches to its domain-ordered
  // range; within a row the buffered matches are already in build order.
  std::vector<uint32_t> lpos(total);
  std::vector<uint32_t> rpos(total);
  MorselFor(mx, "join.scatter.part", parts <= 1 ? nullptr : mx.pool, parts,
            [&](size_t p) {
    const std::vector<uint32_t>& buf = pmatches[p];
    size_t cursor = 0;
    for (size_t s = pbegin[p]; s < pbegin[p + 1]; ++s) {
      uint32_t i = idx_cl[s];
      size_t off = offsets[i];
      uint32_t bp = static_cast<uint32_t>(base_pos(i));
      for (uint32_t c = 0; c < counts[i]; ++c) {
        lpos[off + c] = bp;
        rpos[off + c] = buf[cursor++];
      }
    }
  });
  TrackProbePartitions(parts);
  if (morsels > 1) TrackMorselTasks(morsels);
  size_t out_morsels = total == 0 ? 1 : mx.MorselsFor(total);
  if (out_morsels <= 1) {
    std::vector<std::vector<uint32_t>> lf(1);
    std::vector<std::vector<uint32_t>> rf(1);
    lf[0] = std::move(lpos);
    rf[0] = std::move(rpos);
    return AssembleJoin(l, r, std::move(lf), std::move(rf), mx);
  }
  size_t chunk = (total + out_morsels - 1) / out_morsels;
  std::vector<std::vector<uint32_t>> lf(out_morsels);
  std::vector<std::vector<uint32_t>> rf(out_morsels);
  for (size_t j = 0; j < out_morsels; ++j) {
    size_t lo = std::min(total, j * chunk);
    size_t hi = std::min(total, lo + chunk);
    lf[j].assign(lpos.begin() + static_cast<ptrdiff_t>(lo),
                 lpos.begin() + static_cast<ptrdiff_t>(hi));
    rf[j].assign(rpos.begin() + static_cast<ptrdiff_t>(lo),
                 rpos.begin() + static_cast<ptrdiff_t>(hi));
  }
  return AssembleJoin(l, r, std::move(lf), std::move(rf), mx);
}

/// Positional fetch join: l.tail holds oids into r's dense void head.
Bat FetchJoin(const Bat& l, const CandidateList* lcands, const Bat& r,
              const MorselExec& mx) {
  ValueType lt = Norm(l.tail().type());
  MIRROR_CHECK(lt == ValueType::kOid || lt == ValueType::kInt)
      << "fetch join needs oid-like probe tails";
  Oid base = r.head().void_base();
  size_t rn = r.size();
  const Column& probe = l.tail();
  return ProbeJoin(
      l, lcands, r,
      [&](size_t bp, auto emit) {
        uint64_t key = lt == ValueType::kInt
                           ? static_cast<uint64_t>(probe.IntAt(bp))
                           : probe.OidAt(bp);
        if (key < base) return;
        uint64_t pos = key - base;
        if (pos >= rn) return;
        emit(static_cast<uint32_t>(pos));
      },
      mx);
}

/// A candidate domain that covers the whole base adds nothing; collapse
/// it to "no domain" so the hot loops skip the indirection.
const CandidateList* NormalizeDomain(size_t n, const CandidateList* cands) {
  if (cands != nullptr && cands->is_dense() && cands->first() == 0 &&
      cands->size() == n) {
    return nullptr;
  }
  return cands;
}

}  // namespace

/// The shareable build side: the clustered tables are built lazily per
/// key mode because the canonical key type depends on each probe's
/// column type (an int build head radix-joins int probes on int64 keys
/// but dbl probes on double keys; a string head offset-joins same-heap
/// probes and spelling-joins foreign-heap ones).
///
/// Publication discipline: a builder never holds the mutex while
/// building — the build fans morsels onto the shared pool, and every
/// other probe of a fan-out would sit blocked on the mutex meanwhile,
/// idling its pool thread. So builds run unlocked and the first finisher
/// publishes (racing builders discard their copy); the shard engine
/// additionally warms the expected table before fanning probes out, so
/// the common path builds exactly once.
struct JoinBuild::Impl {
  BatPtr r;
  std::shared_ptr<const CandidateList> rcands;  // normalized; null = all
  MorselExec mx;
  mutable std::mutex mu;
  mutable std::shared_ptr<const RadixTable<int64_t>> i64;
  mutable std::shared_ptr<const RadixTable<double>> f64;
  mutable std::shared_ptr<const PosMap<std::string>> str;

  const CandidateList* cands() const { return rcands.get(); }

  template <typename T, typename BuildFn>
  std::shared_ptr<const T> LazyPublish(
      std::shared_ptr<const T>* slot, BuildFn build_fn) const {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (*slot != nullptr) return *slot;
    }
    std::shared_ptr<const T> built = build_fn();  // unlocked: may pool-fan
    std::lock_guard<std::mutex> lock(mu);
    if (*slot == nullptr) *slot = std::move(built);
    return *slot;
  }

  std::shared_ptr<const RadixTable<int64_t>> I64Table() const {
    return LazyPublish(&i64, [&] {
      const Column& head = r->head();
      return std::make_shared<const RadixTable<int64_t>>(
          BuildRadixTable<int64_t>(
              r->size(), cands(),
              [&](size_t i) { return I64KeyAt(head, i); }, mx));
    });
  }

  std::shared_ptr<const RadixTable<double>> F64Table() const {
    return LazyPublish(&f64, [&] {
      const Column& head = r->head();
      return std::make_shared<const RadixTable<double>>(
          BuildRadixTable<double>(
              r->size(), cands(),
              [&](size_t i) { return F64KeyAt(head, i); }, mx));
    });
  }

  std::shared_ptr<const PosMap<std::string>> StrIndex() const {
    return LazyPublish(&str, [&] {
      // Spelling-keyed fallback for string keys across distinct heaps
      // (offset keys are only exact within one heap).
      auto index = std::make_shared<PosMap<std::string>>();
      const Column& head = r->head();
      ForEachInDomain(WholeDomain(r->size(), cands()), [&](size_t i) {
        (*index)[std::string(head.StrAt(i))].push_back(
            static_cast<uint32_t>(i));
      });
      return std::shared_ptr<const PosMap<std::string>>(std::move(index));
    });
  }
};

JoinBuild::JoinBuild() : impl_(std::make_unique<Impl>()) {}
JoinBuild::~JoinBuild() = default;

std::shared_ptr<const JoinBuild> PrepareJoinBuild(
    BatPtr r, std::shared_ptr<const CandidateList> rcands,
    const MorselExec& mx) {
  MIRROR_CHECK(r != nullptr);
  if (rcands != nullptr &&
      NormalizeDomain(r->size(), rcands.get()) == nullptr) {
    rcands = nullptr;
  }
  std::shared_ptr<JoinBuild> build(new JoinBuild());
  build->impl_->r = std::move(r);
  build->impl_->rcands = std::move(rcands);
  build->impl_->mx = mx;
  return build;
}

Bat ProbePreparedJoin(const Bat& l, const CandidateList* lcands,
                      const JoinBuild& build, const MorselExec& mx) {
  KernelTimer timer(KernelOp::kJoin);
  const JoinBuild::Impl& im = *build.impl_;
  const Bat& r = *im.r;
  lcands = NormalizeDomain(l.size(), lcands);
  if (lcands != nullptr || im.rcands != nullptr) TrackCandidateOp();
  size_t domain_in =
      DomainSize(l.size(), lcands) + DomainSize(r.size(), im.cands());
  Bat out = [&] {
    // A candidate-restricted void head is no longer dense, so the
    // positional fast path requires full build coverage.
    if (r.head().is_void() && im.rcands == nullptr) {
      return FetchJoin(l, lcands, r, mx);
    }
    const Column& probe = l.tail();
    switch (PickKeyMode(probe, r.head())) {
      case KeyMode::kI64:
      case KeyMode::kStrOffset: {
        std::shared_ptr<const RadixTable<int64_t>> t = im.I64Table();
        if (t->part_mask > 0 &&
            DomainSize(l.size(), lcands) >= kPartitionWiseMinProbe) {
          return PartitionWiseProbeJoin(
              l, lcands, r, *t,
              [&](size_t bp) { return I64KeyAt(probe, bp); }, mx);
        }
        return ProbeJoin(
            l, lcands, r,
            [&](size_t bp, auto emit) {
              ForEachMatch(*t, I64KeyAt(probe, bp), emit);
            },
            mx);
      }
      case KeyMode::kF64: {
        std::shared_ptr<const RadixTable<double>> t = im.F64Table();
        if (t->part_mask > 0 &&
            DomainSize(l.size(), lcands) >= kPartitionWiseMinProbe) {
          return PartitionWiseProbeJoin(
              l, lcands, r, *t,
              [&](size_t bp) { return F64KeyAt(probe, bp); }, mx);
        }
        return ProbeJoin(
            l, lcands, r,
            [&](size_t bp, auto emit) {
              ForEachMatch(*t, F64KeyAt(probe, bp), emit);
            },
            mx);
      }
      case KeyMode::kString: {
        std::shared_ptr<const PosMap<std::string>> index = im.StrIndex();
        return ProbeJoin(
            l, lcands, r,
            [&](size_t bp, auto emit) {
              auto it = index->find(std::string(probe.StrAt(bp)));
              if (it == index->end()) return;
              for (uint32_t rpos : it->second) emit(rpos);
            },
            mx);
      }
    }
    MIRROR_UNREACHABLE();
    return Bat(Column::MakeVoid(0, 0), Column::MakeVoid(0, 0));
  }();
  TrackKernelOp(KernelOp::kJoin, domain_in, out.size());
  return out;
}

void WarmJoinBuild(const JoinBuild& build, const Column& probe_tail) {
  const JoinBuild::Impl& im = *build.impl_;
  if (im.r->head().is_void() && im.rcands == nullptr) return;  // fetch join
  switch (PickKeyMode(probe_tail, im.r->head())) {
    case KeyMode::kI64:
    case KeyMode::kStrOffset:
      im.I64Table();
      break;
    case KeyMode::kF64:
      im.F64Table();
      break;
    case KeyMode::kString:
      im.StrIndex();
      break;
  }
}

Bat JoinCand(const Bat& l, const CandidateList* lcands, const Bat& r,
             const CandidateList* rcands, const MorselExec& mx) {
  // Non-owning aliases: the one-shot build dies with this call, so the
  // caller's references safely outlive it.
  BatPtr rp(&r, [](const Bat*) {});
  std::shared_ptr<const CandidateList> rc;
  if (rcands != nullptr) {
    rc = std::shared_ptr<const CandidateList>(rcands,
                                              [](const CandidateList*) {});
  }
  return ProbePreparedJoin(
      l, lcands, *PrepareJoinBuild(std::move(rp), std::move(rc), mx), mx);
}

Bat Join(const Bat& l, const Bat& r, const MorselExec& mx) {
  return JoinCand(l, nullptr, r, nullptr, mx);
}

Bat JoinLegacy(const Bat& l, const Bat& r) {
  KernelTimer timer(KernelOp::kJoin);
  std::vector<size_t> lpos;
  std::vector<size_t> rpos;
  if (r.head().is_void()) {
    // Positional fetch join: l.tail holds oids into r's dense head.
    ValueType lt = Norm(l.tail().type());
    MIRROR_CHECK(lt == ValueType::kOid || lt == ValueType::kInt)
        << "fetch join needs oid-like probe tails";
    Oid base = r.head().void_base();
    size_t rn = r.size();
    for (size_t i = 0; i < l.size(); ++i) {
      uint64_t key = lt == ValueType::kInt
                         ? static_cast<uint64_t>(l.tail().IntAt(i))
                         : l.tail().OidAt(i);
      if (key < base) continue;
      uint64_t pos = key - base;
      if (pos >= rn) continue;
      lpos.push_back(i);
      rpos.push_back(static_cast<size_t>(pos));
    }
  } else {
    switch (PickKeyMode(l.tail(), r.head())) {
      case KeyMode::kI64:
      case KeyMode::kStrOffset:
        HashJoinPositions<int64_t>(
            l.size(), [&](size_t i) { return I64KeyAt(l.tail(), i); },
            r.size(), [&](size_t i) { return I64KeyAt(r.head(), i); }, &lpos,
            &rpos);
        break;
      case KeyMode::kF64:
        HashJoinPositions<double>(
            l.size(), [&](size_t i) { return F64KeyAt(l.tail(), i); },
            r.size(), [&](size_t i) { return F64KeyAt(r.head(), i); }, &lpos,
            &rpos);
        break;
      case KeyMode::kString:
        HashJoinPositions<std::string>(
            l.size(),
            [&](size_t i) { return std::string(l.tail().StrAt(i)); },
            r.size(),
            [&](size_t i) { return std::string(r.head().StrAt(i)); }, &lpos,
            &rpos);
        break;
    }
  }
  TrackKernelOp(KernelOp::kJoin, l.size() + r.size(), lpos.size());
  return Bat(l.head().Gather(lpos), r.tail().Gather(rpos));
}

namespace {

// Radix-clusters the membership keys once (same partitioned table the
// join build uses, shared read-only across probe morsels), then probes
// the candidate domain morsel by morsel.
template <typename K, typename ProbeKeyFn, typename KeysKeyFn>
CandidateList RadixMemberCand(size_t probe_n, ProbeKeyFn probe_key,
                              size_t keys_n, KeysKeyFn keys_key,
                              bool keep_members, const CandidateList* cands,
                              const MorselExec& mx) {
  // Bloom-gate the probe only when it is selective: with the probe domain
  // at least as large as the member-key set, misses are expected and the
  // filter pays for itself; a probe far smaller than the key set mostly
  // hits, where the filter is pure overhead.
  bool with_bloom = mx.bloom_probes && keys_n > 0 &&
                    DomainSize(probe_n, cands) >= keys_n;
  RadixTable<K> members = BuildRadixTable<K>(keys_n, nullptr, keys_key, mx,
                                             /*dedup_chains=*/true,
                                             with_bloom);
  return MorselizedPositions(
      probe_n, cands, mx, [&](const DomainSpan& dom, uint32_t* out) {
        uint64_t bloom_rejects = 0;
        const size_t kept = SelectInto(
            dom,
            [&](size_t i) {
              K key = probe_key(i);
              uint64_t h = RadixHash(key);
              size_t p = h & members.part_mask;
              bool in;
              if (members.bloom_words > 0 && BloomRejects(members, h, p)) {
                ++bloom_rejects;
                in = false;
              } else {
                in = RadixContainsHashed(members, key, h, p);
              }
              return in == keep_members;
            },
            out);
        if (bloom_rejects > 0) TrackBloomHits(bloom_rejects);
        return kept;
      });
}

// String keys across distinct heaps fall back to a spelling-keyed set.
template <typename ProbeKeyFn, typename KeysKeyFn>
CandidateList StringMemberCand(size_t probe_n, ProbeKeyFn probe_key,
                               size_t keys_n, KeysKeyFn keys_key,
                               bool keep_members, const CandidateList* cands,
                               const MorselExec& mx) {
  std::unordered_set<std::string> members;
  members.reserve(keys_n * 2);
  for (size_t i = 0; i < keys_n; ++i) members.insert(keys_key(i));
  return MorselizedPositions(
      probe_n, cands, mx, [&](const DomainSpan& dom, uint32_t* out) {
        return SelectInto(
            dom,
            [&](size_t i) {
              return (members.count(probe_key(i)) > 0) == keep_members;
            },
            out);
      });
}

CandidateList MembershipCand(const Column& probe, const Column& keys,
                             bool keep_members, const CandidateList* cands,
                             const MorselExec& mx) {
  switch (PickKeyMode(probe, keys)) {
    case KeyMode::kI64:
    case KeyMode::kStrOffset:
      return RadixMemberCand<int64_t>(
          probe.size(), [&](size_t i) { return I64KeyAt(probe, i); },
          keys.size(), [&](size_t i) { return I64KeyAt(keys, i); },
          keep_members, cands, mx);
    case KeyMode::kF64:
      return RadixMemberCand<double>(
          probe.size(), [&](size_t i) { return F64KeyAt(probe, i); },
          keys.size(), [&](size_t i) { return F64KeyAt(keys, i); },
          keep_members, cands, mx);
    case KeyMode::kString:
      return StringMemberCand(
          probe.size(), [&](size_t i) { return std::string(probe.StrAt(i)); },
          keys.size(), [&](size_t i) { return std::string(keys.StrAt(i)); },
          keep_members, cands, mx);
  }
  MIRROR_UNREACHABLE();
  return CandidateList();
}

// Materializing form: same position core, then one gather.
Bat FilterByMembership(const Bat& l, const Column& probe, const Column& keys,
                       bool keep_members, KernelOp op) {
  KernelTimer timer(op);
  CandidateList positions =
      MembershipCand(probe, keys, keep_members, nullptr, MorselExec{});
  TrackKernelOp(op, l.size() + keys.size(), positions.size());
  return GatherFragment(l, positions);
}

CandidateList FilterByMembershipCand(const Column& probe, const Column& keys,
                                     bool keep_members, KernelOp op,
                                     const CandidateList* cands,
                                     const MorselExec& mx) {
  KernelTimer timer(op);
  CandidateList out = MembershipCand(probe, keys, keep_members, cands, mx);
  TrackKernelOp(op, DomainSize(probe.size(), cands) + keys.size(),
                out.size());
  TrackCandidateOp();
  return out;
}

}  // namespace

Bat SemiJoinHead(const Bat& l, const Bat& r) {
  return FilterByMembership(l, l.head(), r.head(), /*keep_members=*/true,
                            KernelOp::kSemiJoin);
}

Bat AntiJoinHead(const Bat& l, const Bat& r) {
  return FilterByMembership(l, l.head(), r.head(), /*keep_members=*/false,
                            KernelOp::kAntiJoin);
}

Bat SemiJoinTail(const Bat& l, const Bat& r) {
  return FilterByMembership(l, l.tail(), r.tail(), /*keep_members=*/true,
                            KernelOp::kSemiJoin);
}

CandidateList SemiJoinHeadCand(const Bat& l, const Bat& r,
                               const CandidateList* lcands,
                               const MorselExec& mx) {
  return FilterByMembershipCand(l.head(), r.head(), /*keep_members=*/true,
                                KernelOp::kSemiJoin, lcands, mx);
}

CandidateList AntiJoinHeadCand(const Bat& l, const Bat& r,
                               const CandidateList* lcands,
                               const MorselExec& mx) {
  return FilterByMembershipCand(l.head(), r.head(), /*keep_members=*/false,
                                KernelOp::kAntiJoin, lcands, mx);
}

CandidateList SemiJoinTailCand(const Bat& l, const Bat& r,
                               const CandidateList* lcands,
                               const MorselExec& mx) {
  return FilterByMembershipCand(l.tail(), r.tail(), /*keep_members=*/true,
                                KernelOp::kSemiJoin, lcands, mx);
}

// ---------------------------------------------------------------------------
// Ordering and duplicates.

namespace {

std::vector<size_t> SortedPositions(const Column& tail, bool ascending) {
  std::vector<size_t> idx(tail.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  auto sort_by = [&](auto less) {
    std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
      return ascending ? less(a, b) : less(b, a);
    });
  };
  switch (tail.type()) {
    case ValueType::kVoid:
    case ValueType::kOid:
      sort_by([&](size_t a, size_t b) { return tail.OidAt(a) < tail.OidAt(b); });
      break;
    case ValueType::kInt:
      sort_by([&](size_t a, size_t b) { return tail.IntAt(a) < tail.IntAt(b); });
      break;
    case ValueType::kDbl:
      sort_by([&](size_t a, size_t b) { return tail.DblAt(a) < tail.DblAt(b); });
      break;
    case ValueType::kStr:
      sort_by([&](size_t a, size_t b) { return tail.StrAt(a) < tail.StrAt(b); });
      break;
  }
  return idx;
}

}  // namespace

Bat SortByTail(const Bat& b, bool ascending) {
  KernelTimer timer(KernelOp::kSort);
  TrackKernelOp(KernelOp::kSort, b.size(), b.size());
  return GatherBat(b, SortedPositions(b.tail(), ascending));
}

namespace {

// Bounded top-k selection: partial-sorts all n positions on
// (tail value, position), so ties break toward the earlier row — exactly
// the prefix a full stable sort would produce — in O(n log k) instead of
// O(n log n).
std::vector<size_t> TopPositions(const Column& tail, size_t k,
                                 bool ascending) {
  std::vector<size_t> idx(tail.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  auto top_by = [&](auto less) {
    std::partial_sort(idx.begin(), idx.begin() + static_cast<ptrdiff_t>(k),
                      idx.end(), [&](size_t a, size_t b) {
                        bool ab = ascending ? less(a, b) : less(b, a);
                        if (ab) return true;
                        bool ba = ascending ? less(b, a) : less(a, b);
                        if (ba) return false;
                        return a < b;
                      });
  };
  switch (tail.type()) {
    case ValueType::kVoid:
    case ValueType::kOid:
      top_by([&](size_t a, size_t b) { return tail.OidAt(a) < tail.OidAt(b); });
      break;
    case ValueType::kInt:
      top_by([&](size_t a, size_t b) { return tail.IntAt(a) < tail.IntAt(b); });
      break;
    case ValueType::kDbl:
      top_by([&](size_t a, size_t b) { return tail.DblAt(a) < tail.DblAt(b); });
      break;
    case ValueType::kStr:
      top_by([&](size_t a, size_t b) { return tail.StrAt(a) < tail.StrAt(b); });
      break;
  }
  idx.resize(k);
  return idx;
}

}  // namespace

Bat TopNByTail(const Bat& b, size_t n, bool descending) {
  KernelTimer timer(KernelOp::kTopN);
  std::vector<size_t> idx;
  if (n >= b.size()) {
    idx = SortedPositions(b.tail(), !descending);
  } else {
    idx = TopPositions(b.tail(), n, !descending);
  }
  TrackKernelOp(KernelOp::kTopN, b.size(), idx.size());
  return GatherBat(b, idx);
}

namespace {

// Dispatches `fn` with a (position, position) -> bool tail-value
// comparator of the column's type.
template <typename Fn>
void WithTailLess(const Column& tail, Fn fn) {
  switch (tail.type()) {
    case ValueType::kVoid:
    case ValueType::kOid:
      fn([&](size_t a, size_t b) { return tail.OidAt(a) < tail.OidAt(b); });
      break;
    case ValueType::kInt:
      fn([&](size_t a, size_t b) { return tail.IntAt(a) < tail.IntAt(b); });
      break;
    case ValueType::kDbl:
      fn([&](size_t a, size_t b) { return tail.DblAt(a) < tail.DblAt(b); });
      break;
    case ValueType::kStr:
      fn([&](size_t a, size_t b) { return tail.StrAt(a) < tail.StrAt(b); });
      break;
  }
}

}  // namespace

Bat TopNByTailCand(const Bat& b, const CandidateList* cands, size_t n,
                   bool descending, const MorselExec& mx,
                   TopKThreshold* topk) {
  KernelTimer timer(KernelOp::kTopN);
  if (cands != nullptr) {
    TrackFusedAgg();
    TrackCandidateOp();
  }
  size_t domain = DomainSize(b.size(), cands);
  std::vector<uint32_t> pos(domain);
  for (size_t i = 0; i < domain; ++i) {
    pos[i] =
        static_cast<uint32_t>(cands == nullptr ? i : cands->PositionAt(i));
  }
  // WAND-style threshold coupling, wired for descending dbl-tail
  // rankings. Prefilter: a candidate scoring strictly below the shared
  // bound scores strictly below the plan's final k'th score, so it can
  // never reach the merged top k — dropping it here cannot change the
  // final result (boundary ties score == k'th and survive). The kept
  // candidates preserve their relative order, so the position tie-break
  // downstream is unchanged.
  const Column& tail = b.tail();
  const bool wand = topk != nullptr && topk->k() > 0 && descending &&
                    tail.type() == ValueType::kDbl;
  if (wand) {
    double bound = topk->bound();
    if (bound > -std::numeric_limits<double>::infinity()) {
      size_t write = 0;
      for (size_t i = 0; i < pos.size(); ++i) {
        if (!(tail.DblAt(pos[i]) < bound)) pos[write++] = pos[i];
      }
      pos.resize(write);
    }
  }
  size_t m = pos.size();
  WithTailLess(b.tail(), [&](auto less) {
    // (tail value, position) ordering: exactly the prefix a full stable
    // sort of the materialized view would produce (ties break toward the
    // earlier candidate), independent of morsel boundaries.
    auto cmp = [&](uint32_t a, uint32_t c) {
      bool ac = descending ? less(c, a) : less(a, c);
      if (ac) return true;
      bool ca = descending ? less(a, c) : less(c, a);
      if (ca) return false;
      return a < c;
    };
    if (n >= m) {
      std::sort(pos.begin(), pos.end(), cmp);
      return;
    }
    size_t morsels = mx.MorselsFor(m);
    if (morsels <= 1) {
      std::partial_sort(pos.begin(), pos.begin() + static_cast<ptrdiff_t>(n),
                        pos.end(), cmp);
      pos.resize(n);
      return;
    }
    // Per-morsel top-n prefixes, computed in place on the disjoint
    // [lo, hi) ranges of `pos`, then compacted to the front (the write
    // cursor never passes a morsel's start) and reduced by one final
    // selection over the surviving <= morsels*n entries.
    size_t chunk = (m + morsels - 1) / morsels;
    std::vector<size_t> keeps(morsels);
    MorselFor(mx, "topn.morsel", mx.pool, morsels, [&](size_t j) {
      size_t lo = j * chunk;
      size_t hi = std::min(m, lo + chunk);
      size_t keep = std::min(n, hi - lo);
      std::partial_sort(pos.begin() + static_cast<ptrdiff_t>(lo),
                        pos.begin() + static_cast<ptrdiff_t>(lo + keep),
                        pos.begin() + static_cast<ptrdiff_t>(hi), cmp);
      keeps[j] = keep;
    });
    TrackMorselTasks(morsels);
    size_t write = 0;
    for (size_t j = 0; j < morsels; ++j) {
      size_t lo = j * chunk;
      std::copy(pos.begin() + static_cast<ptrdiff_t>(lo),
                pos.begin() + static_cast<ptrdiff_t>(lo + keeps[j]),
                pos.begin() + static_cast<ptrdiff_t>(write));
      write += keeps[j];
    }
    size_t keep = std::min(n, write);
    std::partial_sort(pos.begin(), pos.begin() + static_cast<ptrdiff_t>(keep),
                      pos.begin() + static_cast<ptrdiff_t>(write), cmp);
    pos.resize(keep);
  });
  // Deliberately no Offer here: the coupled aggregate already offered
  // every row this call reads. Offering them a second time would put
  // duplicate per-row scores in the threshold's heap and lift the bound
  // above the plan's true k'th score — an unsound prune. The TopN is a
  // pure threshold consumer.
  TrackKernelOp(KernelOp::kTopN, domain, pos.size());
  return GatherBat(b, pos);
}

namespace {

std::vector<size_t> FirstOccurrencePositions(const Column& c) {
  std::vector<size_t> out;
  switch (Norm(c.type())) {
    case ValueType::kOid:
    case ValueType::kInt:
    case ValueType::kStr: {
      std::unordered_set<int64_t> seen;
      for (size_t i = 0; i < c.size(); ++i) {
        if (seen.insert(I64KeyAt(c, i)).second) out.push_back(i);
      }
      break;
    }
    case ValueType::kDbl: {
      std::unordered_set<double> seen;
      for (size_t i = 0; i < c.size(); ++i) {
        if (seen.insert(c.DblAt(i)).second) out.push_back(i);
      }
      break;
    }
    default:
      MIRROR_UNREACHABLE();
  }
  return out;
}

}  // namespace

Bat UniqueTail(const Bat& b) {
  std::vector<size_t> positions = FirstOccurrencePositions(b.tail());
  TrackKernelOp(KernelOp::kUnique, b.size(), positions.size());
  return GatherBat(b, positions);
}

Bat UniqueHead(const Bat& b) {
  std::vector<size_t> positions = FirstOccurrencePositions(b.head());
  TrackKernelOp(KernelOp::kUnique, b.size(), positions.size());
  return GatherBat(b, positions);
}

// ---------------------------------------------------------------------------
// Grouping and aggregation.

namespace {

struct Acc {
  double sum = 0;
  double prod = 1;  // of x (kProd) or of 1 - x (kProbOr)
  int64_t count = 0;
  double max = 0;
  double min = 0;

  void Add(double x) {
    if (count == 0) {
      max = x;
      min = x;
    } else {
      max = std::max(max, x);
      min = std::min(min, x);
    }
    sum += x;
    prod *= x;
    count += 1;
  }

  void Merge(const Acc& other) {
    if (other.count == 0) return;
    if (count == 0) {
      *this = other;
      return;
    }
    sum += other.sum;
    prod *= other.prod;
    count += other.count;
    max = std::max(max, other.max);
    min = std::min(min, other.min);
  }
};

using GroupMap = std::unordered_map<int64_t, Acc>;

// The value row `i` feeds its group's accumulator: count reads no tail,
// and probor folds the complements (1 - prod(1 - x)).
double AccInput(const Column& tail, size_t i, AggKind kind) {
  switch (kind) {
    case AggKind::kCount:
      return 0.0;
    case AggKind::kProbOr:
      return 1.0 - tail.NumAt(i);
    default:
      return tail.NumAt(i);
  }
}

void AccumulateDomain(const Bat& b, const DomainSpan& dom, AggKind kind,
                      GroupMap* groups) {
  const Column& head = b.head();
  const Column& tail = b.tail();
  ForEachInDomain(dom, [&](size_t i) {
    (*groups)[I64KeyAt(head, i)].Add(AccInput(tail, i, kind));
  });
}

double FinishAcc(const Acc& acc, AggKind kind) {
  switch (kind) {
    case AggKind::kSum:
      return acc.sum;
    case AggKind::kMax:
      return acc.max;
    case AggKind::kMin:
      return acc.min;
    case AggKind::kAvg:
      return acc.sum / static_cast<double>(acc.count);
    case AggKind::kProd:
      return acc.prod;
    case AggKind::kProbOr:
      return 1.0 - acc.prod;
    case AggKind::kCount:
      break;  // counts finalize as ints, not through here
  }
  MIRROR_UNREACHABLE();
  return 0;
}

// Appends one finished group to the output columns.
void EmitGroup(const Acc& acc, AggKind kind, std::vector<int64_t>* out_int,
               std::vector<double>* out_dbl) {
  if (kind == AggKind::kCount) {
    out_int->push_back(acc.count);
  } else {
    out_dbl->push_back(FinishAcc(acc, kind));
  }
}

Column AggTail(AggKind kind, std::vector<int64_t> out_int,
               std::vector<double> out_dbl) {
  return kind == AggKind::kCount ? Column::MakeInts(std::move(out_int))
                                 : Column::MakeDbls(std::move(out_dbl));
}

Bat FinishGroups(const GroupMap& groups, AggKind kind, ValueType head_type) {
  std::vector<int64_t> keys;
  keys.reserve(groups.size());
  for (const auto& [k, v] : groups) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  std::vector<double> out_dbl;
  std::vector<int64_t> out_int;
  for (int64_t k : keys) EmitGroup(groups.at(k), kind, &out_int, &out_dbl);
  Column out_head =
      head_type == ValueType::kOid
          ? Column::MakeOids(std::vector<Oid>(keys.begin(), keys.end()))
          : Column::MakeInts(keys);
  return Bat(std::move(out_head),
             AggTail(kind, std::move(out_int), std::move(out_dbl)));
}

// Void-headed inputs have pairwise-distinct, ascending heads, so every
// group is a singleton and the group-by is a direct (oid, aggregate of
// one) construction: no hash table, no sort. Every kind but count yields
// the value itself (prod(x) and 1 - prod(1 - x) of one element are x).
// Candidate positions are ascending, so the output order (ascending head)
// falls out for free. Morsels write disjoint ranges of the pre-sized
// output vectors.
Bat SingletonGroupAgg(const Bat& b, const CandidateList* cands, AggKind kind,
                      const MorselExec& mx) {
  const Column& tail = b.tail();
  Oid base = b.head().void_base();
  size_t m = DomainSize(b.size(), cands);
  std::vector<Oid> heads(m);
  std::vector<double> vals;
  if (kind != AggKind::kCount) vals.resize(m);
  size_t morsels = mx.MorselsFor(m);
  size_t chunk = (m + morsels - 1) / std::max<size_t>(morsels, 1);
  MorselFor(mx, "agg.morsel", morsels <= 1 ? nullptr : mx.pool,
            std::max<size_t>(morsels, 1), [&](size_t j) {
                size_t lo = j * chunk;
                size_t hi = std::min(m, lo + chunk);
                for (size_t i = lo; i < hi; ++i) {
                  size_t pos = cands == nullptr ? i : cands->PositionAt(i);
                  heads[i] = base + pos;
                  if (kind != AggKind::kCount) vals[i] = tail.NumAt(pos);
                }
              });
  if (morsels > 1) TrackMorselTasks(morsels);
  std::vector<int64_t> ones;
  if (kind == AggKind::kCount) ones.assign(m, 1);
  return Bat(Column::MakeOids(std::move(heads)),
             AggTail(kind, std::move(ones), std::move(vals)));
}

// Top-k pruned variant of the singleton path, used when this aggregate is
// the sole producer of a descending top-k ranking: a row scoring strictly
// below the shared threshold loses to k rows the plan has already ranked,
// so it is dropped before the TopN ever reads it. Zone-map block upper
// bounds skip whole blocks — and via RangeMax whole morsels — without
// touching a row, and survivor scores feed straight back into the
// threshold so the bound rises during the scan itself.
Bat PrunedSingletonAgg(const Bat& b, const CandidateList* cands,
                       const MorselExec& mx, const ZoneMap* zones,
                       TopKThreshold* topk) {
  const Column& tail = b.tail();
  Oid base = b.head().void_base();
  size_t m = DomainSize(b.size(), cands);
  // Zone bounds map to row ranges only over a dense domain.
  bool dense = cands == nullptr || cands->is_dense();
  size_t dense_first = (cands != nullptr && dense) ? cands->first() : 0;
  const bool zoned = dense && zones != nullptr && zones->valid;
  size_t morsels = mx.MorselsFor(m);
  std::vector<std::vector<Oid>> headsf(morsels);
  std::vector<std::vector<double>> valsf(morsels);
  std::atomic<uint64_t> blocks_skipped{0};
  std::atomic<uint64_t> morsels_pruned{0};
  ParallelForChunks(
      morsels <= 1 ? nullptr : mx.pool, m, morsels,
      [&](size_t j, size_t lo, size_t hi) {
        if (lo >= hi) return;
        std::vector<Oid>& heads = headsf[j];
        std::vector<double>& vals = valsf[j];
        double bound = topk->bound();
        if (!zoned) {
          // No block bounds: per-row threshold test only.
          for (size_t i = lo; i < hi; ++i) {
            size_t pos = cands == nullptr ? i : cands->PositionAt(i);
            double x = tail.NumAt(pos);
            if (x < bound) continue;
            heads.push_back(base + pos);
            vals.push_back(x);
          }
          if (!vals.empty()) topk->Offer(vals);
          return;
        }
        size_t plo = dense_first + lo;
        size_t phi = dense_first + hi;
        if (zones->RangeMax(plo, phi) < bound) {
          // No row of this morsel can reach the top k.
          morsels_pruned.fetch_add(1, std::memory_order_relaxed);
          blocks_skipped.fetch_add(zones->BlocksIn(plo, phi),
                                   std::memory_order_relaxed);
          return;
        }
        size_t br = zones->block_rows;
        for (size_t blk = plo / br; blk * br < phi; ++blk) {
          size_t blo = std::max(plo, blk * br);
          size_t bhi = std::min(phi, (blk + 1) * br);
          if (zones->block_max[blk] < bound) {
            blocks_skipped.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          size_t run_start = vals.size();
          for (size_t pos = blo; pos < bhi; ++pos) {
            double x = tail.NumAt(pos);
            if (x < bound) continue;
            heads.push_back(base + pos);
            vals.push_back(x);
          }
          if (vals.size() > run_start) {
            topk->Offer(std::vector<double>(
                vals.begin() + static_cast<ptrdiff_t>(run_start),
                vals.end()));
            bound = topk->bound();
          }
        }
      });
  if (morsels > 1) TrackMorselTasks(morsels);
  uint64_t bs = blocks_skipped.load(std::memory_order_relaxed);
  uint64_t mp = morsels_pruned.load(std::memory_order_relaxed);
  if (bs > 0) TrackZoneBlocksSkipped(bs);
  if (mp > 0) TrackTopkMorselsPruned(mp);
  size_t total = 0;
  for (const std::vector<double>& f : valsf) total += f.size();
  std::vector<Oid> heads;
  std::vector<double> vals;
  heads.reserve(total);
  vals.reserve(total);
  for (size_t j = 0; j < morsels; ++j) {
    heads.insert(heads.end(), headsf[j].begin(), headsf[j].end());
    vals.insert(vals.end(), valsf[j].begin(), valsf[j].end());
  }
  return Bat(Column::MakeOids(std::move(heads)),
             Column::MakeDbls(std::move(vals)));
}

// Dense-array group-by for oid heads confined to [lo, hi): one Acc per
// possible oid, accumulated by direct index and emitted by a linear
// sweep. Accumulation is single-pass on the calling thread: the shard
// engine supplies parallelism across shards, and the array replaces both
// the per-morsel partial maps and their serial merge.
Bat DenseRangeAgg(const Bat& b, const CandidateList* cands, AggKind kind,
                  Oid lo, Oid hi) {
  const Column& head = b.head();
  const Column& tail = b.tail();
  std::vector<Acc> accs(static_cast<size_t>(hi - lo));
  ForEachInDomain(WholeDomain(b.size(), cands), [&](size_t i) {
    Oid h = head.OidAt(i);
    MIRROR_CHECK(h >= lo && h < hi) << "head oid outside the declared range";
    accs[h - lo].Add(AccInput(tail, i, kind));
  });
  size_t groups = 0;
  for (const Acc& a : accs) groups += a.count > 0 ? 1 : 0;
  std::vector<Oid> heads;
  heads.reserve(groups);
  std::vector<double> out_dbl;
  std::vector<int64_t> out_int;
  if (kind == AggKind::kCount) {
    out_int.reserve(groups);
  } else {
    out_dbl.reserve(groups);
  }
  for (size_t j = 0; j < accs.size(); ++j) {
    if (accs[j].count == 0) continue;
    heads.push_back(lo + j);
    EmitGroup(accs[j], kind, &out_int, &out_dbl);
  }
  return Bat(Column::MakeOids(std::move(heads)),
             AggTail(kind, std::move(out_int), std::move(out_dbl)));
}

}  // namespace

Bat AggregatePerHead(const Bat& b, const CandidateList* cands, AggKind kind,
                     const MorselExec& mx, const AggHints& hints) {
  const KernelOp op = kind == AggKind::kProd || kind == AggKind::kProbOr
                          ? KernelOp::kBelief
                          : KernelOp::kGroupAgg;
  KernelTimer timer(op);
  const Column& head = b.head();
  const Column& tail = b.tail();
  ValueType ht = Norm(head.type());
  MIRROR_CHECK(ht == ValueType::kOid || ht == ValueType::kInt)
      << "group head must be oid-like or int";
  if (kind != AggKind::kCount) {
    MIRROR_CHECK(IsNumericOrOid(tail.type()) &&
                 Norm(tail.type()) != ValueType::kOid)
        << "aggregate tail must be numeric";
  }
  if (cands != nullptr) {
    TrackFusedAgg();
    TrackCandidateOp();
  }
  size_t m = DomainSize(b.size(), cands);
  if (head.is_void()) {
    // Threshold coupling is dbl-tails only (scores); int tails beyond
    // 2^53 would compare differently as doubles downstream.
    const bool pruned = hints.topk != nullptr && hints.topk->k() > 0 &&
                        kind != AggKind::kCount &&
                        tail.type() == ValueType::kDbl;
    Bat out = pruned ? PrunedSingletonAgg(b, cands, mx, hints.tail_zones,
                                          hints.topk)
                     : SingletonGroupAgg(b, cands, kind, mx);
    TrackKernelOp(op, m, out.size());
    return out;
  }
  // The dense array pays only while the range is not much wider than the
  // domain; sparser ranges take the hash path below.
  size_t width = hints.head_hi > hints.head_lo
                     ? static_cast<size_t>(hints.head_hi - hints.head_lo)
                     : 0;
  if (head.type() == ValueType::kOid && width > 0 && width <= 8 * m + 1024) {
    Bat out = DenseRangeAgg(b, cands, kind, hints.head_lo, hints.head_hi);
    TrackKernelOp(op, m, out.size());
    return out;
  }
  size_t morsels = mx.MorselsFor(m);
  GroupMap groups;
  if (morsels <= 1) {
    groups.reserve(m);
    AccumulateDomain(b, WholeDomain(b.size(), cands), kind, &groups);
  } else {
    std::vector<GroupMap> partials(morsels);
    MorselFor(mx, "agg.morsel", mx.pool, morsels, [&](size_t j) {
      AccumulateDomain(b, MorselSpan(cands, m, morsels, j), kind,
                       &partials[j]);
    });
    TrackMorselTasks(morsels);
    // Partials merge in morsel order, so each group's fold order is fixed
    // for a given morsel size.
    groups = std::move(partials[0]);
    for (size_t j = 1; j < partials.size(); ++j) {
      for (const auto& [key, acc] : partials[j]) groups[key].Merge(acc);
    }
  }
  TrackKernelOp(op, m, groups.size());
  return FinishGroups(groups, kind, ht);
}

Bat CountPerTailValue(const Bat& b) {
  const Column& tail = b.tail();
  if (Norm(tail.type()) == ValueType::kStr) {
    // Group by heap offset (exact), then order lexicographically.
    std::unordered_map<uint32_t, int64_t> counts;
    for (size_t i = 0; i < b.size(); ++i) counts[tail.StrOffsetAt(i)]++;
    std::vector<uint32_t> offsets;
    offsets.reserve(counts.size());
    for (const auto& [off, n] : counts) offsets.push_back(off);
    std::sort(offsets.begin(), offsets.end(),
              [&](uint32_t a, uint32_t b2) {
                return tail.heap()->At(a) < tail.heap()->At(b2);
              });
    std::vector<int64_t> out_counts;
    out_counts.reserve(offsets.size());
    for (uint32_t off : offsets) out_counts.push_back(counts[off]);
    TrackKernelOp(KernelOp::kHistogram, b.size(), offsets.size());
    return Bat(Column::MakeStrsShared(tail.heap(), std::move(offsets)),
               Column::MakeInts(std::move(out_counts)));
  }
  if (tail.type() == ValueType::kDbl) {
    std::unordered_map<double, int64_t> counts;
    for (size_t i = 0; i < b.size(); ++i) counts[tail.DblAt(i)]++;
    std::vector<double> keys;
    keys.reserve(counts.size());
    for (const auto& [k, n] : counts) keys.push_back(k);
    std::sort(keys.begin(), keys.end());
    std::vector<int64_t> out_counts;
    for (double k : keys) out_counts.push_back(counts[k]);
    TrackKernelOp(KernelOp::kHistogram, b.size(), keys.size());
    return Bat(Column::MakeDbls(std::move(keys)),
               Column::MakeInts(std::move(out_counts)));
  }
  std::unordered_map<int64_t, int64_t> counts;
  for (size_t i = 0; i < b.size(); ++i) counts[I64KeyAt(tail, i)]++;
  std::vector<int64_t> keys;
  keys.reserve(counts.size());
  for (const auto& [k, n] : counts) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  std::vector<int64_t> out_counts;
  for (int64_t k : keys) out_counts.push_back(counts[k]);
  TrackKernelOp(KernelOp::kHistogram, b.size(), keys.size());
  Column out_head =
      Norm(tail.type()) == ValueType::kOid
          ? Column::MakeOids(std::vector<Oid>(keys.begin(), keys.end()))
          : Column::MakeInts(std::move(keys));
  return Bat(std::move(out_head), Column::MakeInts(std::move(out_counts)));
}

double ScalarSum(const Bat& b) {
  TrackKernelOp(KernelOp::kScalarAgg, b.size(), 1);
  double sum = 0;
  const Column& tail = b.tail();
  for (size_t i = 0; i < b.size(); ++i) sum += tail.NumAt(i);
  return sum;
}

int64_t ScalarCount(const Bat& b, const CandidateList* cands) {
  size_t m = DomainSize(b.size(), cands);
  TrackKernelOp(KernelOp::kScalarAgg, m, 1);
  if (cands != nullptr) {
    TrackFusedAgg();
    TrackCandidateOp();
  }
  return static_cast<int64_t>(m);
}

double ApplyFold(double a, double b, FoldOp op) {
  switch (op) {
    case FoldOp::kMax:
      return std::max(a, b);
    case FoldOp::kMin:
      return std::min(a, b);
    case FoldOp::kProd:
      return a * b;
    case FoldOp::kPor:
      return 1.0 - (1.0 - a) * (1.0 - b);
  }
  MIRROR_UNREACHABLE();
  return 0;
}

double FoldEmptyValue(FoldOp op) {
  return op == FoldOp::kProd ? 1.0 : 0.0;
}

double ScalarFold(const Bat& b, FoldOp op) {
  TrackKernelOp(KernelOp::kScalarAgg, b.size(), 1);
  if (b.empty()) return FoldEmptyValue(op);
  const Column& tail = b.tail();
  // Seeded from the first element (not an identity) so max/min are exact
  // over all-negative and all-positive inputs alike.
  double acc = tail.NumAt(0);
  for (size_t i = 1; i < b.size(); ++i) {
    acc = ApplyFold(acc, tail.NumAt(i), op);
  }
  return acc;
}

Value ScalarMax(const Bat& b) {
  TrackKernelOp(KernelOp::kScalarAgg, b.size(), 1);
  MIRROR_CHECK(!b.empty()) << "max of empty BAT";
  Value best = b.tail().ValueAt(0);
  for (size_t i = 1; i < b.size(); ++i) {
    Value v = b.tail().ValueAt(i);
    if (best < v) best = v;
  }
  return best;
}

Value ScalarMin(const Bat& b) {
  TrackKernelOp(KernelOp::kScalarAgg, b.size(), 1);
  MIRROR_CHECK(!b.empty()) << "min of empty BAT";
  Value best = b.tail().ValueAt(0);
  for (size_t i = 1; i < b.size(); ++i) {
    Value v = b.tail().ValueAt(i);
    if (v < best) best = v;
  }
  return best;
}

// ---------------------------------------------------------------------------
// Multiplexed arithmetic.

namespace {

double ApplyBin(double a, double b, BinOp op) {
  switch (op) {
    case BinOp::kAdd:
      return a + b;
    case BinOp::kSub:
      return a - b;
    case BinOp::kMul:
      return a * b;
    case BinOp::kDiv:
      return a / b;
    case BinOp::kMax:
      return std::max(a, b);
    case BinOp::kMin:
      return std::min(a, b);
    case BinOp::kPow:
      return std::pow(a, b);
  }
  MIRROR_UNREACHABLE();
  return 0;
}

int64_t ApplyBinInt(int64_t a, int64_t b, BinOp op) {
  switch (op) {
    case BinOp::kAdd:
      return a + b;
    case BinOp::kSub:
      return a - b;
    case BinOp::kMul:
      return a * b;
    case BinOp::kMax:
      return std::max(a, b);
    case BinOp::kMin:
      return std::min(a, b);
    default:
      MIRROR_UNREACHABLE();
      return 0;
  }
}

bool IntClosed(BinOp op) {
  return op == BinOp::kAdd || op == BinOp::kSub || op == BinOp::kMul ||
         op == BinOp::kMax || op == BinOp::kMin;
}

double ApplyUn(double x, UnOp op) {
  switch (op) {
    case UnOp::kLog:
      return std::log(x);
    case UnOp::kLog1p:
      return std::log1p(x);
    case UnOp::kExp:
      return std::exp(x);
    case UnOp::kSqrt:
      return std::sqrt(x);
    case UnOp::kNeg:
      return -x;
    case UnOp::kAbs:
      return std::fabs(x);
    case UnOp::kOneMinus:
      return 1.0 - x;
  }
  MIRROR_UNREACHABLE();
  return 0;
}

bool IsPlainNumeric(ValueType t) {
  return t == ValueType::kInt || t == ValueType::kDbl;
}

}  // namespace

double ApplyScalarBin(double a, double b, BinOp op) {
  return ApplyBin(a, b, op);
}

Bat MapBinary(const Bat& l, const Bat& r, BinOp op) {
  MIRROR_CHECK_EQ(l.size(), r.size());
  MIRROR_CHECK(IsPlainNumeric(l.tail().type()) &&
               IsPlainNumeric(r.tail().type()))
      << "multiplex arithmetic requires numeric tails";
  TrackKernelOp(KernelOp::kMultiplex, l.size() + r.size(), l.size());
  size_t n = l.size();
  if (l.tail().type() == ValueType::kInt &&
      r.tail().type() == ValueType::kInt && IntClosed(op)) {
    std::vector<int64_t> out(n);
    for (size_t i = 0; i < n; ++i) {
      out[i] = ApplyBinInt(l.tail().IntAt(i), r.tail().IntAt(i), op);
    }
    return Bat(l.head(), Column::MakeInts(std::move(out)));
  }
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = ApplyBin(l.tail().NumAt(i), r.tail().NumAt(i), op);
  }
  return Bat(l.head(), Column::MakeDbls(std::move(out)));
}

Bat MapBinaryScalar(const Bat& l, const Value& scalar, BinOp op) {
  MIRROR_CHECK(IsPlainNumeric(l.tail().type()));
  TrackKernelOp(KernelOp::kMultiplex, l.size(), l.size());
  size_t n = l.size();
  if (l.tail().type() == ValueType::kInt &&
      scalar.type() == ValueType::kInt && IntClosed(op)) {
    std::vector<int64_t> out(n);
    int64_t s = scalar.i();
    for (size_t i = 0; i < n; ++i) {
      out[i] = ApplyBinInt(l.tail().IntAt(i), s, op);
    }
    return Bat(l.head(), Column::MakeInts(std::move(out)));
  }
  std::vector<double> out(n);
  double s = scalar.AsDouble();
  for (size_t i = 0; i < n; ++i) {
    out[i] = ApplyBin(l.tail().NumAt(i), s, op);
  }
  return Bat(l.head(), Column::MakeDbls(std::move(out)));
}

Bat MapUnary(const Bat& b, UnOp op) {
  MIRROR_CHECK(IsPlainNumeric(b.tail().type()));
  TrackKernelOp(KernelOp::kMultiplex, b.size(), b.size());
  size_t n = b.size();
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = ApplyUn(b.tail().NumAt(i), op);
  return Bat(b.head(), Column::MakeDbls(std::move(out)));
}

Bat FillTail(const Bat& b, const Value& v) {
  TrackKernelOp(KernelOp::kMultiplex, b.size(), b.size());
  size_t n = b.size();
  switch (v.type()) {
    case ValueType::kInt:
      return Bat(b.head(), Column::MakeInts(std::vector<int64_t>(n, v.i())));
    case ValueType::kDbl:
      return Bat(b.head(), Column::MakeDbls(std::vector<double>(n, v.d())));
    case ValueType::kOid:
      return Bat(b.head(), Column::MakeOids(std::vector<Oid>(n, v.oid())));
    case ValueType::kStr: {
      auto heap = std::make_shared<StringHeap>();
      heap->Reserve(1, v.s().size() + 1);
      const uint32_t off = heap->Intern(v.s());
      return Bat(b.head(), Column::MakeStrsShared(
                               std::move(heap), std::vector<uint32_t>(n, off)));
    }
    default:
      MIRROR_UNREACHABLE();
      return b;
  }
}

// ---------------------------------------------------------------------------
// Mapped views.

namespace {

// `prev` (null: the empty chain over a tail of type `input`) plus `step`.
std::shared_ptr<const MapChain> Extend(const MapChain* prev, ValueType input,
                                       MapStep step) {
  auto chain = std::make_shared<MapChain>(
      prev != nullptr ? *prev : MapChain{input, {}});
  chain->steps.push_back(std::move(step));
  return chain;
}

}  // namespace

std::shared_ptr<const MapChain> MapChain::ThenBinary(const MapChain* prev,
                                                     ValueType input,
                                                     BinOp op,
                                                     const Value& scalar) {
  ValueType in = prev != nullptr ? prev->out_type() : input;
  if (!IsPlainNumeric(in) || !IsPlainNumeric(scalar.type())) return nullptr;
  MapStep step;
  step.bin_op = op;
  step.scalar = scalar;
  step.out = in == ValueType::kInt && scalar.type() == ValueType::kInt &&
                     IntClosed(op)
                 ? ValueType::kInt
                 : ValueType::kDbl;
  return Extend(prev, input, std::move(step));
}

std::shared_ptr<const MapChain> MapChain::ThenUnary(const MapChain* prev,
                                                    ValueType input,
                                                    UnOp op) {
  ValueType in = prev != nullptr ? prev->out_type() : input;
  if (!IsPlainNumeric(in)) return nullptr;
  MapStep step;
  step.unary = true;
  step.un_op = op;
  return Extend(prev, input, std::move(step));
}

namespace {

// Values per evaluation block: two buffers of this many 8-byte values stay
// L1-resident while a step runs over them.
constexpr size_t kMapBlock = 1024;

// Calls `fn(std::integral_constant<E, op>{})` for the runtime `op`, which
// must be one of `kOps`: a loop inside `fn` then sees a compile-time op,
// and ApplyBin's / ApplyUn's switch folds out of the loop body instead of
// running per element.
template <typename E, E... kOps, typename Fn>
void DispatchConstant(E op, Fn&& fn) {
  const bool matched =
      ((op == kOps && (fn(std::integral_constant<E, kOps>{}), true)) || ...);
  MIRROR_CHECK(matched) << "op outside the dispatched set";
}

void IntStep(BinOp op, int64_t c, int64_t* x, size_t n) {
  DispatchConstant<BinOp, BinOp::kAdd, BinOp::kSub, BinOp::kMul, BinOp::kMax,
                   BinOp::kMin>(op, [&](auto kop) {
    for (size_t k = 0; k < n; ++k) x[k] = ApplyBinInt(x[k], c, kop);
  });
}

void DblStep(BinOp op, double c, double* x, size_t n) {
  DispatchConstant<BinOp, BinOp::kAdd, BinOp::kSub, BinOp::kMul, BinOp::kDiv,
                   BinOp::kMax, BinOp::kMin, BinOp::kPow>(op, [&](auto kop) {
    for (size_t k = 0; k < n; ++k) x[k] = ApplyBin(x[k], c, kop);
  });
}

void UnaryStep(UnOp op, double* x, size_t n) {
  DispatchConstant<UnOp, UnOp::kLog, UnOp::kLog1p, UnOp::kExp, UnOp::kSqrt,
                   UnOp::kNeg, UnOp::kAbs, UnOp::kOneMinus>(op, [&](auto kop) {
    for (size_t k = 0; k < n; ++k) x[k] = ApplyUn(x[k], kop);
  });
}

// Copies the values at domain indexes [lo, lo+n) — rows of `src` when
// `cands` is null, the candidate positions otherwise — into `out`.
template <typename T>
void GatherBlock(std::span<const T> src, const CandidateList* cands,
                 size_t lo, size_t n, T* out) {
  if (cands == nullptr || cands->is_dense()) {
    size_t first = lo + (cands == nullptr ? 0 : cands->first());
    std::copy(src.begin() + static_cast<ptrdiff_t>(first),
              src.begin() + static_cast<ptrdiff_t>(first + n), out);
    return;
  }
  const uint32_t* pos = cands->sparse_positions().data() + lo;
  for (size_t k = 0; k < n; ++k) out[k] = src[pos[k]];
}

// Gathers the tail values at domain indexes [lo, lo+n) and runs `chain`
// over them in place, one step at a time. Values start in `ints` (int
// tail) or `dbls`; the first dbl step of an int chain moves them to `dbls`
// exactly as NumAt widens them. Returns true when the result is in `ints`.
bool EvalMappedBlock(const Column& tail, const CandidateList* cands,
                     const MapChain& chain, size_t lo, size_t n,
                     int64_t* ints, double* dbls) {
  bool in_int = tail.type() == ValueType::kInt;
  if (in_int) {
    GatherBlock(tail.ints(), cands, lo, n, ints);
  } else {
    GatherBlock(tail.dbls(), cands, lo, n, dbls);
  }
  for (const MapStep& step : chain.steps) {
    if (step.out == ValueType::kInt) {
      IntStep(step.bin_op, step.scalar.i(), ints, n);
      continue;
    }
    if (in_int) {
      for (size_t k = 0; k < n; ++k) dbls[k] = static_cast<double>(ints[k]);
      in_int = false;
    }
    if (step.unary) {
      UnaryStep(step.un_op, dbls, n);
    } else {
      DblStep(step.bin_op, step.scalar.AsDouble(), dbls, n);
    }
  }
  return in_int;
}

// Runs `fold(acc, values, n)` over the mapped values at domain indexes
// [lo, hi) in index order, one block at a time (values widened to double
// as NumAt widens them).
template <typename Fold>
double FoldMappedRange(const Column& tail, const CandidateList* cands,
                       const MapChain& chain, size_t lo, size_t hi,
                       double acc, Fold fold) {
  int64_t ints[kMapBlock];
  double dbls[kMapBlock];
  for (size_t b = lo; b < hi; b += kMapBlock) {
    size_t n = std::min(kMapBlock, hi - b);
    if (EvalMappedBlock(tail, cands, chain, b, n, ints, dbls)) {
      for (size_t k = 0; k < n; ++k) dbls[k] = static_cast<double>(ints[k]);
    }
    acc = fold(acc, dbls, n);
  }
  return acc;
}

// Per-step multiplex accounting of one evaluation of `chain` over `m`
// values: the counts the materializing map kernels would have recorded.
void TrackMappedSteps(const MapChain& chain, size_t m) {
  for (size_t s = 0; s < chain.steps.size(); ++s) {
    TrackKernelOp(KernelOp::kMultiplex, m, m);
  }
}

// Accounting shared by the scalar view aggregates: a view (candidate or
// mapped) counts as one fused candidate operator; a whole BAT does not.
void TrackScalarView(const CandidateList* cands, const MapChain& chain,
                     bool mapped, size_t m) {
  TrackKernelOp(KernelOp::kScalarAgg, m, 1);
  if (cands != nullptr || mapped) {
    TrackFusedAgg();
    TrackCandidateOp();
  }
  TrackMappedSteps(chain, m);
}

// The identity chain over `b`'s tail: what a view without map steps
// evaluates.
MapChain IdentityChain(const Bat& b) {
  return MapChain{
      b.tail().type() == ValueType::kInt ? ValueType::kInt : ValueType::kDbl,
      {}};
}

}  // namespace

double ScalarSumMapped(const Bat& b, const CandidateList* cands,
                       const MapChain* map, const MorselExec& mx) {
  size_t m = DomainSize(b.size(), cands);
  KernelTimer timer(KernelOp::kScalarAgg);
  const MapChain identity = IdentityChain(b);
  const MapChain& chain = map != nullptr ? *map : identity;
  TrackScalarView(cands, chain, map != nullptr, m);
  auto sum_range = [&](size_t lo, size_t hi) {
    return FoldMappedRange(b.tail(), cands, chain, lo, hi, 0.0,
                           [](double acc, const double* v, size_t n) {
                             for (size_t k = 0; k < n; ++k) acc += v[k];
                             return acc;
                           });
  };
  size_t morsels = mx.MorselsFor(m);
  if (morsels <= 1) return sum_range(0, m);
  std::vector<double> partial(morsels, 0.0);
  MorselForChunks(mx, "agg.morsel", mx.pool, m, morsels,
                  [&](size_t j, size_t lo, size_t hi) {
                    partial[j] = sum_range(lo, hi);
                  });
  TrackMorselTasks(morsels);
  // Partials added in morsel order: deterministic for a fixed morsel
  // size (though rounding may differ from the single-pass order).
  double sum = 0;
  for (double p : partial) sum += p;
  return sum;
}

double ScalarFoldMapped(const Bat& b, const CandidateList* cands,
                        const MapChain* map, FoldOp op,
                        const MorselExec& mx) {
  size_t m = DomainSize(b.size(), cands);
  KernelTimer timer(KernelOp::kScalarAgg);
  const MapChain identity = IdentityChain(b);
  const MapChain& chain = map != nullptr ? *map : identity;
  TrackScalarView(cands, chain, map != nullptr, m);
  if (m == 0) return FoldEmptyValue(op);
  // Seeded from the range's first value (not an identity) so max/min are
  // exact over all-negative and all-positive inputs alike; `lo < hi`.
  auto fold_range = [&](size_t lo, size_t hi) {
    bool seeded = false;
    return FoldMappedRange(
        b.tail(), cands, chain, lo, hi, 0.0,
        [&](double acc, const double* v, size_t n) {
          size_t k = 0;
          if (!seeded) {
            acc = v[k++];
            seeded = true;
          }
          DispatchConstant<FoldOp, FoldOp::kMax, FoldOp::kMin, FoldOp::kProd,
                           FoldOp::kPor>(op, [&](auto kop) {
            for (; k < n; ++k) acc = ApplyFold(acc, v[k], kop);
          });
          return acc;
        });
  };
  size_t morsels = mx.MorselsFor(m);
  if (morsels <= 1) return fold_range(0, m);
  std::vector<double> partial(morsels, 0.0);
  std::vector<char> nonempty(morsels, 0);
  MorselForChunks(mx, "agg.morsel", mx.pool, m, morsels,
                  [&](size_t j, size_t lo, size_t hi) {
                    if (lo >= hi) return;
                    partial[j] = fold_range(lo, hi);
                    nonempty[j] = 1;
                  });
  TrackMorselTasks(morsels);
  // Merging partials in morsel order: exact for max/min (truly
  // order-insensitive); for prod/por the regrouping ((a·b)·(c·d) vs
  // (((a·b)·c)·d) can differ from the single-pass fold in the last ulp,
  // like the morselized sum's partial sums — within the fuzz harness's
  // 1e-9, not bit-exact.
  bool seeded = false;
  double acc = 0;
  for (size_t j = 0; j < morsels; ++j) {
    if (nonempty[j] == 0) continue;
    acc = seeded ? ApplyFold(acc, partial[j], op) : partial[j];
    seeded = true;
  }
  return seeded ? acc : FoldEmptyValue(op);
}

Bat MaterializeMapped(const Bat& b, const CandidateList* cands,
                      const MapChain& chain, const MorselExec& mx) {
  size_t m = DomainSize(b.size(), cands);
  KernelTimer timer(cands != nullptr ? KernelOp::kMaterialize
                                     : KernelOp::kMultiplex);
  if (cands != nullptr) {
    TrackKernelOp(KernelOp::kMaterialize, m, m);
    TrackMaterialization(m);
  }
  TrackMappedSteps(chain, m);
  const Column& head = b.head();
  // Under sparse candidates, void and oid heads gather alongside the
  // tail; other head types (rare under a candidate view) take the generic
  // column gather. A dense range views the head.
  const bool gather_oids =
      cands != nullptr && !cands->is_dense() &&
      (head.type() == ValueType::kVoid || head.type() == ValueType::kOid);
  std::vector<Oid> oids(gather_oids ? m : 0);
  const bool int_out = chain.out_type() == ValueType::kInt;
  std::vector<int64_t> out_ints(int_out ? m : 0);
  std::vector<double> out_dbls(int_out ? 0 : m);
  auto fill = [&](size_t lo, size_t hi) {
    int64_t ints[kMapBlock];
    double dbls[kMapBlock];
    for (size_t blk = lo; blk < hi; blk += kMapBlock) {
      size_t n = std::min(kMapBlock, hi - blk);
      // The block evaluates straight into the output where the chain's
      // result lands; the other buffer is scratch.
      EvalMappedBlock(b.tail(), cands, chain, blk, n,
                      int_out ? out_ints.data() + blk : ints,
                      int_out ? dbls : out_dbls.data() + blk);
    }
    if (gather_oids) {
      for (size_t k = lo; k < hi; ++k) {
        oids[k] = head.OidAt(cands->PositionAt(k));
      }
    }
  };
  size_t morsels = mx.MorselsFor(m);
  if (morsels <= 1) {
    fill(0, m);
  } else {
    MorselForChunks(mx, "materialize.morsel", mx.pool, m, morsels,
                    [&](size_t, size_t lo, size_t hi) {
                      if (!mx.Aborted()) fill(lo, hi);
                    });
    TrackMorselTasks(morsels);
  }
  auto out_head = [&]() -> Column {
    if (cands == nullptr) return head;
    if (gather_oids) return Column::MakeOids(std::move(oids));
    return cands->is_dense() ? head.View(cands->first(), cands->size())
                             : head.Gather(cands->sparse_positions());
  };
  Bat out(out_head(), int_out ? Column::MakeInts(std::move(out_ints))
                              : Column::MakeDbls(std::move(out_dbls)));
  mx.Charge(ApproxBatBytes(out));
  return out;
}

}  // namespace mirror::monet
