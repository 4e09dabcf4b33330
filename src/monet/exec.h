#ifndef MIRROR_MONET_EXEC_H_
#define MIRROR_MONET_EXEC_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "monet/cache_info.h"
#include "monet/candidate.h"
#include "monet/mil.h"

namespace mirror::monet {
class Recycler;    // monet/recycler.h
class QueryTrace;  // monet/trace.h
}  // namespace mirror::monet

namespace mirror::monet::mil {

/// Tuning knobs of the vectorized execution engine. Defaults adapt to
/// the host (see num_threads).
struct ExecOptions {
  /// Worker threads scheduling MIL instructions AND morsels within one
  /// instruction. 0 means "auto": std::thread::hardware_concurrency(),
  /// clamped back to 1 when the plan offers no parallelism to exploit
  /// (DAG width < 2 and no morsel-eligible operator), so short serial
  /// plans on small hosts skip the scheduling overhead entirely.
  /// 1 executes in program order on the calling thread (no pool). Any
  /// n > 1 grows the process-wide pool (SharedWorkerPool) to n threads;
  /// every session shares it and it never shrinks, so the engine runs
  /// at most the largest count any session asks for.
  int num_threads = 0;
  /// Morsel granularity for intra-operator parallelism: a hot kernel
  /// (select family, semijoin probes, join clustering and probes,
  /// materializing gathers, candidate-aware aggregates) whose input
  /// domain exceeds this many tuples is split into ceil(n / morsel_size)
  /// morsels dispatched on the shared worker pool. The default derives
  /// from the detected L2 size (cache_info.h) so one morsel's working
  /// set stays cache-resident. 0 disables morsel splitting. Only
  /// effective when more than one worker thread is in play.
  size_t morsel_size = DefaultMorselSize();
  /// Radix partition count for join build sides: 0 derives it from the
  /// estimated L2 budget; an explicit power of two forces it (tests use
  /// this to exercise multi-partition clustering on small inputs).
  size_t radix_partitions = 0;
  /// Shard-parallel execution: when > 1 (and the catalog is non-null),
  /// the engine runs the program over the catalog's N-way oid-range
  /// sharding (`Catalog::Shards`, built lazily on first use). Shard-local
  /// instructions — the select family, semijoins against co-sharded or
  /// replicated sides, joins probing a shared build table, per-head
  /// aggregates, row-aligned maps — fan out one task per shard over the
  /// shared worker pool and leave per-shard fragments in place; fan-in
  /// instructions (scalar folds, TopN, sorts, multiplex maps over
  /// independently derived sides, cross-shard join build sides) gather
  /// fragments order-preservingly first. Results are identical to the
  /// unsharded engine (fragment heads live in disjoint ascending oid
  /// ranges, so concatenation in shard order IS the global value). 0 and
  /// 1 run unsharded; MirrorDb fills in its default shard count for 0
  /// when the database was opened with LoadSharded.
  size_t num_shards = 0;
  /// When true, catalog zone maps (per-block min/max, built at load time)
  /// prune selections block-wise and bound dense per-head aggregation
  /// ranges; results are identical (pruned blocks provably contain no
  /// qualifying row). When false, every block is scanned — the baseline
  /// for the pruning benchmarks.
  bool zone_maps = true;
  /// When true, ranking plans (prob-aggregate feeding a sole-consumer
  /// descending topN) share a WAND-style rising top-k threshold: the
  /// aggregate drops rows — and with zone maps, skips blocks, morsels and
  /// whole shards — that provably cannot enter the final top k. The
  /// ranked result stays bit-identical, including stable tie order. When
  /// false, ranking plans run unpruned.
  bool topk_prune = true;
  /// Cooperative per-query deadline in milliseconds; 0 disables. The
  /// engine stamps steady_clock::now() + deadline at Run() entry and
  /// checks it at every instruction boundary (sequential, DAG and shard
  /// schedulers) and inside the morsel drivers; an expired query returns
  /// StatusCode::kDeadlineExceeded instead of a result. The daemon
  /// exposes it as the per-session `SET exec.query_deadline_ms` knob.
  uint64_t query_deadline_ms = 0;
  /// Per-query memory budget in bytes; 0 disables enforcement. The engine
  /// threads an atomic byte counter through MorselExec: materializing
  /// gathers, join build arrays and register stores charge approximate
  /// output bytes, morsel drivers stop once the total passes the budget,
  /// and the query returns StatusCode::kResourceExhausted at the next
  /// instruction boundary (the session survives, like a deadline). The
  /// daemon exposes it as `SET exec.memory_budget_bytes`. Peak usage per
  /// query is tracked in KernelStats.peak_query_bytes either way.
  uint64_t memory_budget_bytes = 0;
  /// When true AND `recycler` is set, base-BAT selects whose interval is
  /// cacheable (SelectInterval::cacheable: not neq, str or empty) consult
  /// the server-wide recycler: an exact match replays the cached candidate
  /// list, a subsuming cached interval seeds the select as a pre-filter
  /// domain, and misses publish their list for future queries. The
  /// daemon exposes it as `SET exec.recycle`; results stay bit-identical
  /// either way.
  bool recycle = true;
  /// The server-wide recycler, owned by MirrorDb; null runs without one
  /// (direct engine users, the sharded path — shard-local candidate
  /// positions don't compose across layouts).
  Recycler* recycler = nullptr;
  /// Recycler generation captured at query start (before any catalog
  /// reads); lookups and inserts carrying a stale generation are refused.
  uint64_t recycler_generation = 0;
  /// When true AND `trace_sink` is set, the engine Clear()s the sink at
  /// Run() entry and records one span per executed MIL instruction (per
  /// shard when sharded) plus per-morsel spans from the parallel kernel
  /// drivers; the caller merges the sink after Run() returns (see
  /// monet/trace.h). The daemon exposes it as `SET exec.trace`. With the
  /// knob off, execution pays one null-pointer branch per instruction.
  bool trace = false;
  /// The per-query span sink, owned by the caller (the daemon keeps one
  /// per session); null disables tracing regardless of `trace`.
  QueryTrace* trace_sink = nullptr;
};

/// One register during execution: a materialized BAT, an unmaterialized
/// candidate view over a base BAT (`bat` + `cands`), a mapped view (`bat`,
/// optional `cands`, plus the scalar map arithmetic still to apply to its
/// tail), or a scalar.
struct RegValue {
  BatPtr bat;
  std::shared_ptr<const CandidateList> cands;  // set iff candidate view
  std::shared_ptr<const MapChain> map;         // set iff mapped view
  double scalar = 0;
  bool is_scalar = false;
  bool written = false;

  bool is_candidate() const { return cands != nullptr; }
  bool is_mapped() const { return map != nullptr; }
  void Clear() { *this = RegValue(); }
};

/// Session-scoped execution state: the per-query register file (reused
/// across runs to avoid reallocation) and the plan cache MirrorDb::Query
/// keys by normalized query text, options and bindings, so repeated Moa
/// queries skip compilation entirely.
///
/// The plan cache admits a plan on the second sighting of its key. Keys
/// carry the query's bindings, so a session serving ad-hoc queries (fresh
/// terms on every request) would otherwise fill all kMaxPlans slots with
/// plans that never hit. The keys compiled once are remembered as 64-bit
/// hashes in a ring of kMaxPlans slots, oldest overwritten first; a
/// collision can only admit a plan early, never serve a wrong one, since
/// plans_ keeps full keys. The ring survives InvalidatePlans(): how
/// often a query is asked does not change with the data.
///
/// One context serves one session: a single query runs on it at a time
/// (the process-wide worker pool parallelizes WITHIN that query; the
/// context owns no threads). The plan
/// cache itself is thread-safe. Cached plans are valid for the lifetime of
/// the loaded database; re-loading a set must invalidate them —
/// automatic for sessions registered via MirrorDb::RegisterSession,
/// manual (InvalidatePlans()) otherwise.
class ExecutionContext {
 public:
  ExecutionContext() = default;
  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  /// Collapses whitespace runs so formatting differences don't defeat the
  /// cache: the canonical cache-key form of a query or program text.
  static std::string NormalizeText(std::string_view text);

  /// Looks up a cached plan; null on miss. Counts toward hit statistics.
  std::shared_ptr<const Program> CachedPlan(const std::string& key) const;

  /// Takes a freshly compiled plan for `key` and returns it shared. The
  /// plan is cached (replacing any previous entry) when `key` was
  /// compiled before; a first sighting only records the key.
  std::shared_ptr<const Program> CachePlan(const std::string& key,
                                           Program program);

  /// Drops every cached plan (call after schema or data reloads).
  void InvalidatePlans();

  size_t plan_cache_size() const;
  uint64_t plan_cache_hits() const { return hits_; }
  uint64_t plan_cache_lookups() const { return lookups_; }

  /// Plan-cache capacity, and the number of compiled-once keys
  /// remembered; arbitrary entries are evicted beyond it.
  static constexpr size_t kMaxPlans = 256;

 private:
  friend class ExecutionEngine;

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const Program>> plans_;
  std::vector<uint64_t> seen_;  // ring of key hashes, at most kMaxPlans
  size_t seen_next_ = 0;        // the slot the next sighting overwrites
  mutable uint64_t hits_ = 0;
  mutable uint64_t lookups_ = 0;

  /// Scratch register file borrowed by ExecutionEngine::Run.
  std::vector<RegValue> regs_;
};

/// True for the opcodes the engine can run over candidate vectors (the
/// select/semijoin/slice family).
bool IsCandidatePipelineOp(OpCode op);

/// True for the unary opcodes whose output provably stays inside the
/// input's shard fragment (rows subset or map 1:1, head oids preserved),
/// so the shard engine runs them shard-locally without a gather.
/// Semijoins, joins, topN and scalar folds fan out too but under side
/// conditions the engine checks at run time.
bool IsShardLocalUnaryOp(OpCode op);

/// Data-flow MIL executor: builds the SSA register dependency DAG of a
/// Program and schedules independent instructions across a worker pool;
/// within an instruction, hot kernels split large inputs into morsels on
/// the same pool. The selection family runs over candidate vectors,
/// scalar map arithmetic extends them into mapped views, and aggregates
/// fuse onto both, leaving explicit materialization only at the true
/// pipeline breakers (sort, column-column arithmetic, result delivery).
///
/// The only production interpreter. The stateless sequential `Executor`
/// (monet/mil.h) is reached by no production path or knob: it stays as
/// the MIL-level test oracle and the E3 benchmark baseline.
class ExecutionEngine {
 public:
  /// The catalog must outlive the engine. May be null if programs use no
  /// kLoadNamed.
  explicit ExecutionEngine(const Catalog* catalog,
                           ExecOptions options = ExecOptions())
      : catalog_(catalog), options_(options) {}

  /// Runs `program`, borrowing `ctx`'s register file (a local scratch
  /// context is used when null) and scheduling on SharedWorkerPool()
  /// either way. Returns the result register's value, materialized.
  base::Result<RunResult> Run(const Program& program,
                              ExecutionContext* ctx = nullptr) const;

  const ExecOptions& options() const { return options_; }

 private:
  const Catalog* catalog_;
  ExecOptions options_;
};

}  // namespace mirror::monet::mil

#endif  // MIRROR_MONET_EXEC_H_
