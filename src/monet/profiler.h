#ifndef MIRROR_MONET_PROFILER_H_
#define MIRROR_MONET_PROFILER_H_

#include <chrono>
#include <cstdint>
#include <string>

namespace mirror::monet {

/// Kernel operator families, for profiling. Every BAT operator reports to
/// the global `KernelStats`; the optimizer experiments (E2) and kernel
/// microbenchmarks (E10) read these counters to report "BAT operations
/// executed" and "tuples touched" alongside wall-clock time.
enum class KernelOp : int {
  kSelect = 0,
  kJoin,
  kSemiJoin,
  kAntiJoin,
  kReverse,
  kMirror,
  kMark,
  kSort,
  kTopN,
  kUnique,
  kGroupAgg,
  kScalarAgg,
  kMultiplex,
  kConcat,
  kSlice,
  kHistogram,
  kBelief,
  kMaterialize,  // candidate list -> BAT tuple copies (pipeline breakers)
  kNumOps,       // sentinel
};

/// Stable name of a kernel op family ("join", "select", ...).
const char* KernelOpName(KernelOp op);

/// How a scalar kernel counter folds across the per-thread stripes:
/// kSum adds the stripes' partial counts, kMax keeps the largest (a
/// high-water mark).
enum class KernelFold : uint8_t { kSum, kMax };

/// The scalar kernel counters, one row each: X(name, fold). The table
/// generates the KernelStats fields, the striped process-wide
/// accumulators, their fold in SnapshotKernelStats, ResetKernelStats and
/// the scalar part of KernelStats::ToString; a new counter is one row
/// here plus its Track* increment.
#define MIRROR_KERNEL_COUNTERS(X)                                             \
  /* Tuples consumed and produced, over every operator invocation. */         \
  X(tuples_in, kSum)                                                          \
  X(tuples_out, kSum)                                                         \
  /* Late materialization: invocations that produced or consumed a            \
     CandidateList without copying tuples, vs. explicit Materialize()         \
     copies at pipeline breakers (calls, and tuples copied). */               \
  X(candidate_ops, kSum)                                                      \
  X(materializations, kSum)                                                   \
  X(materialized_tuples, kSum)                                                \
  /* Intra-operator parallelism: morsel tasks dispatched on the worker        \
     pool, and aggregates fused over a candidate view (no Materialize). */    \
  X(morsel_tasks, kSum)                                                       \
  X(fused_agg_ops, kSum)                                                      \
  /* Hash build sides radix-clustered into more than one cache-sized          \
     partition, and the partitions built across them. */                      \
  X(radix_builds, kSum)                                                       \
  X(radix_partitions, kSum)                                                   \
  /* Bloom filters built in front of radix member tables, and probe keys      \
     they rejected without touching the bucket chains. */                     \
  X(bloom_builds, kSum)                                                       \
  X(bloom_hits, kSum)                                                         \
  /* Instructions fanned out across shard-local fragments, and sharded        \
     registers gathered back into one global value at fan-in. */              \
  X(shard_fanouts, kSum)                                                      \
  X(shard_fanins, kSum)                                                       \
  /* Statistics-driven pruning: zone-map blocks proven dead by min/max        \
     bounds, morsels and whole shards below the shared top-k threshold,       \
     and probe partitions for partition-wise join scheduling. */              \
  X(zone_blocks_skipped, kSum)                                                \
  X(topk_morsels_pruned, kSum)                                                \
  X(topk_shards_pruned, kSum)                                                 \
  X(probe_partitions, kSum)                                                   \
  /* Largest single query's approximate materialized bytes (MorselExec        \
     memory accounting) since the last reset. */                              \
  X(peak_query_bytes, kMax)

/// Aggregated kernel execution counters: per-family operation counts and
/// wall time, then one field per MIRROR_KERNEL_COUNTERS row.
struct KernelStats {
  uint64_t op_count[static_cast<int>(KernelOp::kNumOps)] = {};
  /// Wall time spent inside each operator family, in nanoseconds
  /// (operators report through KernelTimer).
  uint64_t wall_nanos[static_cast<int>(KernelOp::kNumOps)] = {};
#define MIRROR_KERNEL_FIELD(name, fold) uint64_t name = 0;
  MIRROR_KERNEL_COUNTERS(MIRROR_KERNEL_FIELD)
#undef MIRROR_KERNEL_FIELD

  /// Total operator invocations across all families.
  uint64_t TotalOps() const;

  /// Total operator wall time across all families, in nanoseconds.
  uint64_t TotalWallNanos() const;

  /// Zeroes all counters.
  void Reset();

  /// One-line summary: the per-family counts, then every nonzero table
  /// row, e.g. "ops=5 (join=3 select=2) tuples_in=4096 tuples_out=512".
  std::string ToString() const;
};

/// Mutations of the process-wide counters go through the Track* functions
/// below. The counters are sharded into cache-line-sized stripes of
/// relaxed atomics, each recording thread bound to one stripe: a Track*
/// call is a handful of uncontended relaxed adds, never a lock — kernel
/// operators run concurrently on the ExecutionEngine's worker pool and
/// the old single stats mutex was the one global serialization point left
/// on the hot path. SnapshotKernelStats() folds the stripes into one
/// KernelStats value; reading while a query runs yields a
/// consistent-enough snapshot for reporting.

/// Zeroes every process-wide counter. Counts tracked concurrently with
/// the reset may survive it; callers quiesce their own kernels first.
void ResetKernelStats();

/// Records one operator execution with its input/output cardinalities.
void TrackKernelOp(KernelOp op, uint64_t tuples_in, uint64_t tuples_out);

/// Adds operator wall time to a family (use KernelTimer rather than
/// calling this directly).
void TrackKernelTime(KernelOp op, uint64_t nanos);

/// Records one candidate-producing/consuming kernel invocation (no tuple
/// copy happened).
void TrackCandidateOp();

/// Records one Materialize() call copying `tuples` tuples out of a
/// candidate pipeline.
void TrackMaterialization(uint64_t tuples);

/// Records a kernel splitting its input into `tasks` morsels dispatched
/// on the worker pool.
void TrackMorselTasks(uint64_t tasks);

/// Records one aggregate that consumed a candidate view directly
/// (fused gather+aggregate; no tuple copy happened).
void TrackFusedAgg();

/// Records one hash build side radix-clustered into `partitions` > 1
/// cache-sized partitions (single-partition builds are not counted).
void TrackRadixBuild(uint64_t partitions);

/// Records one per-partition Bloom filter built over a membership table.
void TrackBloomBuild();

/// Records `rejects` probe keys short-circuited by a Bloom filter
/// (accumulated per probe morsel, not per key).
void TrackBloomHits(uint64_t rejects);

/// Records one instruction executed shard-locally across shard fragments.
void TrackShardFanout();

/// Records one sharded register gathered into a global value (fan-in).
void TrackShardFanin();

/// Records `blocks` zone-map blocks skipped by min/max pruning.
void TrackZoneBlocksSkipped(uint64_t blocks);

/// Records `morsels` aggregate morsels skipped by the top-k threshold.
void TrackTopkMorselsPruned(uint64_t morsels);

/// Records one whole shard pruned by the top-k threshold.
void TrackTopkShardPruned();

/// Records one probe side radix-clustered into `partitions` partitions
/// for partition-wise join scheduling.
void TrackProbePartitions(uint64_t partitions);

/// Raises the peak per-query memory high-water mark to `bytes` if larger
/// (called once per query with its final charged total).
void TrackPeakQueryBytes(uint64_t bytes);

/// Copy of the process-wide counters (stripes folded with relaxed loads —
/// safe to call while kernels run).
KernelStats SnapshotKernelStats();

/// The counter subset the query tracer (monet/trace.h) deltas around each
/// instruction span. Folding six fields across the stripes is cheap
/// enough to do per span; a full SnapshotKernelStats per span would not
/// be.
struct TraceCounterSnapshot {
  uint64_t tuples_in = 0;
  uint64_t tuples_out = 0;
  uint64_t morsel_tasks = 0;
  uint64_t zone_blocks_skipped = 0;
  uint64_t topk_pruned = 0;  // morsels + whole shards
  uint64_t bloom_hits = 0;
};
TraceCounterSnapshot SnapshotTraceCounters();

/// Scoped wall-time attribution to one operator family. Place at the top
/// of an operator body; destruction adds the elapsed time.
class KernelTimer {
 public:
  explicit KernelTimer(KernelOp op)
      : op_(op), start_(std::chrono::steady_clock::now()) {}
  KernelTimer(const KernelTimer&) = delete;
  KernelTimer& operator=(const KernelTimer&) = delete;
  ~KernelTimer() {
    auto elapsed = std::chrono::steady_clock::now() - start_;
    TrackKernelTime(
        op_, static_cast<uint64_t>(
                 std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                     .count()));
  }

 private:
  KernelOp op_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace mirror::monet

#endif  // MIRROR_MONET_PROFILER_H_
