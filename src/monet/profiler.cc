#include "monet/profiler.h"

#include <algorithm>
#include <atomic>

#include "base/str_util.h"

namespace mirror::monet {

namespace {

constexpr int kNumOps = static_cast<int>(KernelOp::kNumOps);

/// Stripe count: a power of two comfortably above the worker-pool sizes
/// the engine runs (hardware threads), so concurrent kernels land on
/// distinct cache lines with high probability.
constexpr uint32_t kStripes = 16;

/// One accumulator stripe. alignas(64) keeps stripes on distinct cache
/// lines; every field is a relaxed atomic because the only invariant the
/// counters carry is "eventually sums to the true total" — cross-counter
/// consistency was never promised (the old mutex merely serialized the
/// adds, not the readers' view of unrelated counters).
struct alignas(64) StatsStripe {
  std::atomic<uint64_t> op_count[kNumOps];
  std::atomic<uint64_t> wall_nanos[kNumOps];
#define MIRROR_KERNEL_STRIPE(name, fold) std::atomic<uint64_t> name;
  MIRROR_KERNEL_COUNTERS(MIRROR_KERNEL_STRIPE)
#undef MIRROR_KERNEL_STRIPE
};

StatsStripe g_stripes[kStripes];

/// The calling thread's stripe, assigned round-robin on first use and
/// cached in a thread_local for the thread's lifetime.
StatsStripe& LocalStripe() {
  static std::atomic<uint32_t> next{0};
  thread_local StatsStripe* stripe =
      &g_stripes[next.fetch_add(1, std::memory_order_relaxed) % kStripes];
  return *stripe;
}

inline void Add(std::atomic<uint64_t>& c, uint64_t v) {
  c.fetch_add(v, std::memory_order_relaxed);
}

inline uint64_t Ld(const std::atomic<uint64_t>& c) {
  return c.load(std::memory_order_relaxed);
}

/// Combines a folded total with one stripe's partial.
inline uint64_t Fold(KernelFold fold, uint64_t total, uint64_t partial) {
  return fold == KernelFold::kMax ? std::max(total, partial)
                                  : total + partial;
}

}  // namespace

const char* KernelOpName(KernelOp op) {
  switch (op) {
    case KernelOp::kSelect:
      return "select";
    case KernelOp::kJoin:
      return "join";
    case KernelOp::kSemiJoin:
      return "semijoin";
    case KernelOp::kAntiJoin:
      return "antijoin";
    case KernelOp::kReverse:
      return "reverse";
    case KernelOp::kMirror:
      return "mirror";
    case KernelOp::kMark:
      return "mark";
    case KernelOp::kSort:
      return "sort";
    case KernelOp::kTopN:
      return "topn";
    case KernelOp::kUnique:
      return "unique";
    case KernelOp::kGroupAgg:
      return "groupagg";
    case KernelOp::kScalarAgg:
      return "scalaragg";
    case KernelOp::kMultiplex:
      return "multiplex";
    case KernelOp::kConcat:
      return "concat";
    case KernelOp::kSlice:
      return "slice";
    case KernelOp::kHistogram:
      return "histogram";
    case KernelOp::kBelief:
      return "belief";
    case KernelOp::kMaterialize:
      return "materialize";
    case KernelOp::kNumOps:
      return "?";
  }
  return "?";
}

uint64_t KernelStats::TotalOps() const {
  uint64_t total = 0;
  for (int i = 0; i < kNumOps; ++i) {
    total += op_count[i];
  }
  return total;
}

uint64_t KernelStats::TotalWallNanos() const {
  uint64_t total = 0;
  for (int i = 0; i < kNumOps; ++i) {
    total += wall_nanos[i];
  }
  return total;
}

void KernelStats::Reset() { *this = KernelStats(); }

std::string KernelStats::ToString() const {
  std::string out =
      base::StrFormat("ops=%llu (", static_cast<unsigned long long>(TotalOps()));
  bool first = true;
  for (int i = 0; i < kNumOps; ++i) {
    if (op_count[i] == 0) continue;
    if (!first) out += " ";
    first = false;
    out += base::StrFormat("%s=%llu", KernelOpName(static_cast<KernelOp>(i)),
                           static_cast<unsigned long long>(op_count[i]));
  }
  out += ")";
#define MIRROR_KERNEL_PRINT(name, fold)                            \
  if (name > 0) {                                                  \
    out += base::StrFormat(" " #name "=%llu",                      \
                           static_cast<unsigned long long>(name)); \
  }
  MIRROR_KERNEL_COUNTERS(MIRROR_KERNEL_PRINT)
#undef MIRROR_KERNEL_PRINT
  return out;
}

void TrackKernelOp(KernelOp op, uint64_t tuples_in, uint64_t tuples_out) {
  StatsStripe& s = LocalStripe();
  Add(s.op_count[static_cast<int>(op)], 1);
  Add(s.tuples_in, tuples_in);
  Add(s.tuples_out, tuples_out);
}

void TrackKernelTime(KernelOp op, uint64_t nanos) {
  Add(LocalStripe().wall_nanos[static_cast<int>(op)], nanos);
}

void TrackCandidateOp() { Add(LocalStripe().candidate_ops, 1); }

void TrackMaterialization(uint64_t tuples) {
  StatsStripe& s = LocalStripe();
  Add(s.materializations, 1);
  Add(s.materialized_tuples, tuples);
}

void TrackMorselTasks(uint64_t tasks) {
  Add(LocalStripe().morsel_tasks, tasks);
}

void TrackFusedAgg() { Add(LocalStripe().fused_agg_ops, 1); }

void TrackRadixBuild(uint64_t partitions) {
  StatsStripe& s = LocalStripe();
  Add(s.radix_builds, 1);
  Add(s.radix_partitions, partitions);
}

void TrackBloomBuild() { Add(LocalStripe().bloom_builds, 1); }

void TrackBloomHits(uint64_t rejects) {
  Add(LocalStripe().bloom_hits, rejects);
}

void TrackShardFanout() { Add(LocalStripe().shard_fanouts, 1); }

void TrackShardFanin() { Add(LocalStripe().shard_fanins, 1); }

void TrackZoneBlocksSkipped(uint64_t blocks) {
  Add(LocalStripe().zone_blocks_skipped, blocks);
}

void TrackTopkMorselsPruned(uint64_t morsels) {
  Add(LocalStripe().topk_morsels_pruned, morsels);
}

void TrackTopkShardPruned() { Add(LocalStripe().topk_shards_pruned, 1); }

void TrackProbePartitions(uint64_t partitions) {
  Add(LocalStripe().probe_partitions, partitions);
}

void TrackPeakQueryBytes(uint64_t bytes) {
  std::atomic<uint64_t>& peak = LocalStripe().peak_query_bytes;
  uint64_t seen = peak.load(std::memory_order_relaxed);
  while (bytes > seen &&
         !peak.compare_exchange_weak(seen, bytes, std::memory_order_relaxed)) {
  }
}

KernelStats SnapshotKernelStats() {
  KernelStats out;
  for (const StatsStripe& s : g_stripes) {
    for (int i = 0; i < kNumOps; ++i) {
      out.op_count[i] += Ld(s.op_count[i]);
      out.wall_nanos[i] += Ld(s.wall_nanos[i]);
    }
#define MIRROR_KERNEL_FOLD(name, fold) \
  out.name = Fold(KernelFold::fold, out.name, Ld(s.name));
    MIRROR_KERNEL_COUNTERS(MIRROR_KERNEL_FOLD)
#undef MIRROR_KERNEL_FOLD
  }
  return out;
}

TraceCounterSnapshot SnapshotTraceCounters() {
  TraceCounterSnapshot out;
  for (const StatsStripe& s : g_stripes) {
    out.tuples_in += Ld(s.tuples_in);
    out.tuples_out += Ld(s.tuples_out);
    out.morsel_tasks += Ld(s.morsel_tasks);
    out.zone_blocks_skipped += Ld(s.zone_blocks_skipped);
    out.topk_pruned += Ld(s.topk_morsels_pruned) + Ld(s.topk_shards_pruned);
    out.bloom_hits += Ld(s.bloom_hits);
  }
  return out;
}

void ResetKernelStats() {
  for (StatsStripe& s : g_stripes) {
    for (int i = 0; i < kNumOps; ++i) {
      s.op_count[i].store(0, std::memory_order_relaxed);
      s.wall_nanos[i].store(0, std::memory_order_relaxed);
    }
#define MIRROR_KERNEL_RESET(name, fold) \
  s.name.store(0, std::memory_order_relaxed);
    MIRROR_KERNEL_COUNTERS(MIRROR_KERNEL_RESET)
#undef MIRROR_KERNEL_RESET
  }
}

}  // namespace mirror::monet
