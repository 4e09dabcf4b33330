#ifndef MIRROR_MONET_ZONE_MAP_H_
#define MIRROR_MONET_ZONE_MAP_H_

#include <atomic>
#include <cstddef>
#include <limits>
#include <mutex>
#include <queue>
#include <vector>

#include "monet/bat.h"

namespace mirror::monet {

/// Rows per zone-map block. A block is the pruning granule: selects and
/// the top-k pruned aggregates skip whole blocks whose [min, max] proves
/// no row can qualify. Smaller than a morsel (a morsel spans several
/// blocks), so one morsel can skip its dead sub-ranges.
constexpr size_t kZoneBlockRows = 8192;

/// Min/max statistics over one numeric column: whole-column bounds plus
/// per-block bounds at `block_rows` granularity. Bounds are kept in
/// double space; int64 values beyond 2^53 are widened outward by one ulp
/// so the double-space interval always contains the exact value. A zone map over a string column, an empty column, or a column
/// containing NaN is invalid (`valid == false`) and prunes nothing.
struct ZoneMap {
  bool valid = false;
  size_t block_rows = kZoneBlockRows;
  double min = 0.0;
  double max = 0.0;
  std::vector<double> block_min;
  std::vector<double> block_max;

  size_t num_blocks() const { return block_max.size(); }

  /// Upper bound over the rows [lo, hi) — the max of every block the
  /// range touches (blocks are closed over their full extent, so this
  /// may overestimate at the edges; overestimates are always sound).
  double RangeMax(size_t lo, size_t hi) const;

  /// Number of whole blocks the row range [lo, hi) overlaps.
  size_t BlocksIn(size_t lo, size_t hi) const;
};

/// Zone maps of both columns of a BAT. The head map powers ranged
/// dense-array aggregation (head bounds = the dense array's extent); the
/// tail map powers select pruning and top-k score bounds.
struct BatZones {
  ZoneMap head;
  ZoneMap tail;
};

/// Tristate block classification against a predicate interval.
enum class ZoneMatch {
  kNone,  // no row of the block can satisfy the predicate
  kSome,  // the block must be scanned
  kAll,   // every row of the block satisfies the predicate
};

class WorkerPool;

/// Builds the zone map of one column. Void columns derive their bounds
/// arithmetically (no scan); oid/int/dbl columns scan once, ranges of
/// blocks in parallel on `pool` (nullptr: the calling thread alone).
ZoneMap BuildZoneMap(const Column& c, size_t block_rows = kZoneBlockRows,
                     WorkerPool* pool = nullptr);

/// Zone maps for both columns of `b`.
BatZones BuildBatZones(const Bat& b, size_t block_rows = kZoneBlockRows,
                       WorkerPool* pool = nullptr);

/// Double-space bounds containing the exact int64 value: values beyond
/// 2^53 (where double rounds) widen outward by one ulp, so
/// [DoubleLowerBound(v), DoubleUpperBound(v)] always brackets v. The
/// zone builder and the selection pruner share these so bounds and
/// predicate intervals can never disagree about rounding.
double DoubleLowerBound(int64_t v);
double DoubleUpperBound(int64_t v);

/// Classifies the block interval [bmin, bmax] against the predicate
/// interval lo..hi with the given endpoint inclusivities. Callers encode
/// one-sided predicates with +-infinity endpoints. For an exact int64
/// interval [lo, hi], trust kNone only against the outward interval
/// [DoubleLowerBound(lo), DoubleUpperBound(hi)] and kAll only against the
/// inward one [DoubleUpperBound(lo), DoubleLowerBound(hi)]: neither then
/// misjudges a block, past 2^53 as well.
ZoneMatch ClassifyZone(double bmin, double bmax, double lo, bool lo_inc,
                       double hi, bool hi_inc);

/// The shared, monotonically rising top-k score threshold of one ranking
/// plan: the k'th best score seen so far across every morsel and shard.
/// Producers offer their local top scores; consumers read `bound()` —
/// lock-free — and may skip any work whose score upper bound is
/// *strictly* below it. Strictness keeps boundary ties: a pruned row has
/// score < bound <= the final k'th score, so it loses to k rows outright
/// and can never displace a tie at the boundary.
///
/// bound() stays -infinity until k scores have been offered, so nothing
/// is pruned before the top k could possibly be full.
class TopKThreshold {
 public:
  explicit TopKThreshold(size_t k)
      : k_(k), bound_(-std::numeric_limits<double>::infinity()) {}
  TopKThreshold(const TopKThreshold&) = delete;
  TopKThreshold& operator=(const TopKThreshold&) = delete;

  size_t k() const { return k_; }

  /// The current k'th best offered score, or -infinity while fewer than
  /// k scores have been offered. Monotonically non-decreasing.
  double bound() const { return bound_.load(std::memory_order_relaxed); }

  /// Merges a batch of candidate scores (a morsel's local top scores —
  /// offering each morsel's top min(k, |morsel|) values is sufficient:
  /// the global top k is contained in the union of per-morsel top k's).
  /// NaN scores are ignored.
  void Offer(const std::vector<double>& scores);

 private:
  const size_t k_;
  std::atomic<double> bound_;
  std::mutex mu_;
  /// Min-heap of the best <= k scores offered so far.
  std::priority_queue<double, std::vector<double>, std::greater<double>>
      heap_;
};

}  // namespace mirror::monet

#endif  // MIRROR_MONET_ZONE_MAP_H_
