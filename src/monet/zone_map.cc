#include "monet/zone_map.h"

#include <algorithm>
#include <cmath>

#include "monet/worker_pool.h"

namespace mirror::monet {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Whether an int64 converts to double without rounding.
bool ExactAsDouble(int64_t v) {
  constexpr int64_t kLimit = int64_t(1) << 53;
  return v > -kLimit && v < kLimit;
}

}  // namespace

double DoubleLowerBound(int64_t v) {
  double d = static_cast<double>(v);
  return ExactAsDouble(v) ? d : std::nextafter(d, -kInf);
}

double DoubleUpperBound(int64_t v) {
  double d = static_cast<double>(v);
  return ExactAsDouble(v) ? d : std::nextafter(d, kInf);
}

double ZoneMap::RangeMax(size_t lo, size_t hi) const {
  if (lo >= hi || block_max.empty()) return -kInf;
  size_t first = lo / block_rows;
  size_t last = std::min((hi - 1) / block_rows, block_max.size() - 1);
  double m = -kInf;
  for (size_t b = first; b <= last; ++b) m = std::max(m, block_max[b]);
  return m;
}

size_t ZoneMap::BlocksIn(size_t lo, size_t hi) const {
  if (lo >= hi) return 0;
  return (hi - 1) / block_rows - lo / block_rows + 1;
}

ZoneMap BuildZoneMap(const Column& c, size_t block_rows, WorkerPool* pool) {
  ZoneMap z;
  z.block_rows = block_rows == 0 ? kZoneBlockRows : block_rows;
  size_t n = c.size();
  if (n == 0 || c.type() == ValueType::kStr) return z;  // strings: no bounds
  size_t blocks = (n + z.block_rows - 1) / z.block_rows;
  z.block_min.assign(blocks, kInf);
  z.block_max.assign(blocks, -kInf);
  // Blocks are independent: ranges of them scan in parallel, each block
  // writing only its own bounds.
  std::atomic<bool> has_nan{false};
  auto scan = [&](size_t b) {
    const size_t lo = b * z.block_rows;
    const size_t hi = std::min(n, lo + z.block_rows);
    double mn = kInf;
    double mx = -kInf;
    switch (c.type()) {
      case ValueType::kVoid:
        // Dense oid sequence: bounds are arithmetic, no scan needed.
        mn = static_cast<double>(c.void_base() + lo);
        mx = static_cast<double>(c.void_base() + hi - 1);
        break;
      case ValueType::kOid:
        for (size_t i = lo; i < hi; ++i) {
          const auto v = static_cast<int64_t>(c.oids()[i]);
          mn = std::min(mn, DoubleLowerBound(v));
          mx = std::max(mx, DoubleUpperBound(v));
        }
        break;
      case ValueType::kInt:
        for (size_t i = lo; i < hi; ++i) {
          const int64_t v = c.ints()[i];
          mn = std::min(mn, DoubleLowerBound(v));
          mx = std::max(mx, DoubleUpperBound(v));
        }
        break;
      case ValueType::kDbl:
        for (size_t i = lo; i < hi; ++i) {
          const double v = c.dbls()[i];
          if (std::isnan(v)) {  // NaN defeats interval logic
            has_nan.store(true, std::memory_order_relaxed);
            return;
          }
          mn = std::min(mn, v);
          mx = std::max(mx, v);
        }
        break;
      case ValueType::kStr:
        return;
    }
    z.block_min[b] = mn;
    z.block_max[b] = mx;
  };
  constexpr size_t kMinChunkBlocks = 8;
  const size_t chunks =
      pool == nullptr || c.is_void()
          ? 1
          : std::min(blocks / kMinChunkBlocks,
                     4 * (static_cast<size_t>(pool->size()) + 1));
  ParallelForChunks(pool, blocks, chunks,
                    [&](size_t, size_t b_lo, size_t b_hi) {
                      for (size_t b = b_lo; b < b_hi; ++b) scan(b);
                    });
  if (has_nan.load(std::memory_order_relaxed)) return ZoneMap{};
  z.min = kInf;
  z.max = -kInf;
  for (size_t b = 0; b < blocks; ++b) {
    z.min = std::min(z.min, z.block_min[b]);
    z.max = std::max(z.max, z.block_max[b]);
  }
  z.valid = true;
  return z;
}

BatZones BuildBatZones(const Bat& b, size_t block_rows, WorkerPool* pool) {
  BatZones zones;
  zones.head = BuildZoneMap(b.head(), block_rows, pool);
  zones.tail = BuildZoneMap(b.tail(), block_rows, pool);
  return zones;
}

ZoneMatch ClassifyZone(double bmin, double bmax, double lo, bool lo_inc,
                       double hi, bool hi_inc) {
  if (bmax < lo || (bmax == lo && !lo_inc) || bmin > hi ||
      (bmin == hi && !hi_inc)) {
    return ZoneMatch::kNone;
  }
  bool above_lo = lo_inc ? bmin >= lo : bmin > lo;
  bool below_hi = hi_inc ? bmax <= hi : bmax < hi;
  return (above_lo && below_hi) ? ZoneMatch::kAll : ZoneMatch::kSome;
}

void TopKThreshold::Offer(const std::vector<double>& scores) {
  if (k_ == 0 || scores.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (double s : scores) {
    if (std::isnan(s)) continue;
    if (heap_.size() < k_) {
      heap_.push(s);
    } else if (s > heap_.top()) {
      heap_.pop();
      heap_.push(s);
    }
  }
  if (heap_.size() == k_) {
    // heap_.top() only ever rises (pops happen only for a larger push),
    // so the published bound is monotone.
    bound_.store(heap_.top(), std::memory_order_relaxed);
  }
}

}  // namespace mirror::monet
