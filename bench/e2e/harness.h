#ifndef MIRROR_BENCH_E2E_HARNESS_H_
#define MIRROR_BENCH_E2E_HARNESS_H_

// The measurement side of the end-to-end benchmark, kept apart from the
// workloads so harness_test can check it without a server: the
// percentile rule, the seeded arrival schedule, the open- and closed-loop
// load generators, the metric table BENCHMARK.json mirrors, the answer
// comparisons, and the span log written as a Chrome trace.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "daemon/wire.h"
#include "moa/naive_eval.h"

namespace mirror::bench {

using Clock = std::chrono::steady_clock;

/// Seconds from `origin` to `t` (negative when `t` is earlier).
double SecondsBetween(Clock::time_point origin, Clock::time_point t);

// ---------------------------------------------------------------------------
// Percentiles.

/// A percentile is reported only when at least this many samples lie
/// beyond it: p99 needs 1,000 samples, p90 needs 100.
constexpr double kSamplesBeyondPercentile = 10;

/// The quantile to report for a requested `q` over `samples` values: `q`
/// itself when at least kSamplesBeyondPercentile samples lie beyond it,
/// otherwise the highest quantile that has them (never below the median;
/// fewer than 20 samples report the median).
double SupportedQuantile(size_t samples, double q);

/// Quantile `q` of `values`, interpolated linearly between closest ranks.
/// 0 for an empty input.
double Percentile(std::vector<double> values, double q);

/// Latency samples in fixed log-spaced buckets (0.5% wide, from 100 ns
/// to about 25 minutes): recording costs the same time and memory at any
/// throughput, so a faster server does not grow the benchmark's own
/// footprint (the generator shares the server's process and its RSS).
class LogHistogram {
 public:
  void Add(double seconds);
  void Merge(const LogHistogram& other);
  uint64_t count() const { return count_; }
  /// Quantile `q` in seconds, interpolated inside the winning bucket
  /// (within 0.5% of the exact sample quantile); 0 when empty.
  double Quantile(double q) const;

 private:
  static constexpr double kMinSeconds = 1e-7;
  static constexpr double kGrowth = 1.005;
  static constexpr size_t kBuckets = 4700;
  static double LowerEdge(size_t bucket);

  std::vector<uint64_t> buckets_ = std::vector<uint64_t>(kBuckets, 0);
  uint64_t count_ = 0;
};

// ---------------------------------------------------------------------------
// Request streams.

/// Seed of request `i` of the named stream of a run: every input of
/// request i is a function of (seed, stream, i) only, so the parent
/// commit and a change receive identical requests.
uint64_t StreamSeed(uint64_t seed, std::string_view stream, uint64_t i);

/// Due times, in seconds from the stream's origin, of a Poisson arrival
/// process at `rate` per second: every due time below `horizon_s`. Gap i
/// is drawn from StreamSeed(seed, stream, i).
std::vector<double> PoissonSchedule(uint64_t seed, std::string_view stream,
                                    double rate, double horizon_s);

// ---------------------------------------------------------------------------
// Load generators. Each connection is one thread with one blocking
// client; a generator never opens more threads than connections.

/// One request's timeline, in seconds from the generator's origin.
struct Completion {
  uint64_t index = 0;  // request index in its stream
  int conn = 0;
  /// Open loop: the scheduled time. Closed loop: the connection's
  /// previous reply (or the generator's start for its first request).
  double due = 0;
  double sent = 0;
  double done = 0;
  /// Open loop: from the due time, so a request that waited for a free
  /// connection counts that wait. Closed loop: from the send.
  double latency = 0;
  /// The connection was free before the request was due, so `sent - due`
  /// is the generator's own lateness (its overshoot).
  bool idle_at_due = false;
  bool ok = false;
};

/// Sends request `index` on connection `conn` and blocks for its reply;
/// false when the request failed.
using SendFn = std::function<bool(int conn, uint64_t index)>;

/// Receives each completion on its connection's thread; calls for one
/// connection never overlap.
using RecordFn = std::function<void(const Completion&)>;

/// Open-loop load: `conns` connection threads share the schedule; each
/// free connection takes the next request in due order, waits until it
/// is due and sends it. Request k of the schedule has stream index
/// `first_index + k` and is due at `origin + due_s[k]`.
class OpenLoop {
 public:
  OpenLoop(std::vector<double> due_s, uint64_t first_index,
           Clock::time_point origin, int conns, SendFn send, RecordFn record);
  ~OpenLoop();
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  /// Waits until every request has completed.
  void Join();

 private:
  void Run(int conn);

  const std::vector<double> due_s_;
  const uint64_t first_index_;
  const Clock::time_point origin_;
  const SendFn send_;
  const RecordFn record_;
  std::atomic<size_t> next_{0};
  std::vector<std::thread> threads_;
};

/// Closed-loop load: each of `conns` connection threads sends its next
/// request as soon as the previous reply arrives, taking stream indices
/// from a shared counter that starts at `first_index`, until `stop`.
class ClosedLoop {
 public:
  ClosedLoop(uint64_t first_index, Clock::time_point origin,
             Clock::time_point stop, int conns, SendFn send, RecordFn record);
  ~ClosedLoop();
  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  /// Waits for the connections to finish their last request.
  void Join();
  /// After Join(): the first stream index not sent.
  uint64_t next_index() const { return next_.load(); }

 private:
  void Run(int conn);

  const Clock::time_point origin_;
  const Clock::time_point stop_;
  const SendFn send_;
  const RecordFn record_;
  std::atomic<uint64_t> next_;
  std::vector<std::thread> threads_;
};

// ---------------------------------------------------------------------------
// Metrics. The table below is what BENCHMARK.json lists: end-to-end
// metrics come from untraced runs, per-layer metrics from traced runs.

enum class MetricKind { kEndToEnd, kPerLayer };

struct MetricDef {
  std::string name;
  std::string unit;
  MetricKind kind = MetricKind::kEndToEnd;
};

/// Every metric the benchmark emits, in emission order.
const std::vector<MetricDef>& MetricTable();

/// The MIL opcodes whose share of traced instruction time is reported as
/// monet.op_share.<opcode>.
const std::vector<std::string>& OpShareOpcodes();

/// The kernel families reported as monet.kernel_share.<family>.
const std::vector<std::string>& KernelShareFamilies();

/// True when `name` matches [A-Za-z0-9_.-]+.
bool ValidMetricName(std::string_view name);

/// The metrics of one run: exactly the table's metrics of one kind.
class MetricSet {
 public:
  explicit MetricSet(MetricKind kind) : kind_(kind) {}

  /// Records one metric; aborts on a name the table does not list under
  /// this set's kind (the emitted names must stay BENCHMARK.json's).
  void Add(const std::string& name, double value, uint64_t samples);

  /// Table metrics of this kind not recorded yet.
  std::vector<std::string> Missing() const;

  /// One "<workload> <metric> <value> <unit> n=<samples>" line per metric.
  std::string TextLines(const std::string& workload) const;

  /// {"<metric>": {"value": v, "unit": "u"}, ...} with full precision.
  std::string Json() const;

 private:
  struct Entry {
    double value = 0;
    uint64_t samples = 0;
  };
  MetricKind kind_;
  std::map<std::string, Entry> values_;
};

// ---------------------------------------------------------------------------
// Answer checks.

/// The wire form of a local result, for comparing with a wire reply.
daemon::wire::ResultReply ToReply(const moa::EvalOutput& out);

/// Empty when `got` equals `want` bit for bit: same shape, same head
/// oids, same tail values and types, same order. Otherwise the first
/// difference.
std::string DiffExact(const daemon::wire::ResultReply& got,
                      const daemon::wire::ResultReply& want);

/// Comparison against the naive object interpreter, whose scores differ
/// from the engine's in the last bits: `got` must hold the same oids as
/// `want` with values within `tol` (relative, scaled by max(1, |v|)).
/// When `top_k` > 0, `got` is a top-k ranking and `want` the full
/// ranking it was cut from: every returned oid must carry its own score,
/// and the k best scores must agree rank by rank.
std::string DiffWithin(const daemon::wire::ResultReply& got,
                       const daemon::wire::ResultReply& want, double tol,
                       size_t top_k = 0);

// ---------------------------------------------------------------------------
// Spans: one per client call and per replayed call, kept in memory and
// written once at exit as Chrome trace-event JSON (open it in Perfetto).

struct Span {
  uint64_t request = 0;      // request index the span belongs to
  const char* name = "";     // static storage
  const char* parent = "";   // name of the enclosing span; "" at the root
  double start = 0;          // seconds from the log's origin
  double end = 0;
};

/// Per-track span buffers: track t is written by one thread only, so
/// recording takes no lock. Spans past the per-track cap are dropped and
/// counted.
class SpanLog {
 public:
  SpanLog(int tracks, size_t cap_per_track, Clock::time_point origin);

  Clock::time_point origin() const { return origin_; }
  double Now() const { return SecondsBetween(origin_, Clock::now()); }
  void Record(int track, const Span& span);
  size_t dropped() const;

  /// Self time per span name: each span's duration minus the part its
  /// child spans (same track and request, naming it as parent) cover.
  std::map<std::string, double> SelfSeconds() const;

  /// Chrome trace-event JSON: one complete ("X") event per span, one
  /// thread lane per track, named by `track_names`.
  std::string ChromeTraceJson(const std::vector<std::string>& track_names) const;

 private:
  const Clock::time_point origin_;
  const size_t cap_;
  std::vector<std::vector<Span>> tracks_;
  std::vector<size_t> dropped_;
};

// ---------------------------------------------------------------------------
// Process and host.

/// User + system CPU seconds this process has used.
double ProcessCpuSeconds();

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// {"nproc": .., "l2_cache_bytes": .., "build_type": .., "compiler": ..}
std::string HostJson();

}  // namespace mirror::bench

#endif  // MIRROR_BENCH_E2E_HARNESS_H_
