#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "base/logging.h"
#include "base/rng.h"
#include "base/str_util.h"
#include "monet/cache_info.h"

namespace mirror::bench {

namespace wire = daemon::wire;

double SecondsBetween(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration<double>(t - origin).count();
}

// ---------------------------------------------------------------------------
// Percentiles.

double SupportedQuantile(size_t samples, double q) {
  const double n = static_cast<double>(samples);
  // The epsilon absorbs 1000 * (1 - 0.99) landing a hair under 10.
  if (n * (1.0 - q) + 1e-9 >= kSamplesBeyondPercentile) return q;
  return std::max(0.5, 1.0 - kSamplesBeyondPercentile / std::max(n, 1.0));
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double LogHistogram::LowerEdge(size_t bucket) {
  return bucket == 0 ? 0.0
                     : kMinSeconds *
                           std::pow(kGrowth, static_cast<double>(bucket - 1));
}

void LogHistogram::Add(double seconds) {
  size_t b = 0;
  if (seconds >= kMinSeconds) {
    b = 1 + static_cast<size_t>(std::log(seconds / kMinSeconds) /
                                std::log(kGrowth));
  }
  ++buckets_[std::min(b, kBuckets - 1)];
  ++count_;
}

void LogHistogram::Merge(const LogHistogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LogHistogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  const double rank = q * static_cast<double>(count_);
  double seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    const double n = static_cast<double>(buckets_[i]);
    if (seen + n >= rank || i + 1 == kBuckets) {
      const double frac = std::clamp((rank - seen) / n, 0.0, 1.0);
      return LowerEdge(i) + (LowerEdge(i + 1) - LowerEdge(i)) * frac;
    }
    seen += n;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Request streams.

uint64_t StreamSeed(uint64_t seed, std::string_view stream, uint64_t i) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the stream name
  for (char c : stream) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  auto mix = [](uint64_t x) {  // splitmix64 finalizer
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  };
  return mix(mix(mix(seed) ^ h) ^ i);
}

std::vector<double> PoissonSchedule(uint64_t seed, std::string_view stream,
                                    double rate, double horizon_s) {
  MIRROR_CHECK_GT(rate, 0.0);
  std::vector<double> due;
  double t = 0;
  for (uint64_t i = 0;; ++i) {
    base::Rng rng(StreamSeed(seed, stream, i));
    t += -std::log1p(-rng.UniformDouble()) / rate;
    if (t >= horizon_s) break;
    due.push_back(t);
  }
  return due;
}

// ---------------------------------------------------------------------------
// Load generators.

namespace {

void JoinAll(std::vector<std::thread>* threads) {
  for (std::thread& t : *threads) {
    if (t.joinable()) t.join();
  }
}

}  // namespace

OpenLoop::OpenLoop(std::vector<double> due_s, uint64_t first_index,
                   Clock::time_point origin, int conns, SendFn send,
                   RecordFn record)
    : due_s_(std::move(due_s)),
      first_index_(first_index),
      origin_(origin),
      send_(std::move(send)),
      record_(std::move(record)) {
  for (int c = 0; c < conns; ++c) threads_.emplace_back([this, c] { Run(c); });
}

OpenLoop::~OpenLoop() { Join(); }

void OpenLoop::Join() { JoinAll(&threads_); }

void OpenLoop::Run(int conn) {
  for (;;) {
    const size_t k = next_.fetch_add(1);
    if (k >= due_s_.size()) return;
    const auto due = origin_ + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(due_s_[k]));
    Completion c;
    c.index = first_index_ + k;
    c.conn = conn;
    c.due = due_s_[k];
    c.idle_at_due = Clock::now() <= due;
    std::this_thread::sleep_until(due);
    c.sent = SecondsBetween(origin_, Clock::now());
    c.ok = send_(conn, c.index);
    c.done = SecondsBetween(origin_, Clock::now());
    c.latency = c.done - c.due;
    record_(c);
  }
}

ClosedLoop::ClosedLoop(uint64_t first_index, Clock::time_point origin,
                       Clock::time_point stop, int conns, SendFn send,
                       RecordFn record)
    : origin_(origin),
      stop_(stop),
      send_(std::move(send)),
      record_(std::move(record)),
      next_(first_index) {
  for (int c = 0; c < conns; ++c) threads_.emplace_back([this, c] { Run(c); });
}

ClosedLoop::~ClosedLoop() { Join(); }

void ClosedLoop::Join() { JoinAll(&threads_); }

void ClosedLoop::Run(int conn) {
  std::this_thread::sleep_until(origin_);
  double prev_done = 0;
  while (Clock::now() < stop_) {
    Completion c;
    c.index = next_.fetch_add(1);
    c.conn = conn;
    c.due = prev_done;
    c.idle_at_due = true;
    c.sent = SecondsBetween(origin_, Clock::now());
    c.ok = send_(conn, c.index);
    c.done = SecondsBetween(origin_, Clock::now());
    c.latency = c.done - c.sent;
    prev_done = c.done;
    record_(c);
  }
}

// ---------------------------------------------------------------------------
// Metrics.

const std::vector<std::string>& OpShareOpcodes() {
  // Every opcode that took 5% or more of traced instruction time in some
  // workload at seed 11 when the benchmark was defined; fixed since.
  static const std::vector<std::string> kOpcodes = {
      "join",       "load",     "map.bin.scalar",
      "select.cmp", "semijoin", "semijoin.tail"};
  return kOpcodes;
}

const std::vector<std::string>& KernelShareFamilies() {
  static const std::vector<std::string> kFamilies = {
      "select", "semijoin",  "join",     "group_agg", "scalar_agg",
      "topn",   "belief",    "multiplex", "concat",   "materialize"};
  return kFamilies;
}

const std::vector<MetricDef>& MetricTable() {
  static const std::vector<MetricDef> kTable = [] {
    const MetricKind e2e = MetricKind::kEndToEnd;
    const MetricKind layer = MetricKind::kPerLayer;
    std::vector<MetricDef> t = {
        {"peak_rss_mb", "MiB", e2e},
        {"wal_bytes_per_user_byte", "ratio", e2e},
        {"setup_s", "s", e2e},
        // Client-observed, but the host's speed drifts from run to run by
        // more than a regression bound may allow, so they are reported
        // without one.
        {"query_throughput_qps", "1/s", layer},
        {"cpu_ms_per_request", "ms", layer},
        {"query_p50_ms", "ms", layer},
        {"query_p90_ms", "ms", layer},
        {"query_p99_ms", "ms", layer},
        {"append_p50_ms", "ms", layer},
        {"append_p90_ms", "ms", layer},
        {"daemon.queue_wait_share", "share", layer},
        {"daemon.exec_mean_us", "us", layer},
        {"daemon.wire_residual_mean_us", "us", layer},
        {"daemon.append_queue_wait_mean_us", "us", layer},
        {"daemon.append_exec_mean_us", "us", layer},
        {"daemon.request_codec_us", "us", layer},
        {"daemon.result_encode_us", "us", layer},
        {"daemon.result_decode_us", "us", layer},
        {"daemon.bytes_out_per_request", "bytes", layer},
        {"daemon.coalesced_share", "share", layer},
        {"daemon.requests_shed", "count", layer},
        {"mirror.plan_cache_hit_rate", "share", layer},
        {"mirror.append_us_p50", "us", layer},
        {"mirror.append_us_p99", "us", layer},
        {"moa.prepare_us_p50", "us", layer},
        {"moa.prepare_us_p90", "us", layer},
        {"moa.mil_instrs_per_query", "count", layer},
        {"monet.execute_us_p50", "us", layer},
        {"monet.execute_us_p90", "us", layer},
        {"monet.kernel_busy_ratio", "ratio", layer},
    };
    for (const std::string& f : KernelShareFamilies()) {
      t.push_back({"monet.kernel_share." + f, "share", layer});
    }
    for (const char* name :
         {"monet.tuples_in_per_query", "monet.materialized_tuples_per_query",
          "monet.morsel_tasks_per_query", "monet.shard_fanouts_per_query",
          "monet.bloom_hits_per_query", "monet.zone_blocks_skipped_per_query",
          "monet.topk_pruned_per_query"}) {
      t.push_back({name, "count", layer});
    }
    t.push_back({"monet.recycler.result_hit_share", "share", layer});
    t.push_back({"monet.recycler.candidate_hits_per_query", "count", layer});
    t.push_back({"monet.recycler.invalidations", "count", layer});
    t.push_back({"monet.recycler.evictions", "count", layer});
    t.push_back({"monet.recycler.bytes_held_mb", "MiB", layer});
    for (const std::string& op : OpShareOpcodes()) {
      t.push_back({"monet.op_share." + op, "share", layer});
    }
    t.push_back({"host.cpu_cores_used", "cores", layer});
    t.push_back({"loadgen.overshoot_p90_ms", "ms", layer});
    t.push_back({"trace.overhead_ratio", "ratio", layer});
    t.push_back({"layers.exec_coverage", "ratio", layer});
    return t;
  }();
  return kTable;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

namespace {

const MetricDef* FindMetric(const std::string& name) {
  for (const MetricDef& d : MetricTable()) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

}  // namespace

void MetricSet::Add(const std::string& name, double value, uint64_t samples) {
  const MetricDef* def = FindMetric(name);
  MIRROR_CHECK(def != nullptr && def->kind == kind_)
      << "metric " << name << " is not in the table under this kind";
  MIRROR_CHECK(std::isfinite(value)) << "metric " << name << " is not finite";
  values_[name] = Entry{value, samples};
}

std::vector<std::string> MetricSet::Missing() const {
  std::vector<std::string> out;
  for (const MetricDef& d : MetricTable()) {
    if (d.kind == kind_ && values_.count(d.name) == 0) out.push_back(d.name);
  }
  return out;
}

std::string MetricSet::TextLines(const std::string& workload) const {
  std::string out;
  for (const MetricDef& d : MetricTable()) {
    auto it = values_.find(d.name);
    if (it == values_.end()) continue;
    out += base::StrFormat("%s %s %.6g %s n=%llu\n", workload.c_str(),
                           d.name.c_str(), it->second.value, d.unit.c_str(),
                           static_cast<unsigned long long>(it->second.samples));
  }
  return out;
}

std::string MetricSet::Json() const {
  std::string out = "{";
  bool first = true;
  for (const MetricDef& d : MetricTable()) {
    auto it = values_.find(d.name);
    if (it == values_.end()) continue;
    out += base::StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                           first ? "" : ", ", d.name.c_str(), it->second.value,
                           d.unit.c_str());
    first = false;
  }
  return out + "}";
}

// ---------------------------------------------------------------------------
// Answer checks.

wire::ResultReply ToReply(const moa::EvalOutput& out) {
  wire::ResultReply r;
  r.is_scalar = out.is_scalar;
  r.scalar = out.scalar;
  r.bat = out.bat;
  return r;
}

namespace {

/// Raw bits of one tail value, so +0/-0 and NaN payloads compare exactly.
std::string TailBits(const monet::Column& col, size_t i) {
  switch (col.type()) {
    case monet::ValueType::kVoid:
    case monet::ValueType::kOid: {
      monet::Oid o = col.OidAt(i);
      return std::string(reinterpret_cast<const char*>(&o), sizeof(o));
    }
    case monet::ValueType::kInt: {
      int64_t v = col.IntAt(i);
      return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
    }
    case monet::ValueType::kDbl: {
      double v = col.DblAt(i);
      return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
    }
    case monet::ValueType::kStr:
      return std::string(col.StrAt(i));
  }
  return {};
}

std::string ScalarBits(const monet::Value& v) {
  if (v.type() == monet::ValueType::kStr) return v.s();
  const double d = v.AsDouble();
  return std::string(reinterpret_cast<const char*>(&d), sizeof(d));
}

}  // namespace

std::string DiffExact(const wire::ResultReply& got,
                      const wire::ResultReply& want) {
  if (got.is_scalar != want.is_scalar) return "scalar vs table";
  if (got.is_scalar) {
    if (ScalarBits(got.scalar) != ScalarBits(want.scalar)) {
      return "scalar " + got.scalar.ToString() + " != " +
             want.scalar.ToString();
    }
    return {};
  }
  if (got.bat == nullptr || want.bat == nullptr) return "missing table";
  const monet::Bat& a = *got.bat;
  const monet::Bat& b = *want.bat;
  if (a.size() != b.size()) {
    return base::StrFormat("%zu rows != %zu rows", a.size(), b.size());
  }
  const bool a_void = a.tail().type() == monet::ValueType::kVoid;
  const bool b_void = b.tail().type() == monet::ValueType::kVoid;
  if (a.tail().type() != b.tail().type() && !(a_void && b_void)) {
    return "tail types differ";
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.head().OidAt(i) != b.head().OidAt(i)) {
      return base::StrFormat("row %zu: oid %llu != %llu", i,
                             static_cast<unsigned long long>(a.head().OidAt(i)),
                             static_cast<unsigned long long>(b.head().OidAt(i)));
    }
    if (TailBits(a.tail(), i) != TailBits(b.tail(), i)) {
      return base::StrFormat("row %zu: value %s != %s", i,
                             a.tail().ValueAt(i).ToString().c_str(),
                             b.tail().ValueAt(i).ToString().c_str());
    }
  }
  return {};
}

std::string DiffWithin(const wire::ResultReply& got,
                       const wire::ResultReply& want, double tol,
                       size_t top_k) {
  auto close = [tol](double x, double y) {
    return std::fabs(x - y) <= tol * std::max(1.0, std::fabs(y));
  };
  if (got.is_scalar != want.is_scalar) return "scalar vs table";
  if (got.is_scalar) {
    if (!close(got.scalar.AsDouble(), want.scalar.AsDouble())) {
      return "scalar " + got.scalar.ToString() + " vs oracle " +
             want.scalar.ToString();
    }
    return {};
  }
  if (got.bat == nullptr || want.bat == nullptr) return "missing table";
  std::map<monet::Oid, double> oracle;
  for (size_t i = 0; i < want.bat->size(); ++i) {
    oracle[want.bat->head().OidAt(i)] = want.bat->tail().NumAt(i);
  }
  const size_t expect_rows =
      top_k == 0 ? oracle.size() : std::min(top_k, oracle.size());
  if (got.bat->size() != expect_rows) {
    return base::StrFormat("%zu rows, oracle says %zu", got.bat->size(),
                           expect_rows);
  }
  std::vector<double> got_scores;
  for (size_t i = 0; i < got.bat->size(); ++i) {
    const monet::Oid oid = got.bat->head().OidAt(i);
    auto it = oracle.find(oid);
    if (it == oracle.end()) {
      return base::StrFormat("oid %llu not in the oracle's result",
                             static_cast<unsigned long long>(oid));
    }
    const double v = got.bat->tail().NumAt(i);
    if (!close(v, it->second)) {
      return base::StrFormat("oid %llu: %.17g vs oracle %.17g",
                             static_cast<unsigned long long>(oid), v,
                             it->second);
    }
    got_scores.push_back(v);
  }
  if (top_k > 0) {
    std::vector<double> want_scores;
    for (const auto& [oid, v] : oracle) want_scores.push_back(v);
    std::sort(want_scores.rbegin(), want_scores.rend());
    std::sort(got_scores.rbegin(), got_scores.rend());
    for (size_t r = 0; r < got_scores.size(); ++r) {
      if (!close(got_scores[r], want_scores[r])) {
        return base::StrFormat("rank %zu: %.17g vs oracle %.17g", r,
                               got_scores[r], want_scores[r]);
      }
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// Spans.

SpanLog::SpanLog(int tracks, size_t cap_per_track, Clock::time_point origin)
    : origin_(origin),
      cap_(cap_per_track),
      tracks_(static_cast<size_t>(tracks)),
      dropped_(static_cast<size_t>(tracks), 0) {}

void SpanLog::Record(int track, const Span& span) {
  std::vector<Span>& spans = tracks_[static_cast<size_t>(track)];
  if (spans.size() >= cap_) {
    ++dropped_[static_cast<size_t>(track)];
    return;
  }
  spans.push_back(span);
}

size_t SpanLog::dropped() const {
  size_t n = 0;
  for (size_t d : dropped_) n += d;
  return n;
}

std::map<std::string, double> SpanLog::SelfSeconds() const {
  std::map<std::string, double> self;
  for (const std::vector<Span>& spans : tracks_) {
    // Children of (request, parent name) on this track, by covered time.
    std::map<std::pair<uint64_t, std::string>, double> child_cover;
    for (const Span& s : spans) {
      if (s.parent[0] != '\0') {
        child_cover[{s.request, s.parent}] += s.end - s.start;
      }
    }
    for (const Span& s : spans) {
      double d = s.end - s.start;
      auto it = child_cover.find({s.request, s.name});
      if (it != child_cover.end()) d -= std::min(d, it->second);
      self[s.name] += d;
    }
  }
  return self;
}

std::string SpanLog::ChromeTraceJson(
    const std::vector<std::string>& track_names) const {
  std::string out = "{\"traceEvents\":[\n";
  for (size_t t = 0; t < tracks_.size(); ++t) {
    const std::string name =
        t < track_names.size() ? track_names[t] : base::StrFormat("track %zu", t);
    out += base::StrFormat(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%zu,"
        "\"args\":{\"name\":\"%s\"}},\n",
        t, name.c_str());
    for (const Span& s : tracks_[t]) {
      out += base::StrFormat(
          "{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\",\"ts\":%.3f,"
          "\"dur\":%.3f,\"pid\":1,\"tid\":%zu,\"args\":{\"request\":%llu,"
          "\"parent\":\"%s\"}},\n",
          s.name, s.start * 1e6, (s.end - s.start) * 1e6, t,
          static_cast<unsigned long long>(s.request), s.parent);
    }
  }
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"mirror_bench\"}}\n";
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Process and host.

double ProcessCpuSeconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string HostJson() {
  return base::StrFormat(
      "{\"nproc\": %ld, \"l2_cache_bytes\": %zu, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\"}",
      ::sysconf(_SC_NPROCESSORS_ONLN), monet::L2CacheBytes(),
      MIRROR_BENCH_BUILD_TYPE, MIRROR_BENCH_COMPILER);
}

}  // namespace mirror::bench
