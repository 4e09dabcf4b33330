#include "monet/trace.h"

#include <algorithm>

#include "monet/profiler.h"

namespace mirror::monet {

namespace {

/// Generation source for QueryTrace::Local()'s thread-local cache: every
/// construction and Clear() takes a fresh value, so a cached buffer
/// pointer can never survive into a different trace generation (including
/// a new QueryTrace allocated at a recycled address).
std::atomic<uint64_t>& TraceGenerationCounter() {
  static std::atomic<uint64_t> counter{1};
  return counter;
}

std::atomic<uint64_t>& SpanCounter() {
  static std::atomic<uint64_t> counter{0};
  return counter;
}

}  // namespace

uint64_t TraceSpansRecorded() {
  return SpanCounter().load(std::memory_order_relaxed);
}

QueryTrace::QueryTrace()
    : generation_(TraceGenerationCounter().fetch_add(
          1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()) {}

void QueryTrace::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.clear();
  generation_.store(
      TraceGenerationCounter().fetch_add(1, std::memory_order_relaxed),
      std::memory_order_relaxed);
  epoch_ = std::chrono::steady_clock::now();
}

std::vector<TraceSpan> QueryTrace::Merge() const {
  std::vector<TraceSpan> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    size_t total = 0;
    for (const auto& b : buffers_) total += b->spans.size();
    out.reserve(total);
    for (const auto& b : buffers_) {
      out.insert(out.end(), b->spans.begin(), b->spans.end());
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceSpan& a, const TraceSpan& b) {
                     if (a.start_ns != b.start_ns) {
                       return a.start_ns < b.start_ns;
                     }
                     return a.thread < b.thread;
                   });
  return out;
}

size_t QueryTrace::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const auto& b : buffers_) total += b->spans.size();
  return total;
}

QueryTrace::Buffer* QueryTrace::Local() {
  struct Cache {
    const QueryTrace* owner = nullptr;
    uint64_t generation = 0;
    Buffer* buf = nullptr;
  };
  thread_local Cache cache;
  uint64_t gen = generation_.load(std::memory_order_relaxed);
  if (cache.owner == this && cache.generation == gen) return cache.buf;
  const std::thread::id self = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(mu_);
  // A miss is either this thread's first span in the generation or a
  // return after recording into another trace: reuse the lane if any.
  for (const auto& b : buffers_) {
    if (b->owner == self) {
      cache = Cache{this, gen, b.get()};
      return b.get();
    }
  }
  buffers_.emplace_back(new Buffer());
  Buffer* b = buffers_.back().get();
  b->thread_id = static_cast<uint32_t>(buffers_.size() - 1);
  b->owner = self;
  b->spans.reserve(64);
  cache = Cache{this, gen, b};
  return b;
}

TraceSpanRecorder::TraceSpanRecorder(QueryTrace* trace, uint32_t instr,
                                     const char* opcode, int32_t shard,
                                     TraceSpanKind kind)
    : trace_(trace) {
  if (trace_ == nullptr) return;
  span_.instr = instr;
  span_.kind = kind;
  span_.shard = shard;
  span_.opcode = opcode;
  if (kind == TraceSpanKind::kInstr) {
    TraceCounterSnapshot c = SnapshotTraceCounters();
    in0_ = c.tuples_in;
    out0_ = c.tuples_out;
    morsel0_ = c.morsel_tasks;
    zone0_ = c.zone_blocks_skipped;
    topk0_ = c.topk_pruned;
    bloom0_ = c.bloom_hits;
  }
  span_.start_ns = trace_->NowNanos();
}

TraceSpanRecorder::~TraceSpanRecorder() {
  if (trace_ == nullptr) return;
  span_.end_ns = trace_->NowNanos();
  if (span_.kind == TraceSpanKind::kInstr) {
    TraceCounterSnapshot c = SnapshotTraceCounters();
    span_.tuples_in = c.tuples_in - in0_;
    span_.tuples_out = c.tuples_out - out0_;
    span_.morsels = c.morsel_tasks - morsel0_;
    span_.zone_skips = c.zone_blocks_skipped - zone0_;
    span_.topk_prunes = c.topk_pruned - topk0_;
    span_.bloom_hits = c.bloom_hits - bloom0_;
  }
  QueryTrace::Buffer* buf = trace_->Local();
  span_.thread = buf->thread_id;
  buf->spans.push_back(span_);
  SpanCounter().fetch_add(1, std::memory_order_relaxed);
}

TraceTable TraceToBats(const std::vector<TraceSpan>& spans) {
  const size_t n = spans.size();
  std::vector<int64_t> instr, kind, shard, thread, start_ns, dur_ns;
  std::vector<int64_t> tuples_in, tuples_out, morsels, zone_skips;
  std::vector<int64_t> topk_prunes, bloom_hits;
  std::vector<std::string> opcode;
  instr.reserve(n);
  opcode.reserve(n);
  for (const TraceSpan& s : spans) {
    instr.push_back(s.instr == kTraceNoInstr
                        ? -1
                        : static_cast<int64_t>(s.instr));
    opcode.push_back(s.opcode);
    kind.push_back(static_cast<int64_t>(s.kind));
    shard.push_back(s.shard);
    thread.push_back(s.thread);
    start_ns.push_back(static_cast<int64_t>(s.start_ns));
    dur_ns.push_back(static_cast<int64_t>(s.end_ns - s.start_ns));
    tuples_in.push_back(static_cast<int64_t>(s.tuples_in));
    tuples_out.push_back(static_cast<int64_t>(s.tuples_out));
    morsels.push_back(static_cast<int64_t>(s.morsels));
    zone_skips.push_back(static_cast<int64_t>(s.zone_skips));
    topk_prunes.push_back(static_cast<int64_t>(s.topk_prunes));
    bloom_hits.push_back(static_cast<int64_t>(s.bloom_hits));
  }
  TraceTable t;
  t.rows = n;
  auto add_ints = [&](const char* name, std::vector<int64_t>& v) {
    t.names.emplace_back(name);
    t.cols.push_back(Bat::DenseInts(std::move(v)));
  };
  add_ints("instr", instr);
  t.names.emplace_back("opcode");
  t.cols.push_back(Bat::DenseStrs(opcode));
  add_ints("kind", kind);
  add_ints("shard", shard);
  add_ints("thread", thread);
  add_ints("start_ns", start_ns);
  add_ints("dur_ns", dur_ns);
  add_ints("tuples_in", tuples_in);
  add_ints("tuples_out", tuples_out);
  add_ints("morsels", morsels);
  add_ints("zone_skips", zone_skips);
  add_ints("topk_prunes", topk_prunes);
  add_ints("bloom_hits", bloom_hits);
  return t;
}

}  // namespace mirror::monet
