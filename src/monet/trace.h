#ifndef MIRROR_MONET_TRACE_H_
#define MIRROR_MONET_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "monet/bat.h"

namespace mirror::monet {

/// Per-query execution tracing, in the MonetDB TRACE tradition: profiling
/// data is relational. A traced run records one span per executed MIL
/// instruction (plus finer-grained morsel spans for the parallel kernels)
/// into per-thread buffers; the merged spans convert to a set of
/// void-headed BATs (TraceToBats) that travel over the daemon's TRACE
/// frame and can be stored and queried with the same algebra the engine
/// runs. Tracing is armed per query by ExecOptions.trace — when off, the
/// hot path pays exactly one null-pointer branch per instruction.

/// What a span measures.
enum class TraceSpanKind : uint8_t {
  kInstr = 0,   // one MIL instruction execution (per shard when sharded)
  kMorsel = 1,  // one morsel task a kernel dispatched on the pool
};

/// Sentinel instruction index for spans not tied to a program position
/// (morsel spans: the kernel below the engine does not know its
/// instruction).
constexpr uint32_t kTraceNoInstr = 0xffffffffu;

/// One recorded span. Times are steady-clock nanoseconds relative to the
/// owning QueryTrace's epoch (query start), so spans from every thread
/// share one timeline. The tuple/prune fields are deltas of the global
/// kernel counters across the span: exact when the span ran alone,
/// best-effort attribution when concurrent spans overlap (concurrent
/// kernels bleed into each other's deltas — the totals stay exact).
struct TraceSpan {
  uint32_t instr = kTraceNoInstr;  // MIL instruction index
  TraceSpanKind kind = TraceSpanKind::kInstr;
  int32_t shard = -1;   // shard the work ran against; -1 = global
  uint32_t thread = 0;  // dense per-trace recording-thread id
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t tuples_in = 0;
  uint64_t tuples_out = 0;
  uint64_t morsels = 0;      // morsel tasks the span dispatched
  uint64_t zone_skips = 0;   // zone-map blocks pruned inside the span
  uint64_t topk_prunes = 0;  // top-k morsel + shard prunes inside the span
  uint64_t bloom_hits = 0;   // Bloom-filter probe rejects inside the span
  const char* opcode = "";   // static-storage opcode / kernel label
};

/// Process-wide count of spans ever recorded (relaxed). The knob-off
/// tests check this stays flat: an untraced query must not touch a
/// buffer, let alone allocate one.
uint64_t TraceSpansRecorded();

/// The per-query span sink. One QueryTrace serves one traced execution at
/// a time: the engine Clear()s it at Run() entry, recording threads
/// acquire a private buffer on first touch (one mutex acquisition per
/// thread per query, then lock-free appends), and the owner merges after
/// the run returns. Clear() must not race recording — the engine owns the
/// sink for the duration of the run.
class QueryTrace {
 public:
  QueryTrace();
  QueryTrace(const QueryTrace&) = delete;
  QueryTrace& operator=(const QueryTrace&) = delete;

  /// Drops all buffers and restamps the epoch; ready for the next query.
  void Clear();

  /// All spans across all thread buffers, sorted by (start_ns, thread).
  std::vector<TraceSpan> Merge() const;

  /// Total spans currently buffered.
  size_t span_count() const;

  /// Steady-clock epoch the span times are relative to.
  std::chrono::steady_clock::time_point epoch() const { return epoch_; }

  /// Nanoseconds from the epoch to now (what a recorder stamps).
  uint64_t NowNanos() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// The calling thread's buffer for this trace generation, created (and
  /// assigned the next dense thread id) on first touch. The returned
  /// buffer is only ever appended to by the calling thread. A pool
  /// thread alternating between traced queries finds its buffer again by
  /// `owner`, so each query keeps one lane per thread.
  struct Buffer {
    uint32_t thread_id = 0;
    std::thread::id owner;
    std::vector<TraceSpan> spans;
  };
  Buffer* Local();

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  /// Globally unique generation of this (trace, Clear) pair — validates
  /// the thread-local buffer cache in Local() across reuse and across
  /// distinct traces that landed on the same address.
  std::atomic<uint64_t> generation_;
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII span recorder. A null trace is inert (the knob-off path). kInstr
/// spans snapshot the global kernel counters at both ends and store the
/// deltas; kMorsel spans record timing and thread attribution only.
class TraceSpanRecorder {
 public:
  TraceSpanRecorder(QueryTrace* trace, uint32_t instr, const char* opcode,
                    int32_t shard,
                    TraceSpanKind kind = TraceSpanKind::kInstr);
  TraceSpanRecorder(const TraceSpanRecorder&) = delete;
  TraceSpanRecorder& operator=(const TraceSpanRecorder&) = delete;
  ~TraceSpanRecorder();

 private:
  QueryTrace* trace_;
  TraceSpan span_;
  uint64_t in0_ = 0, out0_ = 0, morsel0_ = 0;
  uint64_t zone0_ = 0, topk0_ = 0, bloom0_ = 0;
};

/// The merged trace as a relational table: parallel void-headed BATs, one
/// row per span, in span order. Columns (tail types in parentheses):
///   instr(int) opcode(str) kind(int) shard(int) thread(int)
///   start_ns(int) dur_ns(int) tuples_in(int) tuples_out(int)
///   morsels(int) zone_skips(int) topk_prunes(int) bloom_hits(int)
struct TraceTable {
  std::vector<std::string> names;
  std::vector<Bat> cols;
  size_t rows = 0;
};
TraceTable TraceToBats(const std::vector<TraceSpan>& spans);

}  // namespace mirror::monet

#endif  // MIRROR_MONET_TRACE_H_
