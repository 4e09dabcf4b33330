// Per-query execution tracing (monet/trace.h): span completeness — every
// executed MIL instruction yields exactly one kInstr span per execution
// site (one global span unsharded, one span per shard for fanned-out
// instructions), shard and thread attribution stays consistent under the
// parallel scatter/gather engine, the knob-off path records nothing at
// all, and the trace-as-BATs projection is faithful to the span list.

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "monet/bat.h"
#include "monet/catalog.h"
#include "monet/exec.h"
#include "monet/mil.h"
#include "monet/trace.h"

namespace mirror::monet {
namespace {

namespace mil = monet::mil;

mil::Instr Load(const std::string& name) {
  mil::Instr i;
  i.op = mil::OpCode::kLoadNamed;
  i.name = name;
  return i;
}

Catalog BuildCatalog(int rows) {
  Catalog catalog;
  base::Rng rng(23);
  std::vector<int64_t> val;
  std::vector<double> score;
  for (int i = 0; i < rows; ++i) {
    val.push_back(i % 3 == 0 ? 7 : rng.UniformInt(0, 40));
    score.push_back(rng.UniformDouble(-2.0, 2.0));
  }
  catalog.Put("S.val", Bat::DenseInts(val));
  catalog.Put("S.score", Bat::DenseDbls(score));
  return catalog;
}

/// select(val == 7) -> semijoin(score) -> per-head sum: every
/// instruction in the chain is shard-local, so the sharded engine fans
/// each one out once per shard.
mil::Program BuildChain() {
  mil::Program p;
  auto emit = [&p](mil::Instr i) {
    i.dst = p.NewReg();
    return p.Emit(std::move(i));
  };
  int val = emit(Load("S.val"));
  mil::Instr sel;
  sel.op = mil::OpCode::kSelectEq;
  sel.src0 = val;
  sel.imm0 = Value::MakeInt(7);
  int selected = emit(std::move(sel));
  int score = emit(Load("S.score"));
  mil::Instr semi;
  semi.op = mil::OpCode::kSemiJoinHead;
  semi.src0 = score;
  semi.src1 = selected;
  int kept = emit(std::move(semi));
  mil::Instr agg;
  agg.op = mil::OpCode::kSumPerHead;
  agg.src0 = kept;
  p.set_result_reg(emit(std::move(agg)));
  return p;
}

std::vector<TraceSpan> InstrSpans(const std::vector<TraceSpan>& spans) {
  std::vector<TraceSpan> out;
  for (const TraceSpan& s : spans) {
    if (s.kind == TraceSpanKind::kInstr) out.push_back(s);
  }
  return out;
}

TEST(QueryTraceTest, SequentialRunCoversEveryInstructionExactlyOnce) {
  Catalog catalog = BuildCatalog(500);
  mil::Program p = BuildChain();
  QueryTrace trace;
  mil::ExecOptions opts;
  opts.num_threads = 1;
  opts.trace = true;
  opts.trace_sink = &trace;
  auto result = mil::ExecutionEngine(&catalog, opts).Run(p);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::vector<TraceSpan> spans = InstrSpans(trace.Merge());
  ASSERT_EQ(spans.size(), p.instrs().size());
  std::set<uint32_t> seen;
  for (const TraceSpan& s : spans) {
    EXPECT_TRUE(seen.insert(s.instr).second)
        << "instruction " << s.instr << " recorded twice";
    ASSERT_LT(s.instr, p.instrs().size());
    EXPECT_EQ(s.shard, -1) << "unsharded spans are global";
    EXPECT_LE(s.start_ns, s.end_ns);
    EXPECT_STREQ(s.opcode, mil::OpCodeName(p.instrs()[s.instr].op));
  }
  EXPECT_EQ(seen.size(), p.instrs().size());
}

TEST(QueryTraceTest, ShardedRunAttributesSpansToEveryShard) {
  Catalog catalog = BuildCatalog(2000);
  mil::Program p = BuildChain();
  constexpr size_t kShards = 2;
  QueryTrace trace;
  mil::ExecOptions opts;
  opts.num_threads = 2;
  opts.num_shards = kShards;
  opts.trace = true;
  opts.trace_sink = &trace;
  const auto wall_start = std::chrono::steady_clock::now();
  auto result = mil::ExecutionEngine(&catalog, opts).Run(p);
  const uint64_t wall_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Exactly one span per (instruction, execution site): a fanned-out
  // instruction contributes one span per shard, a global instruction
  // one span with shard == -1 — never both, never a duplicate.
  std::map<uint32_t, std::set<int32_t>> sites;
  std::map<uint32_t, uint64_t> per_thread_ns;
  uint32_t max_thread = 0;
  for (const TraceSpan& s : InstrSpans(trace.Merge())) {
    ASSERT_LT(s.instr, p.instrs().size());
    EXPECT_TRUE(sites[s.instr].insert(s.shard).second)
        << "instr " << s.instr << " shard " << s.shard << " seen twice";
    max_thread = std::max(max_thread, s.thread);
    EXPECT_LE(s.end_ns - s.start_ns, wall_ns)
        << "a span outlasted the whole run";
    per_thread_ns[s.thread] += s.end_ns - s.start_ns;
  }
  // Spans on one thread never overlap, so each thread's summed span
  // time is bounded by the run's wall time (small slack for clock
  // granularity at the span edges).
  for (const auto& [thread, ns] : per_thread_ns) {
    EXPECT_LE(ns, wall_ns + wall_ns / 10)
        << "thread " << thread << " reports more span time than the run";
  }
  ASSERT_EQ(sites.size(), p.instrs().size()) << "an instruction left no span";
  size_t fanned_out = 0;
  for (const auto& [instr, shards] : sites) {
    if (shards.count(-1) > 0) {
      EXPECT_EQ(shards.size(), 1u)
          << "instr " << instr << " is both global and per-shard";
    } else {
      // Fanned out: every shard must report, no phantom shard ids.
      std::set<int32_t> want;
      for (size_t sh = 0; sh < kShards; ++sh) {
        want.insert(static_cast<int32_t>(sh));
      }
      EXPECT_EQ(shards, want) << "instr " << instr;
      ++fanned_out;
    }
  }
  EXPECT_GT(fanned_out, 0u) << "no instruction fanned out across shards";
  // Thread ids are dense per-trace ordinals; with a 2-thread pool plus
  // the coordinating thread they stay small.
  EXPECT_LE(max_thread, 3u);
}

TEST(QueryTraceTest, MorselSpansCarryTheDriverShard) {
  Catalog catalog = BuildCatalog(20000);
  mil::Program p = BuildChain();
  QueryTrace trace;
  mil::ExecOptions opts;
  opts.num_threads = 4;
  opts.morsel_size = 1024;  // force multi-morsel kernels
  opts.trace = true;
  opts.trace_sink = &trace;
  auto result = mil::ExecutionEngine(&catalog, opts).Run(p);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  size_t morsel_spans = 0;
  for (const TraceSpan& s : trace.Merge()) {
    if (s.kind != TraceSpanKind::kMorsel) continue;
    ++morsel_spans;
    EXPECT_EQ(s.instr, kTraceNoInstr);
    EXPECT_NE(std::string(s.opcode), "");
  }
  EXPECT_GT(morsel_spans, 1u) << "morsel drivers recorded no spans";
}

TEST(QueryTraceTest, KnobOffRecordsNothing) {
  Catalog catalog = BuildCatalog(2000);
  mil::Program p = BuildChain();
  QueryTrace trace;
  mil::ExecOptions opts;
  opts.num_threads = 2;
  opts.num_shards = 2;
  // trace defaults to false; a wired sink alone must stay silent.
  opts.trace_sink = &trace;
  const uint64_t before = TraceSpansRecorded();
  auto result = mil::ExecutionEngine(&catalog, opts).Run(p);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(TraceSpansRecorded(), before)
      << "untraced execution recorded spans";
  EXPECT_EQ(trace.span_count(), 0u);
}

TEST(QueryTraceTest, RerunClearsThePreviousTrace) {
  Catalog catalog = BuildCatalog(500);
  mil::Program p = BuildChain();
  QueryTrace trace;
  mil::ExecOptions opts;
  opts.num_threads = 1;
  opts.trace = true;
  opts.trace_sink = &trace;
  mil::ExecutionEngine engine(&catalog, opts);
  ASSERT_TRUE(engine.Run(p).ok());
  const size_t first = trace.span_count();
  ASSERT_TRUE(engine.Run(p).ok());
  // The engine Clear()s the sink at Run() entry: the second trace
  // replaces the first instead of accumulating onto it.
  EXPECT_EQ(trace.span_count(), first);
}

TEST(QueryTraceTest, ThreadAlternatingBetweenTracesKeepsOneLanePerTrace) {
  // A shared pool thread serves several sessions' traced queries in turn:
  // returning to trace A after recording into B must reuse A's lane,
  // not open a second one with a fresh thread id.
  QueryTrace a;
  QueryTrace b;
  auto record = [](QueryTrace* t) {
    TraceSpanRecorder span(t, kTraceNoInstr, "morsel", -1,
                           TraceSpanKind::kMorsel);
  };
  record(&a);
  record(&b);
  record(&a);
  std::vector<TraceSpan> spans = a.Merge();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].thread, spans[1].thread);
  EXPECT_EQ(b.Merge().size(), 1u);
}

TEST(QueryTraceTest, TraceToBatsProjectsSpansFaithfully) {
  Catalog catalog = BuildCatalog(2000);
  mil::Program p = BuildChain();
  QueryTrace trace;
  mil::ExecOptions opts;
  opts.num_threads = 2;
  opts.num_shards = 2;
  opts.trace = true;
  opts.trace_sink = &trace;
  ASSERT_TRUE(mil::ExecutionEngine(&catalog, opts).Run(p).ok());
  std::vector<TraceSpan> spans = trace.Merge();
  TraceTable table = TraceToBats(spans);
  ASSERT_EQ(table.names.size(), table.cols.size());
  ASSERT_EQ(table.rows, spans.size());
  // Spans arrive sorted by start time: the start_ns column must be
  // non-decreasing and each column row-aligned with the span list.
  auto col = [&table](const std::string& name) -> const Bat* {
    for (size_t i = 0; i < table.names.size(); ++i) {
      if (table.names[i] == name) return &table.cols[i];
    }
    return nullptr;
  };
  const Bat* instr = col("instr");
  const Bat* opcode = col("opcode");
  const Bat* shard = col("shard");
  const Bat* start = col("start_ns");
  ASSERT_NE(instr, nullptr);
  ASSERT_NE(opcode, nullptr);
  ASSERT_NE(shard, nullptr);
  ASSERT_NE(start, nullptr);
  int64_t prev = -1;
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t want_instr =
        spans[i].instr == kTraceNoInstr
            ? -1
            : static_cast<int64_t>(spans[i].instr);
    EXPECT_EQ(instr->tail().IntAt(i), want_instr);
    EXPECT_EQ(opcode->tail().StrAt(i), spans[i].opcode);
    EXPECT_EQ(shard->tail().IntAt(i), spans[i].shard);
    const int64_t s = start->tail().IntAt(i);
    EXPECT_GE(s, prev);
    prev = s;
  }
}

}  // namespace
}  // namespace mirror::monet
