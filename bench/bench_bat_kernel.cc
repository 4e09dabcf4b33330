// Experiment E10: microbenchmarks of the binary relational kernel (the
// physical substrate of §2) using google-benchmark: selection, joins,
// grouped aggregation, sorting and the probabilistic belief operator,
// over a sweep of column sizes, and select by selectivity at 1 and 4
// threads — plus the vectorized-engine comparison: the same
// selection-heavy MIL plan on the materializing sequential Executor vs.
// the candidate-vector ExecutionEngine — and the string heap's bulk
// build and restore (time plus the bytes the heap holds).

#include <malloc.h>

#include <benchmark/benchmark.h>

#include "base/rng.h"
#include "monet/bat_ops.h"
#include "monet/cache_info.h"
#include "monet/exec.h"
#include "monet/prob_ops.h"

namespace {

using namespace mirror::monet;  // NOLINT(build/namespaces)

Bat RandomInts(int64_t n, int64_t domain, uint64_t seed) {
  mirror::base::Rng rng(seed);
  std::vector<int64_t> tails(static_cast<size_t>(n));
  for (auto& t : tails) t = rng.UniformInt(0, domain - 1);
  return Bat::DenseInts(std::move(tails));
}

Bat RandomOidHeads(int64_t n, int64_t domain, uint64_t seed) {
  mirror::base::Rng rng(seed);
  std::vector<Oid> heads(static_cast<size_t>(n));
  std::vector<double> tails(static_cast<size_t>(n));
  for (size_t i = 0; i < heads.size(); ++i) {
    heads[i] = rng.Uniform(static_cast<uint64_t>(domain));
    tails[i] = rng.UniformDouble();
  }
  return Bat(Column::MakeOids(std::move(heads)),
             Column::MakeDbls(std::move(tails)));
}

void BM_SelectRange(benchmark::State& state) {
  Bat b = RandomInts(state.range(0), 1000, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SelectRange(b, Value::MakeInt(100), Value::MakeInt(200), true, true));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SelectRange)->Range(1 << 10, 1 << 18);

// One candidate select over 1M uniform int64 rows in [0, 1000) keeping
// range(0) per mille of them (2%, 25%, 50% or all), inline (range(1) = 1)
// or in morsels on 4 threads.
void BM_SelectBySelectivity(benchmark::State& state) {
  constexpr int64_t kRows = 1000000;
  Bat b = RandomInts(kRows, 1000, 7);
  WorkerPool pool;
  MorselExec mx;
  if (state.range(1) > 1) {
    pool.EnsureWorkers(static_cast<size_t>(state.range(1) - 1));
    mx = MorselExec{&pool, DefaultMorselSize()};
  }
  const SelectInterval below = SelectInterval::Cmp(
      ValueType::kInt, CmpOp::kLt, Value::MakeInt(state.range(0)));
  for (auto _ : state) {
    CandidateList kept = SelectCand(b, below, nullptr, mx);
    benchmark::DoNotOptimize(kept.size());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_SelectBySelectivity)
    ->ArgsProduct({{20, 250, 500, 1000}, {1, 4}})
    ->Unit(benchmark::kMicrosecond);

void BM_HashJoin(benchmark::State& state) {
  int64_t n = state.range(0);
  Bat l(Column::MakeOids(std::vector<Oid>(static_cast<size_t>(n), 0)),
        RandomInts(n, n / 4 + 1, 2).tail());
  Bat r(RandomInts(n / 4 + 1, n / 4 + 1, 3).tail(),
        Column::MakeDbls(
            std::vector<double>(static_cast<size_t>(n / 4 + 1), 1.0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Join(l, r));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HashJoin)->Range(1 << 10, 1 << 17);

void BM_FetchJoin(benchmark::State& state) {
  int64_t n = state.range(0);
  mirror::base::Rng rng(4);
  std::vector<Oid> refs(static_cast<size_t>(n));
  for (auto& o : refs) o = rng.Uniform(static_cast<uint64_t>(n));
  Bat l = Bat::DenseOids(std::move(refs));
  Bat r = RandomInts(n, 100, 5);  // void-headed
  for (auto _ : state) {
    benchmark::DoNotOptimize(Join(l, r));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FetchJoin)->Range(1 << 10, 1 << 18);

void BM_SemiJoinHead(benchmark::State& state) {
  int64_t n = state.range(0);
  Bat l = RandomOidHeads(n, n, 6);
  Bat r = RandomOidHeads(n / 8 + 1, n, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SemiJoinHead(l, r));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SemiJoinHead)->Range(1 << 10, 1 << 18);

void BM_SumPerHead(benchmark::State& state) {
  Bat b = RandomOidHeads(state.range(0), state.range(0) / 16 + 1, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AggregatePerHead(b, nullptr, AggKind::kSum));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SumPerHead)->Range(1 << 10, 1 << 18);

void BM_SortByTail(benchmark::State& state) {
  Bat b = RandomInts(state.range(0), 1 << 30, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SortByTail(b, true));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SortByTail)->Range(1 << 10, 1 << 17);

void BM_MultiplexMul(benchmark::State& state) {
  int64_t n = state.range(0);
  mirror::base::Rng rng(10);
  std::vector<double> a(static_cast<size_t>(n));
  std::vector<double> b(static_cast<size_t>(n));
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.UniformDouble();
    b[i] = rng.UniformDouble();
  }
  Bat l = Bat::DenseDbls(std::move(a));
  Bat r = Bat::DenseDbls(std::move(b));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MapBinary(l, r, BinOp::kMul));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MultiplexMul)->Range(1 << 10, 1 << 18);

void BM_TopNByTail(benchmark::State& state) {
  Bat b = RandomInts(state.range(0), 1 << 30, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TopNByTail(b, 10, /*descending=*/true));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TopNByTail)->Range(1 << 10, 1 << 18);

// --------------------------------------------------------------------------
// Vectorized engine vs materializing executor on a selection-heavy plan:
// load -> select.range -> select.cmp -> select.neq -> semijoin -> slice.

namespace mil = mirror::monet::mil;

mil::Program SelectionHeavyProgram(int64_t n) {
  mil::Program prog;
  mil::Instr load;
  load.op = mil::OpCode::kLoadNamed;
  load.name = "nums";
  load.dst = prog.NewReg();
  prog.Emit(load);
  // A chain of predicates each passing most rows: the shape where the
  // materializing interpreter's per-operator tuple copies dominate.
  mil::Instr range;
  range.op = mil::OpCode::kSelectRange;
  range.src0 = load.dst;
  range.imm0 = Value::MakeInt(10);
  range.imm1 = Value::MakeInt(985);
  range.flag0 = true;
  range.flag1 = true;
  range.dst = prog.NewReg();
  prog.Emit(range);
  int prev = range.dst;
  for (int64_t unwanted : {500, 501, 502, 503}) {
    mil::Instr neq;
    neq.op = mil::OpCode::kSelectNeq;
    neq.src0 = prev;
    neq.imm0 = Value::MakeInt(unwanted);
    neq.dst = prog.NewReg();
    prev = prog.Emit(neq);
  }
  mil::Instr cmp;
  cmp.op = mil::OpCode::kSelectCmp;
  cmp.cmp_op = CmpOp::kGt;
  cmp.imm0 = Value::MakeInt(25);
  cmp.src0 = prev;
  cmp.dst = prog.NewReg();
  prog.Emit(cmp);
  mil::Instr keys;
  keys.op = mil::OpCode::kLoadNamed;
  keys.name = "keys";
  keys.dst = prog.NewReg();
  prog.Emit(keys);
  mil::Instr semi;
  semi.op = mil::OpCode::kSemiJoinHead;
  semi.src0 = cmp.dst;
  semi.src1 = keys.dst;
  semi.dst = prog.NewReg();
  prog.Emit(semi);
  mil::Instr slice;
  slice.op = mil::OpCode::kSlice;
  slice.src0 = semi.dst;
  slice.n = 0;
  slice.n2 = n / 8;  // top slice of the surviving pipeline
  slice.dst = prog.NewReg();
  prog.Emit(slice);
  prog.set_result_reg(slice.dst);
  return prog;
}

Catalog SelectionCatalog(int64_t n) {
  Catalog catalog;
  catalog.Put("nums", RandomInts(n, 1000, 21));
  // Small build side: the semijoin's hash build is shared by both
  // execution paths; the pipeline's tuple copies are what differs.
  std::vector<Oid> key_heads;
  for (Oid o = 0; o < static_cast<Oid>(n); o += 16) key_heads.push_back(o);
  size_t num_keys = key_heads.size();
  catalog.Put("keys",
              Bat(Column::MakeOids(std::move(key_heads)),
                  Column::MakeInts(std::vector<int64_t>(num_keys, 0))));
  return catalog;
}

void BM_MilPlanSequentialMaterializing(benchmark::State& state) {
  Catalog catalog = SelectionCatalog(state.range(0));
  mil::Program prog = SelectionHeavyProgram(state.range(0));
  mil::Executor executor(&catalog);
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.Run(prog));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MilPlanSequentialMaterializing)->Range(1 << 14, 1 << 20);

void BM_MilPlanCandidateEngine(benchmark::State& state) {
  Catalog catalog = SelectionCatalog(state.range(0));
  mil::Program prog = SelectionHeavyProgram(state.range(0));
  mil::ExecutionEngine engine(
      &catalog,
      mil::ExecOptions{.num_threads = static_cast<int>(state.range(1))});
  mil::ExecutionContext session;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Run(prog, &session));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MilPlanCandidateEngine)
    ->ArgsProduct({{1 << 14, 1 << 17, 1 << 20}, {1, 4}});

void BM_BeliefTfIdf(benchmark::State& state) {
  int64_t n = state.range(0);
  mirror::base::Rng rng(11);
  std::vector<int64_t> tf(static_cast<size_t>(n));
  std::vector<int64_t> df(static_cast<size_t>(n));
  std::vector<int64_t> len(static_cast<size_t>(n));
  for (size_t i = 0; i < tf.size(); ++i) {
    tf[i] = rng.UniformInt(1, 8);
    df[i] = rng.UniformInt(1, 500);
    len[i] = rng.UniformInt(20, 80);
  }
  Bat tf_bat = Bat::DenseInts(std::move(tf));
  Bat df_bat = Bat::DenseInts(std::move(df));
  Bat len_bat = Bat::DenseInts(std::move(len));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BeliefTfIdf(tf_bat, df_bat, len_bat, 10000, 50.0, BeliefParams()));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BeliefTfIdf)->Range(1 << 10, 1 << 18);

// String heaps: build a string column from `n` spellings "c<i % distinct>"
// (1M distinct is Cat.u's shape), and restore the 1M-spelling heap from its
// persisted buffer. The heap_bytes counter is what the heap holds once
// built — payload buffer plus dedup index — measured as glibc's
// allocated-bytes delta (mmapped blocks included).

size_t AllocatedBytes() {
  struct mallinfo2 m = mallinfo2();
  return m.uordblks + m.hblkhd;
}

std::vector<std::string> Spellings(int64_t n, int64_t distinct) {
  std::vector<std::string> v;
  v.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    v.push_back("c" + std::to_string(i % distinct));
  }
  return v;
}

void BM_StrColumnBuild(benchmark::State& state) {
  const std::vector<std::string> v = Spellings(state.range(0), state.range(1));
  const size_t before = AllocatedBytes();
  {
    Column c = Column::MakeStrs(v);
    state.counters["heap_bytes"] = static_cast<double>(
        AllocatedBytes() - before - c.str_offsets().size_bytes());
  }
  for (auto _ : state) benchmark::DoNotOptimize(Column::MakeStrs(v));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StrColumnBuild)
    ->Args({1000000, 1000000})
    ->Args({1000000, 1000})
    ->Unit(benchmark::kMillisecond);

void BM_StrHeapFromBuffer(benchmark::State& state) {
  const Column c = Column::MakeStrs(Spellings(1000000, 1000000));
  const std::string& buffer = c.heap()->buffer();
  {
    std::string copy = buffer;
    const size_t before = AllocatedBytes();
    StringHeap heap = StringHeap::FromBuffer(std::move(copy));
    state.counters["heap_bytes"] = static_cast<double>(
        AllocatedBytes() - before + heap.buffer().capacity());
  }
  for (auto _ : state) {
    state.PauseTiming();
    std::string copy = buffer;
    state.ResumeTiming();
    benchmark::DoNotOptimize(StringHeap::FromBuffer(std::move(copy)));
  }
  state.SetItemsProcessed(state.iterations() * 1000000);
}
BENCHMARK(BM_StrHeapFromBuffer)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
