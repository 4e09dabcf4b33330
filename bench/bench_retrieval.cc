// Experiment E3 (paper §3): inference-network ranking over the CONTREP
// representation — scaling with collection size and query length, and
// inverted (postings-range) vs full-scan candidate location. E3c adds
// the vectorized-execution comparison: the same retrieval queries on the
// materializing sequential executor vs. the candidate-vector
// ExecutionEngine (1 and 4 worker threads, with the session plan cache),
// emitting BENCH_retrieval.json for CI. E3d gates the morsel +
// fused-aggregation work: a select→SumPerHead plan over the 400k-row
// catalog must run with zero Materialize() calls and beat the sequential
// Executor by >= 1.5x at 4 threads.

#include <cstdio>
#include <cstdint>
#include <memory>
#include <thread>

#include "base/rng.h"
#include "base/stopwatch.h"
#include "base/str_util.h"
#include "base/table_printer.h"
#include "daemon/query_server.h"
#include "daemon/wire.h"
#include "daemon/wire_client.h"
#include "ir/inference_network.h"
#include "ir/synthetic_text.h"
#include "mirror/mirror_db.h"
#include "monet/profiler.h"
#include "monet/trace.h"
#include "monet/zone_map.h"

namespace {

using namespace mirror;  // NOLINT(build/namespaces)
using ir::ContentIndex;
using ir::EvalStrategy;
using ir::InferenceNetwork;

double TimeRank(const InferenceNetwork& network,
                const std::vector<int64_t>& terms, EvalStrategy strategy,
                int repeats) {
  double best = 1e100;
  for (int r = 0; r < repeats; ++r) {
    base::Stopwatch sw;
    auto ranking = network.RankSum(terms, strategy);
    MIRROR_CHECK(!ranking.empty() || terms.empty());
    best = std::min(best, sw.ElapsedMillis());
  }
  return best;
}

constexpr const char* kWords[] = {"sun",  "sea",  "sky",  "rock", "tree",
                                  "bird", "sand", "wave", "moss", "dune",
                                  "reef", "palm", "surf", "cliff", "cloud"};

/// Loads the E3c workload: a 16k-document annotated set (ranking
/// queries) and a 400k-row atomic catalog (selection-heavy queries).
void BuildRetrievalDb(db::MirrorDb* database, int docs, int catalog_rows,
                      uint64_t seed) {
  base::Rng rng(seed);
  MIRROR_CHECK(database
                   ->Define("define Lib as SET<TUPLE<Atomic<URL>: u, "
                            "Atomic<int>: year, Atomic<int>: rating, "
                            "CONTREP<Text>: doc>>;")
                   .ok());
  std::vector<moa::MoaValue> objects;
  objects.reserve(static_cast<size_t>(docs));
  for (int i = 0; i < docs; ++i) {
    std::vector<std::string> terms;
    int len = 3 + static_cast<int>(rng.Uniform(12));
    for (int t = 0; t < len; ++t) {
      terms.push_back(kWords[rng.Uniform(std::size(kWords))]);
    }
    objects.push_back(moa::MoaValue::Tuple(
        {moa::MoaValue::Str("u" + std::to_string(i)),
         moa::MoaValue::Int(rng.UniformInt(1970, 2025)),
         moa::MoaValue::Int(rng.UniformInt(0, 100)),
         moa::MoaValue::ContRep(terms)}));
  }
  MIRROR_CHECK(database->Load("Lib", std::move(objects)).ok());

  MIRROR_CHECK(database
                   ->Define("define Cat as SET<TUPLE<Atomic<URL>: u, "
                            "Atomic<int>: year, Atomic<int>: rating, "
                            "Atomic<int>: ref>>;")
                   .ok());
  std::vector<moa::MoaValue> rows;
  rows.reserve(static_cast<size_t>(catalog_rows));
  for (int i = 0; i < catalog_rows; ++i) {
    rows.push_back(moa::MoaValue::Tuple(
        {moa::MoaValue::Str("c" + std::to_string(i)),
         moa::MoaValue::Int(rng.UniformInt(1900, 2025)),
         moa::MoaValue::Int(rng.UniformInt(0, 1000)),
         moa::MoaValue::Int(rng.UniformInt(0, catalog_rows - 1))}));
  }
  MIRROR_CHECK(database->Load("Cat", std::move(rows)).ok());
}

/// Best-of-`repeats` latency. When `invalidate_each` is set, the session's
/// plan cache is cleared per repetition, so the time covers the whole
/// parse → flatten → optimize → execute path (the engine's process-wide
/// worker pool persists either way).
double TimeQuery(const db::MirrorDb& database, const std::string& query,
                 const moa::QueryContext& ctx, const db::QueryOptions& options,
                 monet::mil::ExecutionContext* session, int repeats,
                 bool invalidate_each) {
  double best = 1e100;
  for (int r = 0; r < repeats; ++r) {
    if (invalidate_each) session->InvalidatePlans();
    base::Stopwatch sw;
    auto result = database.Query(query, ctx, options, session);
    MIRROR_CHECK(result.ok()) << result.status().ToString();
    best = std::min(best, sw.ElapsedMillis());
  }
  return best;
}

/// Best-of-5 latency of `plan` on the materializing sequential
/// mil::Executor: the E3d/E3e baseline.
double TimeSequential(const monet::Catalog* catalog,
                      const monet::mil::Program& plan) {
  monet::mil::Executor executor(catalog);
  double best = 1e100;
  for (int r = 0; r < 5; ++r) {
    base::Stopwatch sw;
    auto result = executor.Run(plan);
    MIRROR_CHECK(result.ok()) << result.status().ToString();
    best = std::min(best, sw.ElapsedMillis());
  }
  return best;
}

struct EngineComparison {
  double sequential_ms = 0;
  double engine1_ms = 0;
  double engine4_ms = 0;
  double engine4_cached_ms = 0;
  /// Counts that repeat exactly run to run: select instructions in the
  /// optimized plan, and the tuples the engine reads at 1 thread,
  /// unsharded, with the recycler off.
  int select_instrs = 0;
  uint64_t tuples_in = 0;
};

EngineComparison CompareEngines(db::MirrorDb* database, const char* label,
                                const std::string& query,
                                const moa::QueryContext& ctx) {
  EngineComparison out;
  db::QueryOptions engine1;
  engine1.exec.num_threads = 1;
  db::QueryOptions engine4;
  engine4.exec.num_threads = 4;

  // The baseline does the same parse → flatten → optimize work as the
  // plan-cache-invalidated engine rows below, then runs the plan on the
  // sequential Executor.
  out.sequential_ms = 1e100;
  for (int r = 0; r < 5; ++r) {
    base::Stopwatch sw;
    auto prepared = database->Prepare(query, ctx, engine1);
    MIRROR_CHECK(prepared.ok()) << prepared.status().ToString();
    auto run = monet::mil::Executor(database->catalog())
                   .Run(prepared.value().program);
    MIRROR_CHECK(run.ok()) << run.status().ToString();
    out.sequential_ms = std::min(out.sequential_ms, sw.ElapsedMillis());
  }
  monet::mil::ExecutionContext session;
  out.engine1_ms =
      TimeQuery(*database, query, ctx, engine1, &session, 5, true);
  out.engine4_ms =
      TimeQuery(*database, query, ctx, engine4, &session, 5, true);
  // Warm once, then time the plan-cache fast path (no parse/flatten).
  session.InvalidatePlans();
  auto warm = database->Query(query, ctx, engine4, &session);
  MIRROR_CHECK(warm.ok());
  out.engine4_cached_ms =
      TimeQuery(*database, query, ctx, engine4, &session, 5, false);
  MIRROR_CHECK(session.plan_cache_hits() > 0);

  db::QueryOptions counted = engine1;
  counted.exec.num_shards = 1;
  counted.exec.recycle = false;
  auto prepared = database->Prepare(query, ctx, counted);
  MIRROR_CHECK(prepared.ok()) << prepared.status().ToString();
  for (const monet::mil::Instr& i : prepared.value().program.instrs()) {
    out.select_instrs += i.op == monet::mil::OpCode::kSelectEq ||
                         i.op == monet::mil::OpCode::kSelectCmp ||
                         i.op == monet::mil::OpCode::kSelectRange;
  }
  monet::ResetKernelStats();
  MIRROR_CHECK(database->Query(query, ctx, counted).ok());
  out.tuples_in = monet::SnapshotKernelStats().tuples_in;

  std::printf("%s\n\n", label);
  base::TablePrinter table({"path", "ms", "vs sequential"});
  auto row = [&](const char* name, double ms) {
    table.AddRow({name, base::StrFormat("%.3f", ms),
                  base::StrFormat("%.2fx", out.sequential_ms / ms)});
  };
  row("sequential materializing Executor", out.sequential_ms);
  row("engine 1 thread, candidates", out.engine1_ms);
  row("engine 4 threads, candidates", out.engine4_ms);
  row("engine 4 threads + plan cache", out.engine4_cached_ms);
  table.Print();
  std::printf(
      "select instructions: %d, tuples in (1 thread, recycler off): %llu\n\n",
      out.select_instrs, static_cast<unsigned long long>(out.tuples_in));
  return out;
}

// E3d: the select→SumPerHead 400k-row plan, engine-only (the MIL is
// built directly so the measured work is exactly one candidate pipeline
// feeding one aggregate). The baseline is the sequential Executor on the
// same plan: it materializes every intermediate — 400k-ish tuple copies
// whose gathered oid head then forces a hash group-by — while the fused
// path aggregates over the view, where the still-void head makes every
// group a provable singleton.
struct AggComparison {
  double sequential_ms = 0;
  double engine1_fused_ms = 0;
  double engine4_fused_ms = 0;
  uint64_t fused_materialize_calls = 0;
  uint64_t fused_agg_ops = 0;
};

monet::mil::Program BuildSelectSumPerHeadPlan() {
  namespace mil = monet::mil;
  mil::Program p;
  auto emit = [&p](mil::Instr i) {
    i.dst = p.NewReg();
    return p.Emit(std::move(i));
  };
  mil::Instr load_year;
  load_year.op = mil::OpCode::kLoadNamed;
  load_year.name = "Cat.year";
  int year = emit(std::move(load_year));
  mil::Instr sel;
  sel.op = mil::OpCode::kSelectRange;
  sel.src0 = year;
  sel.imm0 = monet::Value::MakeInt(1905);
  sel.imm1 = monet::Value::MakeInt(2020);
  sel.flag0 = true;
  sel.flag1 = true;
  int selected = emit(std::move(sel));
  mil::Instr load_rating;
  load_rating.op = mil::OpCode::kLoadNamed;
  load_rating.name = "Cat.rating";
  int rating = emit(std::move(load_rating));
  mil::Instr semi;
  semi.op = mil::OpCode::kSemiJoinHead;
  semi.src0 = rating;
  semi.src1 = selected;
  int kept = emit(std::move(semi));
  mil::Instr agg;
  agg.op = mil::OpCode::kSumPerHead;
  agg.src0 = kept;
  p.set_result_reg(emit(std::move(agg)));
  return p;
}

AggComparison RunE3d(db::MirrorDb* database) {
  namespace mil = monet::mil;
  std::printf(
      "\nE3d: select→SumPerHead over the 400k-row catalog — the\n"
      "sequential Executor (materialize + hash group-by) vs morsel +\n"
      "fused candidate-aware aggregation.\n\n");
  mil::Program plan = BuildSelectSumPerHeadPlan();
  auto run_once = [&](const mil::ExecOptions& options,
                      mil::ExecutionContext* session) {
    mil::ExecutionEngine engine(database->catalog(), options);
    auto result = engine.Run(plan, session);
    MIRROR_CHECK(result.ok()) << result.status().ToString();
    return result.TakeValue();
  };
  auto time_engine = [&](const mil::ExecOptions& options) {
    mil::ExecutionContext session;
    double best = 1e100;
    for (int r = 0; r < 5; ++r) {
      base::Stopwatch sw;
      auto result = run_once(options, &session);
      MIRROR_CHECK(result.bat != nullptr && !result.bat->empty());
      best = std::min(best, sw.ElapsedMillis());
    }
    return best;
  };
  mil::ExecOptions fused1{.num_threads = 1};
  mil::ExecOptions fused4{.num_threads = 4};

  // Equivalence spot-check: the fused plan must reproduce the baseline.
  {
    auto baseline = mil::Executor(database->catalog()).Run(plan);
    MIRROR_CHECK(baseline.ok()) << baseline.status().ToString();
    const monet::Bat& want = *baseline.value().bat;
    mil::ExecutionContext session;
    auto fused = run_once(fused4, &session);
    MIRROR_CHECK(want.size() == fused.bat->size());
    for (size_t i = 0; i < want.size(); i += 1001) {
      MIRROR_CHECK(want.head().OidAt(i) == fused.bat->head().OidAt(i));
      MIRROR_CHECK(want.tail().NumAt(i) == fused.bat->tail().NumAt(i));
    }
  }

  AggComparison out;
  out.sequential_ms = TimeSequential(database->catalog(), plan);
  out.engine1_fused_ms = time_engine(fused1);
  out.engine4_fused_ms = time_engine(fused4);

  // Profiler gate: the fused run performs zero Materialize() calls.
  {
    mil::ExecutionContext session;
    monet::ResetKernelStats();
    auto result = run_once(fused4, &session);
    MIRROR_CHECK(result.bat != nullptr);
    monet::KernelStats stats = monet::SnapshotKernelStats();
    out.fused_materialize_calls = stats.materializations;
    out.fused_agg_ops = stats.fused_agg_ops;
    std::printf("fused-run profiler: %s\n\n", stats.ToString().c_str());
    MIRROR_CHECK(stats.materializations == 0)
        << "select→agg plan still materializes";
  }

  base::TablePrinter table({"path", "ms", "vs sequential"});
  auto row = [&](const char* name, double ms) {
    table.AddRow({name, base::StrFormat("%.3f", ms),
                  base::StrFormat("%.2fx", out.sequential_ms / ms)});
  };
  row("sequential materializing Executor", out.sequential_ms);
  row("engine 1 thread, fused agg", out.engine1_fused_ms);
  row("engine 4 threads, fused agg + morsels", out.engine4_fused_ms);
  table.Print();
  std::printf("\n");
  return out;
}

// E3e: the select→join→SumPerHead 400k-row plan gating the radix join.
// A year selection over Cat restricts the Cat.ref foreign-key column
// (oid-aligned semijoin, position intersection) and the surviving view
// joins a 400k-row shuffled dimension BAT (int key -> dbl weight) whose
// build side is far larger than L2, so the radix cluster genuinely
// partitions. The baseline is the sequential Executor on the same plan:
// every intermediate materializes and the pre-radix single-threaded
// JoinLegacy builds an unordered_map over the 400k keys. The radix path
// at 4 threads must be >= 2x and perform zero Materialize() calls.
struct JoinComparison {
  double sequential_ms = 0;
  double radix1_ms = 0;
  double radix4_ms = 0;
  uint64_t radix_materialize_calls = 0;
  uint64_t radix_partitions = 0;
};

monet::mil::Program BuildSelectJoinSumPlan(int catalog_rows, uint64_t seed) {
  namespace mil = monet::mil;
  base::Rng rng(seed);
  std::vector<int64_t> keys;
  std::vector<double> weights;
  keys.reserve(static_cast<size_t>(catalog_rows));
  weights.reserve(static_cast<size_t>(catalog_rows));
  for (int i = 0; i < catalog_rows; ++i) {
    keys.push_back(i);
  }
  rng.Shuffle(&keys);
  for (int i = 0; i < catalog_rows; ++i) {
    weights.push_back(rng.UniformDouble(0.0, 1.0));
  }
  auto dim = std::make_shared<const monet::Bat>(
      monet::Column::MakeInts(std::move(keys)),
      monet::Column::MakeDbls(std::move(weights)));

  mil::Program p;
  auto emit = [&p](mil::Instr i) {
    i.dst = p.NewReg();
    return p.Emit(std::move(i));
  };
  mil::Instr load_year;
  load_year.op = mil::OpCode::kLoadNamed;
  load_year.name = "Cat.year";
  int year = emit(std::move(load_year));
  mil::Instr sel;
  sel.op = mil::OpCode::kSelectRange;
  sel.src0 = year;
  sel.imm0 = monet::Value::MakeInt(1990);
  sel.imm1 = monet::Value::MakeInt(2020);
  sel.flag0 = true;
  sel.flag1 = true;
  int selected = emit(std::move(sel));
  mil::Instr load_ref;
  load_ref.op = mil::OpCode::kLoadNamed;
  load_ref.name = "Cat.ref";
  int ref = emit(std::move(load_ref));
  mil::Instr semi;
  semi.op = mil::OpCode::kSemiJoinHead;
  semi.src0 = ref;
  semi.src1 = selected;
  int kept = emit(std::move(semi));
  mil::Instr dim_instr;
  dim_instr.op = mil::OpCode::kConstBat;
  dim_instr.const_bat = dim;
  int dim_reg = emit(std::move(dim_instr));
  mil::Instr join;
  join.op = mil::OpCode::kJoin;
  join.src0 = kept;
  join.src1 = dim_reg;
  int joined = emit(std::move(join));
  mil::Instr agg;
  agg.op = mil::OpCode::kSumPerHead;
  agg.src0 = joined;
  p.set_result_reg(emit(std::move(agg)));
  return p;
}

JoinComparison RunE3e(db::MirrorDb* database, int catalog_rows) {
  namespace mil = monet::mil;
  std::printf(
      "\nE3e: select→join→SumPerHead over the 400k-row catalog against a\n"
      "400k-row shuffled dimension — the sequential Executor\n"
      "(materialize + single-threaded JoinLegacy) vs the radix-\n"
      "partitioned morsel-parallel JoinCand pipeline.\n\n");
  mil::Program plan = BuildSelectJoinSumPlan(catalog_rows, /*seed=*/17);
  auto run_once = [&](const mil::ExecOptions& options,
                      mil::ExecutionContext* session) {
    mil::ExecutionEngine engine(database->catalog(), options);
    auto result = engine.Run(plan, session);
    MIRROR_CHECK(result.ok()) << result.status().ToString();
    return result.TakeValue();
  };
  auto time_engine = [&](const mil::ExecOptions& options) {
    mil::ExecutionContext session;
    double best = 1e100;
    for (int r = 0; r < 5; ++r) {
      base::Stopwatch sw;
      auto result = run_once(options, &session);
      MIRROR_CHECK(result.bat != nullptr && !result.bat->empty());
      best = std::min(best, sw.ElapsedMillis());
    }
    return best;
  };
  // Partition count pinned: on a host whose detected L2 swallows the
  // whole 400k-row build side the derived count would be 1 and the
  // radix_builds gate below would trip on perfectly good code. 16 is
  // what a typical 1-2 MiB L2 derives anyway.
  mil::ExecOptions radix1;
  radix1.num_threads = 1;
  radix1.radix_partitions = 16;
  mil::ExecOptions radix4;
  radix4.num_threads = 4;
  radix4.radix_partitions = 16;

  // Equivalence spot-check: the radix plan must reproduce the baseline.
  {
    auto baseline = mil::Executor(database->catalog()).Run(plan);
    MIRROR_CHECK(baseline.ok()) << baseline.status().ToString();
    const monet::Bat& want = *baseline.value().bat;
    mil::ExecutionContext session;
    auto radix = run_once(radix4, &session);
    MIRROR_CHECK(want.size() == radix.bat->size());
    for (size_t i = 0; i < want.size(); i += 617) {
      MIRROR_CHECK(want.head().OidAt(i) == radix.bat->head().OidAt(i));
      MIRROR_CHECK(want.tail().NumAt(i) == radix.bat->tail().NumAt(i));
    }
  }

  JoinComparison out;
  out.sequential_ms = TimeSequential(database->catalog(), plan);
  out.radix1_ms = time_engine(radix1);
  out.radix4_ms = time_engine(radix4);

  // Profiler gate: the radix run performs zero Materialize() calls and
  // genuinely partitions its build sides.
  {
    mil::ExecutionContext session;
    monet::ResetKernelStats();
    auto result = run_once(radix4, &session);
    MIRROR_CHECK(result.bat != nullptr);
    monet::KernelStats stats = monet::SnapshotKernelStats();
    out.radix_materialize_calls = stats.materializations;
    out.radix_partitions = stats.radix_partitions;
    std::printf("radix-run profiler: %s\n\n", stats.ToString().c_str());
    MIRROR_CHECK(stats.materializations == 0)
        << "select→join→agg plan still materializes";
    MIRROR_CHECK(stats.radix_builds > 0)
        << "join build side was not radix-partitioned";
  }

  base::TablePrinter table({"path", "ms", "vs sequential"});
  auto row = [&](const char* name, double ms) {
    table.AddRow({name, base::StrFormat("%.3f", ms),
                  base::StrFormat("%.2fx", out.sequential_ms / ms)});
  };
  row("sequential materializing Executor", out.sequential_ms);
  row("engine 1 thread, radix join", out.radix1_ms);
  row("engine 4 threads, radix join + morsels", out.radix4_ms);
  table.Print();
  std::printf("\n");
  return out;
}

// E3f: shard-parallel select→join→SumPerHead gating the sharded-catalog
// engine. The same 400k-row catalog joins a 1.2M-row dimension (three
// weighted rows per key) so the per-head aggregate — a 370k-group hash
// group-by over 1.1M join rows — dominates. The baseline is the full
// current engine at 4 threads with one shard (num_shards = 1): one
// global group map far larger than the cache plus a serial partial-map
// merge and one giant output sort. Sharded, each shard aggregates into
// its own cache-resident table and the merged result is a pure
// order-preserving concat; the join probes run per shard against ONE
// shared build table. Output is bit-identical; the sharded run must do
// zero Materialize() calls and fan out for real.
struct ShardComparison {
  double oneshard4_ms = 0;
  double sharded4_ms = 0;
  uint64_t sharded_materialize_calls = 0;
  uint64_t shard_fanouts = 0;
  uint64_t shard_fanins = 0;
  size_t num_shards = 0;
};

monet::mil::Program BuildShardedJoinAggPlan(int catalog_rows, int dup,
                                            uint64_t seed) {
  namespace mil = monet::mil;
  base::Rng rng(seed);
  std::vector<int64_t> keys;
  std::vector<double> weights;
  keys.reserve(static_cast<size_t>(catalog_rows * dup));
  for (int d = 0; d < dup; ++d) {
    for (int i = 0; i < catalog_rows; ++i) keys.push_back(i);
  }
  rng.Shuffle(&keys);
  weights.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    weights.push_back(rng.UniformDouble(0.0, 1.0));
  }
  auto dim = std::make_shared<const monet::Bat>(
      monet::Column::MakeInts(std::move(keys)),
      monet::Column::MakeDbls(std::move(weights)));

  mil::Program p;
  auto emit = [&p](mil::Instr i) {
    i.dst = p.NewReg();
    return p.Emit(std::move(i));
  };
  mil::Instr load_year;
  load_year.op = mil::OpCode::kLoadNamed;
  load_year.name = "Cat.year";
  int year = emit(std::move(load_year));
  mil::Instr sel;
  sel.op = mil::OpCode::kSelectRange;
  sel.src0 = year;
  sel.imm0 = monet::Value::MakeInt(1905);
  sel.imm1 = monet::Value::MakeInt(2020);
  sel.flag0 = true;
  sel.flag1 = true;
  int selected = emit(std::move(sel));
  mil::Instr load_ref;
  load_ref.op = mil::OpCode::kLoadNamed;
  load_ref.name = "Cat.ref";
  int ref = emit(std::move(load_ref));
  mil::Instr semi;
  semi.op = mil::OpCode::kSemiJoinHead;
  semi.src0 = ref;
  semi.src1 = selected;
  int kept = emit(std::move(semi));
  mil::Instr dim_instr;
  dim_instr.op = mil::OpCode::kConstBat;
  dim_instr.const_bat = dim;
  int dim_reg = emit(std::move(dim_instr));
  mil::Instr join;
  join.op = mil::OpCode::kJoin;
  join.src0 = kept;
  join.src1 = dim_reg;
  int joined = emit(std::move(join));
  mil::Instr agg;
  agg.op = mil::OpCode::kSumPerHead;
  agg.src0 = joined;
  p.set_result_reg(emit(std::move(agg)));
  return p;
}

ShardComparison RunE3f(db::MirrorDb* database, int catalog_rows,
                       size_t num_shards) {
  namespace mil = monet::mil;
  std::printf(
      "\nE3f: shard-parallel select→join→SumPerHead over the 400k-row\n"
      "catalog against a 1.2M-row dimension — the current engine with\n"
      "one shard vs the same engine fanned out over %zu oid-range\n"
      "shards (shard-local aggregation, one shared join build).\n\n",
      num_shards);
  mil::Program plan =
      BuildShardedJoinAggPlan(catalog_rows, /*dup=*/3, /*seed=*/23);
  auto run_once = [&](const mil::ExecOptions& options,
                      mil::ExecutionContext* session) {
    mil::ExecutionEngine engine(database->catalog(), options);
    auto result = engine.Run(plan, session);
    MIRROR_CHECK(result.ok()) << result.status().ToString();
    return result.TakeValue();
  };
  auto time_engine = [&](const mil::ExecOptions& options) {
    mil::ExecutionContext session;
    double best = 1e100;
    for (int r = 0; r < 5; ++r) {
      base::Stopwatch sw;
      auto result = run_once(options, &session);
      MIRROR_CHECK(result.bat != nullptr && !result.bat->empty());
      best = std::min(best, sw.ElapsedMillis());
    }
    return best;
  };
  mil::ExecOptions oneshard4;
  oneshard4.num_threads = 4;
  oneshard4.num_shards = 1;
  mil::ExecOptions sharded4;
  sharded4.num_threads = 4;
  sharded4.num_shards = num_shards;

  // The shard layout is built lazily on first use; build it here so the
  // timed runs measure execution, not fragment slicing.
  database->catalog()->Shards(num_shards);

  // Equivalence check: the sharded run must be bit-identical.
  {
    mil::ExecutionContext session;
    auto baseline = run_once(oneshard4, &session);
    auto sharded = run_once(sharded4, &session);
    MIRROR_CHECK(baseline.bat->size() == sharded.bat->size());
    for (size_t i = 0; i < baseline.bat->size(); i += 617) {
      MIRROR_CHECK(baseline.bat->head().OidAt(i) ==
                   sharded.bat->head().OidAt(i));
      MIRROR_CHECK(baseline.bat->tail().NumAt(i) ==
                   sharded.bat->tail().NumAt(i));
    }
  }

  ShardComparison out;
  out.num_shards = num_shards;
  out.oneshard4_ms = time_engine(oneshard4);
  out.sharded4_ms = time_engine(sharded4);

  // Profiler gate: genuinely fanned out, zero Materialize() calls.
  {
    mil::ExecutionContext session;
    monet::ResetKernelStats();
    auto result = run_once(sharded4, &session);
    MIRROR_CHECK(result.bat != nullptr);
    monet::KernelStats stats = monet::SnapshotKernelStats();
    out.sharded_materialize_calls = stats.materializations;
    out.shard_fanouts = stats.shard_fanouts;
    out.shard_fanins = stats.shard_fanins;
    std::printf("sharded-run profiler: %s\n\n", stats.ToString().c_str());
    MIRROR_CHECK(stats.materializations == 0)
        << "sharded select→join→agg plan still materializes";
    MIRROR_CHECK(stats.shard_fanouts > 0) << "plan never fanned out";
  }

  base::TablePrinter table({"path", "ms", "vs 1-shard engine @4T"});
  auto row = [&](const char* name, double ms) {
    table.AddRow({name, base::StrFormat("%.3f", ms),
                  base::StrFormat("%.2fx", out.oneshard4_ms / ms)});
  };
  row("engine 4 threads, 1 shard", out.oneshard4_ms);
  row(base::StrFormat("engine 4 threads, %zu shards", num_shards).c_str(),
      out.sharded4_ms);
  table.Print();
  std::printf("\n");
  return out;
}

// E4: multi-client throughput through the query-serving daemon. N
// concurrent sessions — each its own wire connection, ExecutionContext,
// plan cache — issue the E3-series retrieval plan (selection over Lib,
// getBL joins, SumPerHead: the full select→join→SumPerHead pipeline
// through the Moa layer) against ONE shared catalog, versus the same
// total number of requests issued serially through one session. The
// aggregate-throughput win comes from two server properties the serial
// path cannot have: sessions execute genuinely concurrently (on the
// daemon's fixed worker threads, sharing the engine's one process-wide
// morsel pool), and identical in-flight requests coalesce onto one
// leader execution + one marshalled result frame. A third timing runs
// the concurrent clients with coalescing disabled, isolating the pure
// concurrency contribution (≈1x on a 1-core host, scales with cores).
struct ServeComparison {
  int sessions = 4;
  int requests_per_session = 8;
  double serial1_ms = 0;
  double concurrent4_ms = 0;
  double concurrent4_nocoalesce_ms = 0;
  uint64_t coalesced_requests = 0;
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
  uint64_t bytes_out = 0;
};

ServeComparison RunE4(db::MirrorDb* database) {
  namespace dmn = mirror::daemon;
  ServeComparison out;
  const int kSessions = out.sessions;
  const int kPerSession = out.requests_per_session;
  const int kTotal = kSessions * kPerSession;
  std::printf(
      "\nE4: multi-client serving throughput — %d concurrent sessions\n"
      "issuing the select→join→SumPerHead retrieval plan over the wire\n"
      "vs the same %d requests serially through one session.\n\n",
      kSessions, kTotal);

  const std::string query =
      "map[sum(THIS)](map[getBL(THIS.doc, query, stats)]("
      "select[THIS.year >= 1985 and THIS.year <= 2020 and "
      "THIS.rating >= 10](Lib)));";
  moa::QueryContext ctx;
  ctx.BindTerms("query", {"sun", "wave", "dune", "reef"});

  auto direct = database->Query(query, ctx);
  MIRROR_CHECK(direct.ok()) << direct.status().ToString();
  const monet::Bat& want = *direct.value().bat;
  MIRROR_CHECK(!want.empty());

  auto check_result = [&](const dmn::wire::ResultReply& result) {
    MIRROR_CHECK(!result.is_scalar && result.bat != nullptr);
    MIRROR_CHECK(result.bat->size() == want.size());
    for (size_t i = 0; i < want.size(); i += 97) {
      MIRROR_CHECK(result.bat->head().OidAt(i) == want.head().OidAt(i));
      MIRROR_CHECK(result.bat->tail().NumAt(i) == want.tail().NumAt(i));
    }
  };

  auto connect = [&](dmn::QueryServer* server, const char* name) {
    auto [client_end, server_end] = dmn::wire::CreateChannelPair();
    server->Serve(std::move(server_end));
    auto client =
        std::make_unique<dmn::wire::WireClient>(std::move(client_end));
    auto hello = client->Hello(name);
    MIRROR_CHECK(hello.ok()) << hello.status().ToString();
    return client;
  };

  // Serial baseline: one session, kTotal requests back to back (plan
  // cache warm after the first — warm it before timing, same as the
  // concurrent paths).
  auto time_serial = [&](dmn::QueryServer* server) {
    auto client = connect(server, "serial");
    check_result(client->Query(query, ctx).value());
    double best = 1e100;
    for (int rep = 0; rep < 3; ++rep) {
      base::Stopwatch sw;
      for (int r = 0; r < kTotal; ++r) {
        auto result = client->Query(query, ctx);
        MIRROR_CHECK(result.ok()) << result.status().ToString();
      }
      best = std::min(best, sw.ElapsedMillis());
    }
    client->Close();
    return best;
  };

  auto time_concurrent = [&](dmn::QueryServer* server) {
    std::vector<std::unique_ptr<dmn::wire::WireClient>> clients;
    for (int s = 0; s < kSessions; ++s) {
      clients.push_back(connect(server, "concurrent"));
      check_result(clients.back()->Query(query, ctx).value());
    }
    double best = 1e100;
    for (int rep = 0; rep < 3; ++rep) {
      base::Stopwatch sw;
      std::vector<std::thread> threads;
      for (int s = 0; s < kSessions; ++s) {
        threads.emplace_back([&, s] {
          for (int r = 0; r < kPerSession; ++r) {
            auto result = clients[s]->Query(query, ctx);
            MIRROR_CHECK(result.ok()) << result.status().ToString();
            check_result(result.value());
          }
        });
      }
      for (std::thread& t : threads) t.join();
      best = std::min(best, sw.ElapsedMillis());
    }
    for (auto& client : clients) client->Close();
    return best;
  };

  // Recycler off in all three servers: E4 measures the concurrency and
  // in-flight coalescing layers — with the result cache on, every
  // repeat replays a cached reply and nothing ever coalesces (E8 /
  // bench_recycler measures that path).
  {
    dmn::QueryServer::Options options;
    options.query.exec.recycle = false;
    dmn::QueryServer server(database, options);
    out.serial1_ms = time_serial(&server);
    server.Shutdown();
  }
  {
    dmn::QueryServer::Options options;
    options.query.exec.recycle = false;
    options.coalesce_queries = false;
    dmn::QueryServer server(database, options);
    out.concurrent4_nocoalesce_ms = time_concurrent(&server);
    server.Shutdown();
  }
  {
    dmn::QueryServer::Options options;
    options.query.exec.recycle = false;
    dmn::QueryServer server(database, options);
    out.concurrent4_ms = time_concurrent(&server);
    dmn::wire::ServerWireStats stats = server.stats();
    out.coalesced_requests = stats.coalesced_requests;
    out.frames_in = stats.frames_in;
    out.frames_out = stats.frames_out;
    out.bytes_out = stats.bytes_out;
    server.Shutdown();
    std::printf(
        "wire accounting (coalescing run): %llu frames in, %llu frames "
        "out,\n%llu bytes marshalled out, %llu of %d requests coalesced\n\n",
        static_cast<unsigned long long>(out.frames_in),
        static_cast<unsigned long long>(out.frames_out),
        static_cast<unsigned long long>(out.bytes_out),
        static_cast<unsigned long long>(out.coalesced_requests),
        kSessions + 3 * kTotal);
    MIRROR_CHECK(out.coalesced_requests > 0)
        << "concurrent identical requests never shared an execution";
  }

  base::TablePrinter table(
      {"path", base::StrFormat("ms for %d requests", kTotal), "vs serial"});
  auto row = [&](const char* name, double ms) {
    table.AddRow({name, base::StrFormat("%.3f", ms),
                  base::StrFormat("%.2fx", out.serial1_ms / ms)});
  };
  row("1 session, serial", out.serial1_ms);
  row("4 sessions, concurrent, no coalescing",
      out.concurrent4_nocoalesce_ms);
  row("4 sessions, concurrent + coalescing", out.concurrent4_ms);
  table.Print();
  std::printf("\n");
  return out;
}

// E5: WAND-style top-k ranking with zone-map pruning. A batch of zipfian
// single-term ranking plans (prob-aggregate feeding a descending topN)
// over per-term belief columns whose noise amplitude varies per zone
// block: once the shared threshold holds k scores, every block whose
// zone-map upper bound cannot beat the k'th score is skipped whole, and
// shards whose column-wide bound is behind the threshold are dropped
// before their fragment plan even runs. The baseline is the identical
// engine configuration with zone maps and top-k pruning switched off.
// Every pruned ranking is checked bit-identical (rows AND order, stable
// ties included) against the naive sequential executor — recall@k must
// be exactly 1.0 or the bench aborts.
struct RankingTopkComparison {
  size_t rows = 0;
  int terms = 0;
  int queries = 0;
  int64_t k = 10;
  double unpruned_ms = 0;
  double pruned_ms = 0;
  double recall_at_k = 0;
  uint64_t zone_blocks_skipped = 0;
  uint64_t topk_morsels_pruned = 0;
  uint64_t topk_shards_pruned = 0;
};

monet::mil::Program BuildRankingTopkPlan(const std::string& name, int64_t k) {
  namespace mil = monet::mil;
  mil::Program p;
  auto emit = [&p](mil::Instr i) {
    i.dst = p.NewReg();
    return p.Emit(std::move(i));
  };
  mil::Instr load;
  load.op = mil::OpCode::kLoadNamed;
  load.name = name;
  int scores = emit(std::move(load));
  mil::Instr agg;
  agg.op = mil::OpCode::kProdPerHead;
  agg.src0 = scores;
  int ranked = emit(std::move(agg));
  mil::Instr top;
  top.op = mil::OpCode::kTopN;
  top.src0 = ranked;
  top.n = k;
  top.flag0 = true;  // descending: a ranking
  p.set_result_reg(emit(std::move(top)));
  return p;
}

RankingTopkComparison RunE5(db::MirrorDb* database, size_t num_shards) {
  namespace mil = monet::mil;
  RankingTopkComparison out;
  out.rows = static_cast<size_t>(32) * monet::kZoneBlockRows;  // 262144
  out.terms = 16;
  out.queries = 48;
  out.k = 10;
  std::printf(
      "\nE5: zipfian top-%lld ranking over %zu-row belief columns —\n"
      "zone-map + WAND threshold pruning at 4 threads / %zu shards vs\n"
      "the same engine with pruning off. Results are bit-checked against\n"
      "the naive sequential executor (recall@k must be 1.0).\n\n",
      static_cast<long long>(out.k), out.rows, num_shards);

  // Per-term belief columns: background noise whose amplitude is drawn
  // per zone block (so most blocks have a provably-losing upper bound)
  // plus one contiguous high-belief region per term.
  for (int t = 0; t < out.terms; ++t) {
    base::Rng rng(1000 + static_cast<uint64_t>(t));
    std::vector<double> scores(out.rows);
    for (size_t b = 0; b < out.rows; b += monet::kZoneBlockRows) {
      double amplitude = rng.UniformDouble(0.02, 0.25);
      size_t end = std::min(out.rows, b + monet::kZoneBlockRows);
      for (size_t i = b; i < end; ++i) {
        scores[i] = amplitude * rng.UniformDouble(0.1, 1.0);
      }
    }
    size_t spike_len = out.rows / 64;
    size_t spike_start = rng.Uniform(out.rows - spike_len);
    for (size_t i = spike_start; i < spike_start + spike_len; ++i) {
      scores[i] = rng.UniformDouble(0.55, 0.95);
    }
    database->catalog()->Put("rank.bl_t" + std::to_string(t),
                             monet::Bat::DenseDbls(std::move(scores)));
  }
  // The Put()s above dropped every derived cache; rebuild the shard
  // layout and zone maps now so the timed runs measure execution.
  const monet::ShardedCatalog* layout = database->catalog()->Shards(num_shards);
  MIRROR_CHECK(layout != nullptr);
  database->catalog()->EnsureZones();
  for (size_t s = 0; s < layout->num_shards(); ++s) {
    layout->shard(s).EnsureZones();
  }

  std::vector<mil::Program> plans;
  plans.reserve(static_cast<size_t>(out.terms));
  for (int t = 0; t < out.terms; ++t) {
    plans.push_back(
        BuildRankingTopkPlan("rank.bl_t" + std::to_string(t), out.k));
  }
  // Zipfian query stream: term t drawn with weight 1/(t+1).
  std::vector<int> stream;
  {
    base::Rng rng(77);
    double total = 0;
    for (int t = 0; t < out.terms; ++t) total += 1.0 / (t + 1);
    for (int q = 0; q < out.queries; ++q) {
      double r = rng.UniformDouble(0.0, total);
      int pick = 0;
      for (int t = 0; t < out.terms; ++t) {
        r -= 1.0 / (t + 1);
        if (r <= 0) {
          pick = t;
          break;
        }
      }
      stream.push_back(pick);
    }
  }

  mil::ExecOptions pruned;
  pruned.num_threads = 4;
  pruned.num_shards = num_shards;
  mil::ExecOptions unpruned = pruned;
  unpruned.zone_maps = false;
  unpruned.topk_prune = false;

  auto run_once = [&](const mil::Program& plan, const mil::ExecOptions& options,
                      mil::ExecutionContext* session) {
    mil::ExecutionEngine engine(database->catalog(), options);
    auto result = engine.Run(plan, session);
    MIRROR_CHECK(result.ok()) << result.status().ToString();
    return result.TakeValue();
  };
  auto time_batch = [&](const mil::ExecOptions& options) {
    double best = 1e100;
    for (int r = 0; r < 3; ++r) {
      mil::ExecutionContext session;
      base::Stopwatch sw;
      for (int term : stream) {
        auto result = run_once(plans[static_cast<size_t>(term)], options,
                               &session);
        MIRROR_CHECK(result.bat != nullptr &&
                     result.bat->size() == static_cast<size_t>(out.k));
      }
      best = std::min(best, sw.ElapsedMillis());
    }
    return best;
  };

  // Recall gate: every term's pruned ranking must equal the naive
  // sequential executor's bit for bit — rows, order, and stable ties.
  {
    size_t matched = 0;
    size_t total = 0;
    for (int t = 0; t < out.terms; ++t) {
      const mil::Program& plan = plans[static_cast<size_t>(t)];
      auto naive = mil::Executor(database->catalog()).Run(plan);
      MIRROR_CHECK(naive.ok()) << naive.status().ToString();
      mil::ExecutionContext session;
      auto fast = run_once(plan, pruned, &session);
      MIRROR_CHECK(naive.value().bat->size() == fast.bat->size());
      for (size_t i = 0; i < fast.bat->size(); ++i) {
        ++total;
        if (naive.value().bat->head().OidAt(i) == fast.bat->head().OidAt(i) &&
            naive.value().bat->tail().DblAt(i) == fast.bat->tail().DblAt(i)) {
          ++matched;
        }
      }
    }
    out.recall_at_k = total == 0 ? 0.0 : static_cast<double>(matched) / total;
    MIRROR_CHECK(out.recall_at_k == 1.0)
        << "pruned ranking diverged from the naive executor";
  }

  out.unpruned_ms = time_batch(unpruned);
  out.pruned_ms = time_batch(pruned);

  // Profiler gate: the pruned batch must genuinely skip zone blocks.
  {
    monet::ResetKernelStats();
    mil::ExecutionContext session;
    for (int term : stream) {
      auto result = run_once(plans[static_cast<size_t>(term)], pruned,
                             &session);
      MIRROR_CHECK(result.bat != nullptr);
    }
    monet::KernelStats stats = monet::SnapshotKernelStats();
    out.zone_blocks_skipped = stats.zone_blocks_skipped;
    out.topk_morsels_pruned = stats.topk_morsels_pruned;
    out.topk_shards_pruned = stats.topk_shards_pruned;
    std::printf("pruned-batch profiler: %s\n\n", stats.ToString().c_str());
    MIRROR_CHECK(stats.zone_blocks_skipped > 0)
        << "top-k batch never skipped a zone block";
  }

  base::TablePrinter table(
      {"path", base::StrFormat("ms for %d queries", out.queries),
       "vs unpruned"});
  auto row = [&](const char* name, double ms) {
    table.AddRow({name, base::StrFormat("%.3f", ms),
                  base::StrFormat("%.2fx", out.unpruned_ms / ms)});
  };
  row("engine 4T, 8 shards, pruning off", out.unpruned_ms);
  row("engine 4T, 8 shards, zone maps + WAND top-k", out.pruned_ms);
  table.Print();
  std::printf("recall@%lld vs naive executor: %.3f\n\n",
              static_cast<long long>(out.k), out.recall_at_k);
  return out;
}

// E6: the observability tax. With the knob off, per-instruction tracing
// must cost exactly one untaken branch — the two "off" runs bracket the
// "on" run so clock drift penalizes both directions, and their A/A ratio
// doubles as the noise floor for the CI gate. With the knob on, every
// span recording is a thread-local append: the traced run must stay
// within a few percent of untraced.
struct TraceOverheadComparison {
  double off_a_ms = 0;   // knob off, first pass
  double on_ms = 0;      // knob on, thread-local span recording
  double off_b_ms = 0;   // knob off again (A/A noise floor vs off_a)
  uint64_t spans = 0;    // spans the traced pass recorded per query
  // Count checks beside the clocks, exact on every run: a sink attached
  // with the knob off records nothing, and tracing runs the same kernels.
  uint64_t off_spans = 0;          // spans the knob-off passes recorded
  uint64_t ops_per_query_off = 0;  // kernel ops per untraced query
  uint64_t ops_per_query_on = 0;   // kernel ops per traced query
};

TraceOverheadComparison RunE9(const db::MirrorDb& database) {
  TraceOverheadComparison out;
  std::printf(
      "\nE9: tracing overhead on the E3c ranking plan (engine 4T).\n\n");
  moa::QueryContext ctx;
  ctx.BindTerms("query", {"sun", "wave", "dune"});
  const std::string query =
      "map[sum(THIS)](map[getBL(THIS.doc, query, stats)]("
      "select[THIS.year >= 1990 and THIS.year <= 2015 and "
      "THIS.rating >= 20](Lib)));";
  db::QueryOptions off;
  off.exec.num_threads = 4;
  db::QueryOptions on = off;
  monet::QueryTrace trace;
  on.exec.trace = true;
  on.exec.trace_sink = &trace;
  monet::QueryTrace off_trace;
  off.exec.trace_sink = &off_trace;

  // One warm-up populates the plan cache; the timed samples interleave
  // off-A / on / off-B round-robin (min-of-21 each) so clock drift and
  // scheduler noise land on all three passes equally — the off A/A
  // ratio then measures only the knob, not the weather.
  monet::mil::ExecutionContext session;
  auto warm = database.Query(query, ctx, off, &session);
  MIRROR_CHECK(warm.ok()) << warm.status().ToString();
  auto time_one = [&](const db::QueryOptions& options) {
    base::Stopwatch sw;
    auto result = database.Query(query, ctx, options, &session);
    MIRROR_CHECK(result.ok()) << result.status().ToString();
    return sw.ElapsedMillis();
  };
  out.off_a_ms = out.on_ms = out.off_b_ms = 1e100;
  for (int r = 0; r < 21; ++r) {
    out.off_a_ms = std::min(out.off_a_ms, time_one(off));
    out.on_ms = std::min(out.on_ms, time_one(on));
    out.off_b_ms = std::min(out.off_b_ms, time_one(off));
  }
  out.spans = trace.span_count();
  MIRROR_CHECK(out.spans > 0) << "traced pass recorded no spans";
  out.off_spans = off_trace.span_count();
  // Kernel ops of one untraced and one traced run at 1 thread. At 4
  // threads the count varies with timing: consumers racing on one
  // register may each materialize it (MatInput).
  auto ops_of = [&](db::QueryOptions options) {
    options.exec.num_threads = 1;
    const uint64_t before = monet::SnapshotKernelStats().TotalOps();
    time_one(options);
    return monet::SnapshotKernelStats().TotalOps() - before;
  };
  out.ops_per_query_off = ops_of(off);
  out.ops_per_query_on = ops_of(on);

  const double off_min = std::min(out.off_a_ms, out.off_b_ms);
  base::TablePrinter table({"path", "ms", "vs off"});
  auto row = [&](const char* name, double ms) {
    table.AddRow({name, base::StrFormat("%.3f", ms),
                  base::StrFormat("%.3fx", ms / off_min)});
  };
  row("trace off (pass A)", out.off_a_ms);
  row("trace on", out.on_ms);
  row("trace off (pass B)", out.off_b_ms);
  table.Print();
  std::printf("%llu spans per traced query, %llu with the knob off\n",
              static_cast<unsigned long long>(out.spans),
              static_cast<unsigned long long>(out.off_spans));
  std::printf("kernel ops per query at 1 thread: %llu untraced, %llu traced\n",
              static_cast<unsigned long long>(out.ops_per_query_off),
              static_cast<unsigned long long>(out.ops_per_query_on));
  return out;
}

void WriteBenchJson(const EngineComparison& selection,
                    const EngineComparison& ranking,
                    const AggComparison& agg, const JoinComparison& join,
                    const ShardComparison& shard,
                    const ServeComparison& serve,
                    const RankingTopkComparison& topk,
                    const TraceOverheadComparison& tover) {
  std::FILE* f = std::fopen("BENCH_retrieval.json", "w");
  if (f == nullptr) {
    std::printf("could not write BENCH_retrieval.json\n");
    return;
  }
  auto emit = [&](const char* name, const EngineComparison& c,
                  const char* trailing_comma) {
    std::fprintf(
        f,
        "  \"%s\": {\n"
        "    \"sequential_materializing_ms\": %.4f,\n"
        "    \"engine_1_thread_ms\": %.4f,\n"
        "    \"engine_4_threads_ms\": %.4f,\n"
        "    \"engine_4_threads_cached_ms\": %.4f,\n"
        "    \"speedup_engine4_vs_sequential\": %.3f,\n"
        "    \"speedup_engine4_cached_vs_sequential\": %.3f,\n"
        "    \"select_instrs\": %d,\n"
        "    \"tuples_in\": %llu\n"
        "  }%s\n",
        name, c.sequential_ms, c.engine1_ms, c.engine4_ms, c.engine4_cached_ms,
        c.sequential_ms / c.engine4_ms,
        c.sequential_ms / c.engine4_cached_ms, c.select_instrs,
        static_cast<unsigned long long>(c.tuples_in), trailing_comma);
  };
  std::fprintf(f, "{\n  \"experiment\": \"E3c_vectorized_engine\",\n");
  emit("selection_heavy_400k_rows", selection, ",");
  emit("ranking_16k_docs", ranking, ",");
  std::fprintf(
      f,
      "  \"select_sumperhead_400k\": {\n"
      "    \"sequential_materializing_ms\": %.4f,\n"
      "    \"engine_1_thread_fused_ms\": %.4f,\n"
      "    \"engine_4_threads_fused_ms\": %.4f,\n"
      "    \"speedup_fused4_vs_sequential\": %.3f,\n"
      "    \"materialize_calls_fused\": %llu,\n"
      "    \"fused_agg_ops\": %llu\n"
      "  },\n",
      agg.sequential_ms, agg.engine1_fused_ms, agg.engine4_fused_ms,
      agg.sequential_ms / agg.engine4_fused_ms,
      static_cast<unsigned long long>(agg.fused_materialize_calls),
      static_cast<unsigned long long>(agg.fused_agg_ops));
  std::fprintf(
      f,
      "  \"select_join_sumperhead_400k\": {\n"
      "    \"sequential_materializing_ms\": %.4f,\n"
      "    \"radix_join_1_thread_ms\": %.4f,\n"
      "    \"radix_join_4_threads_ms\": %.4f,\n"
      "    \"speedup_radix4_vs_sequential\": %.3f,\n"
      "    \"materialize_calls_radix\": %llu,\n"
      "    \"radix_partitions\": %llu\n"
      "  },\n",
      join.sequential_ms, join.radix1_ms, join.radix4_ms,
      join.sequential_ms / join.radix4_ms,
      static_cast<unsigned long long>(join.radix_materialize_calls),
      static_cast<unsigned long long>(join.radix_partitions));
  std::fprintf(
      f,
      "  \"select_join_sumperhead_400k_sharded\": {\n"
      "    \"num_shards\": %zu,\n"
      "    \"engine_4_threads_1_shard_ms\": %.4f,\n"
      "    \"engine_4_threads_sharded_ms\": %.4f,\n"
      "    \"speedup_sharded4_vs_1shard4\": %.3f,\n"
      "    \"materialize_calls_sharded\": %llu,\n"
      "    \"shard_fanouts\": %llu,\n"
      "    \"shard_fanins\": %llu\n"
      "  },\n",
      shard.num_shards, shard.oneshard4_ms, shard.sharded4_ms,
      shard.oneshard4_ms / shard.sharded4_ms,
      static_cast<unsigned long long>(shard.sharded_materialize_calls),
      static_cast<unsigned long long>(shard.shard_fanouts),
      static_cast<unsigned long long>(shard.shard_fanins));
  std::fprintf(
      f,
      "  \"multi_client_serving_e4\": {\n"
      "    \"sessions\": %d,\n"
      "    \"requests_per_session\": %d,\n"
      "    \"serial_1_session_ms\": %.4f,\n"
      "    \"concurrent_4_sessions_ms\": %.4f,\n"
      "    \"concurrent_4_sessions_nocoalesce_ms\": %.4f,\n"
      "    \"speedup_concurrent4_vs_serial1\": %.3f,\n"
      "    \"coalesced_requests\": %llu,\n"
      "    \"wire_frames_in\": %llu,\n"
      "    \"wire_frames_out\": %llu,\n"
      "    \"wire_bytes_out\": %llu\n"
      "  },\n",
      serve.sessions, serve.requests_per_session, serve.serial1_ms,
      serve.concurrent4_ms, serve.concurrent4_nocoalesce_ms,
      serve.serial1_ms / serve.concurrent4_ms,
      static_cast<unsigned long long>(serve.coalesced_requests),
      static_cast<unsigned long long>(serve.frames_in),
      static_cast<unsigned long long>(serve.frames_out),
      static_cast<unsigned long long>(serve.bytes_out));
  std::fprintf(
      f,
      "  \"ranking_topk_e5\": {\n"
      "    \"rows\": %zu,\n"
      "    \"terms\": %d,\n"
      "    \"queries\": %d,\n"
      "    \"k\": %lld,\n"
      "    \"unpruned_4t_8shards_ms\": %.4f,\n"
      "    \"pruned_4t_8shards_ms\": %.4f,\n"
      "    \"speedup_pruned_vs_unpruned\": %.3f,\n"
      "    \"recall_at_k\": %.4f,\n"
      "    \"zone_blocks_skipped\": %llu,\n"
      "    \"topk_morsels_pruned\": %llu,\n"
      "    \"topk_shards_pruned\": %llu\n"
      "  },\n",
      topk.rows, topk.terms, topk.queries, static_cast<long long>(topk.k),
      topk.unpruned_ms, topk.pruned_ms, topk.unpruned_ms / topk.pruned_ms,
      topk.recall_at_k,
      static_cast<unsigned long long>(topk.zone_blocks_skipped),
      static_cast<unsigned long long>(topk.topk_morsels_pruned),
      static_cast<unsigned long long>(topk.topk_shards_pruned));
  // ci.sh gates both ratios: trace_off_aa_ratio is the noise floor
  // (knob-off must be indistinguishable from knob-off), traced_vs_off
  // bounds the cost of recording every span.
  const double off_min = std::min(tover.off_a_ms, tover.off_b_ms);
  const double off_max = std::max(tover.off_a_ms, tover.off_b_ms);
  std::fprintf(
      f,
      "  \"trace_overhead_e9\": {\n"
      "    \"trace_off_a_ms\": %.4f,\n"
      "    \"trace_off_b_ms\": %.4f,\n"
      "    \"trace_on_ms\": %.4f,\n"
      "    \"spans_per_query\": %llu,\n"
      "    \"spans_knob_off\": %llu,\n"
      "    \"kernel_ops_per_query_off\": %llu,\n"
      "    \"kernel_ops_per_query_traced\": %llu,\n"
      "    \"trace_off_aa_ratio\": %.4f,\n"
      "    \"traced_vs_off\": %.4f\n"
      "  }\n",
      tover.off_a_ms, tover.off_b_ms, tover.on_ms,
      static_cast<unsigned long long>(tover.spans),
      static_cast<unsigned long long>(tover.off_spans),
      static_cast<unsigned long long>(tover.ops_per_query_off),
      static_cast<unsigned long long>(tover.ops_per_query_on),
      off_max / off_min, tover.on_ms / off_min);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote BENCH_retrieval.json\n");
}

std::pair<EngineComparison, EngineComparison> RunE3c(
    db::MirrorDb* database) {
  EngineComparison selection;
  EngineComparison ranking;
  std::printf(
      "\nE3c: materializing sequential executor vs candidate-vector\n"
      "data-flow engine, end to end through the Moa layer.\n\n");

  moa::QueryContext ctx;
  ctx.BindTerms("query", {"sun", "wave", "dune"});
  // Selection-heavy plan: a conjunctive filter over the 400k-row atomic
  // catalog — flattens to the select→semijoin chains the candidate
  // pipelines execute as position-set intersections.
  selection = CompareEngines(
      database, "selection-heavy filter, 400k rows:",
      "select[THIS.year >= 1905 and THIS.year <= 2020 and "
      "THIS.rating >= 5 and THIS.rating <= 950](Cat);",
      ctx);
  // Ranking plan: belief computation dominates; the engine must at least
  // not regress here.
  ranking = CompareEngines(
      database, "ranking with selection, 16k docs:",
      "map[sum(THIS)](map[getBL(THIS.doc, query, stats)]("
      "select[THIS.year >= 1990 and THIS.year <= 2015 and "
      "THIS.rating >= 20](Lib)));",
      ctx);
  return {selection, ranking};
}

}  // namespace

int main() {
  std::printf(
      "E3a: ranking cost vs collection size (|q| = 4), inverted vs scan.\n\n");
  {
    base::TablePrinter table(
        {"docs", "postings", "inverted ms", "scan ms", "scan/inverted"});
    for (int64_t n : {2000, 8000, 32000, 128000}) {
      ir::SyntheticTextOptions options;
      options.num_docs = n;
      options.vocab_size = 8000;
      options.seed = static_cast<uint64_t>(n);
      ContentIndex index = ir::MakeSyntheticIndex(options);
      InferenceNetwork network(&index);
      base::Rng rng(7);
      auto terms = ir::SampleQueryTerms(index, 4, &rng);
      double inv = TimeRank(network, terms, EvalStrategy::kInverted, 3);
      double scan = TimeRank(network, terms, EvalStrategy::kScan, 3);
      table.AddRow(
          {base::StrFormat("%lld", static_cast<long long>(n)),
           base::StrFormat("%lld",
                           static_cast<long long>(index.stats().num_postings)),
           base::StrFormat("%.3f", inv), base::StrFormat("%.3f", scan),
           base::StrFormat("%.1fx", scan / inv)});
    }
    table.Print();
  }

  std::printf(
      "\nE3b: ranking cost vs query length (N = 32000 docs), inverted.\n\n");
  {
    ir::SyntheticTextOptions options;
    options.num_docs = 32000;
    options.vocab_size = 8000;
    options.seed = 11;
    ContentIndex index = ir::MakeSyntheticIndex(options);
    InferenceNetwork network(&index);
    base::TablePrinter table({"query terms", "inverted ms", "candidates"});
    for (int q : {2, 4, 8, 16, 32}) {
      base::Rng rng(static_cast<uint64_t>(q));
      auto terms = ir::SampleQueryTerms(index, q, &rng);
      double inv = TimeRank(network, terms, EvalStrategy::kInverted, 3);
      auto ranking = network.RankSum(terms, EvalStrategy::kInverted);
      table.AddRow({base::StrFormat("%d", q), base::StrFormat("%.3f", inv),
                    base::StrFormat("%zu", ranking.size())});
    }
    table.Print();
  }
  std::printf(
      "\nExpected shape: inverted cost follows postings touched (grows\n"
      "with |q|); scan cost follows collection size regardless of |q|.\n");

  db::MirrorDb database;
  constexpr int kCatalogRows = 400000;
  BuildRetrievalDb(&database, 16000, kCatalogRows, /*seed=*/42);
  auto [selection, ranking] = RunE3c(&database);
  AggComparison agg = RunE3d(&database);
  JoinComparison join = RunE3e(&database, kCatalogRows);
  ShardComparison shard = RunE3f(&database, kCatalogRows, /*num_shards=*/8);
  ServeComparison serve = RunE4(&database);
  RankingTopkComparison topk = RunE5(&database, /*num_shards=*/8);
  TraceOverheadComparison tover = RunE9(database);
  WriteBenchJson(selection, ranking, agg, join, shard, serve, topk, tover);
  return 0;
}
