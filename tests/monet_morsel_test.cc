// Morsel-driven intra-operator parallelism and candidate-aware fused
// aggregation: per-morsel results must be bit-identical to the inline
// kernels across the awkward domain shapes (empty, single-morsel,
// non-divisible sizes), and the engine's fused select→aggregate path must
// agree with the sequential Executor while calling Materialize() zero
// times. Also covers the MirrorDb::Load plan-cache invalidation hook and
// the adaptive thread default.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <future>
#include <latch>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "mirror/mirror_db.h"
#include "moa/naive_eval.h"
#include "monet/bat_ops.h"
#include "monet/catalog.h"
#include "monet/exec.h"
#include "monet/mil.h"
#include "monet/profiler.h"
#include "monet/recycler.h"
#include "monet/worker_pool.h"

namespace mirror::monet {
namespace {

void ExpectBatsEqual(const Bat& a, const Bat& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.Row(i).first.ToString(), b.Row(i).first.ToString())
        << what << " head row " << i;
    EXPECT_EQ(a.Row(i).second.ToString(), b.Row(i).second.ToString())
        << what << " tail row " << i;
  }
}

void ExpectCandsEqual(const CandidateList& a, const CandidateList& b,
                      const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.PositionAt(i), b.PositionAt(i)) << what << " entry " << i;
  }
}

Bat MakeIntBat(size_t n) {
  std::vector<int64_t> vals;
  vals.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    vals.push_back(static_cast<int64_t>((i * 37 + 11) % 101));
  }
  return Bat::DenseInts(std::move(vals));
}

// The boundary shapes morsel splitting must get right: empty, one row,
// exactly one morsel, one over, several morsels with a remainder, and an
// exact multiple.
constexpr size_t kSizes[] = {0, 1, 64, 65, 200, 257, 258, 1000, 1024};
constexpr size_t kMorselSize = 64;

TEST(MorselBoundaryTest, SelectFragmentsMatchInlineKernel) {
  WorkerPool pool;
  pool.EnsureWorkers(3);
  MorselExec mx{&pool, kMorselSize};
  for (size_t n : kSizes) {
    Bat b = MakeIntBat(n);
    Value lo = Value::MakeInt(20);
    Value hi = Value::MakeInt(80);
    CandidateList inline_out = SelectRangeCand(b, lo, hi, true, true);
    CandidateList morsel_out = SelectRangeCand(b, lo, hi, true, true,
                                               /*cands=*/nullptr, mx);
    ExpectCandsEqual(inline_out, morsel_out, "select.range full domain");

    // Sparse domain: every third row survives a pre-selection.
    std::vector<uint32_t> every_third;
    for (size_t i = 0; i < n; i += 3) {
      every_third.push_back(static_cast<uint32_t>(i));
    }
    CandidateList domain =
        CandidateList::FromPositions({every_third.begin(), every_third.end()});
    CandidateList inline_dom = SelectCmpCand(b, CmpOp::kGe, lo, &domain);
    CandidateList morsel_dom = SelectCmpCand(b, CmpOp::kGe, lo, &domain, mx);
    ExpectCandsEqual(inline_dom, morsel_dom, "select.cmp sparse domain");
  }
}

TEST(MorselBoundaryTest, SemiJoinProbeMorselsShareOneBuildSide) {
  WorkerPool pool;
  pool.EnsureWorkers(3);
  MorselExec mx{&pool, kMorselSize};
  Bat keys = Bat::DenseInts({4, 8, 15, 16, 23, 42});
  // Oid-headed key set for the head-membership probe (void heads compare
  // as oids, so the build side must be oid-typed too).
  Bat keys_rev(Column::MakeOids({4, 8, 15, 16, 23, 42}),
               Column::MakeVoid(0, 6));
  for (size_t n : kSizes) {
    Bat probe = MakeIntBat(n);
    // Tail membership: probe tails against key tails.
    CandidateList inline_out = SemiJoinTailCand(probe, keys);
    CandidateList morsel_out = SemiJoinTailCand(probe, keys, nullptr, mx);
    ExpectCandsEqual(inline_out, morsel_out, "semijoin.tail");
    // Head membership over oid heads.
    CandidateList inline_head = SemiJoinHeadCand(probe, keys_rev);
    CandidateList morsel_head = SemiJoinHeadCand(probe, keys_rev, nullptr, mx);
    ExpectCandsEqual(inline_head, morsel_head, "semijoin.head");
  }
}

TEST(MorselBoundaryTest, ParallelMaterializeMatchesSingleGather) {
  WorkerPool pool;
  pool.EnsureWorkers(3);
  MorselExec mx{&pool, kMorselSize};
  for (size_t n : kSizes) {
    Bat b = MakeIntBat(n);
    CandidateList cands = SelectCmpCand(b, CmpOp::kGe, Value::MakeInt(30));
    ExpectBatsEqual(Materialize(b, cands), Materialize(b, cands, mx),
                    "materialize ints");
  }
  // String columns: fragments share the base heap, so the multiway
  // append must stay on the shared-heap fast path.
  std::vector<std::string> words;
  for (size_t i = 0; i < 300; ++i) {
    words.push_back(i % 2 == 0 ? "sun" : "sea");
  }
  Bat strs = Bat::DenseStrs(words);
  CandidateList all = CandidateList::All(strs.size());
  Bat gathered = Materialize(strs, all, mx);
  ExpectBatsEqual(Materialize(strs, all), gathered, "materialize strings");
  EXPECT_EQ(gathered.tail().heap(), strs.tail().heap());
}

// One table over every per-head AggKind and the scalar aggregates: a
// view (`cands`, null = every row) aggregated in place must equal the
// aggregate of its materialized rows, for void, oid and int heads, every
// domain shape, inline and morsel runs, and each head-range hint (none, a
// tight range that takes the dense array, a range too sparse for it).
// Tails are small dyadic fractions, so sums, products and averages are
// exact under any grouping and the tails compare bit for bit.
TEST(FusedAggTest, EveryAggKindOverEveryViewMatchesMaterializeThenAggregate) {
  WorkerPool pool;
  pool.EnsureWorkers(3);
  constexpr double kTails[] = {0.5, 0.75, 0.25, 1.0, 0.125};
  constexpr size_t kGroups = 23;
  constexpr AggKind kKinds[] = {AggKind::kSum, AggKind::kCount,
                                AggKind::kMax, AggKind::kMin,
                                AggKind::kAvg, AggKind::kProd,
                                AggKind::kProbOr};
  for (size_t n : {0ul, 1ul, 65ul, 600ul}) {
    std::vector<double> tails;
    std::vector<Oid> oids;
    std::vector<int64_t> ints;
    for (size_t i = 0; i < n; ++i) {
      tails.push_back(kTails[(i * 7) % std::size(kTails)]);
      oids.push_back(static_cast<Oid>((i * 5) % kGroups));
      ints.push_back(static_cast<int64_t>((i * 5) % kGroups));
    }
    struct HeadCase {
      const char* label;
      Bat bat;
      Oid hi;  // every head lies in [0, hi)
    };
    std::vector<HeadCase> heads;
    heads.push_back({"void", Bat::DenseDbls(tails), static_cast<Oid>(n)});
    heads.push_back({"oid",
                     Bat(Column::MakeOids(oids), Column::MakeDbls(tails)),
                     kGroups});
    heads.push_back(
        {"int", Bat(Column::MakeInts(ints), Column::MakeDbls(tails)),
         kGroups});
    std::vector<std::pair<const char*, std::optional<CandidateList>>>
        domains;
    domains.push_back({"null", std::nullopt});
    domains.push_back({"dense", CandidateList::Dense(n / 4, n / 2)});
    domains.push_back(
        {"sparse", SelectCmpCand(heads[0].bat, CmpOp::kGe,
                                 Value::MakeDbl(0.5))});
    domains.push_back({"empty", CandidateList::FromPositions({})});
    for (const HeadCase& h : heads) {
      std::vector<std::pair<const char*, AggHints>> hints(3);
      hints[0].first = "no hint";
      hints[1].first = "tight range";
      hints[1].second.head_hi = h.hi;
      hints[2].first = "too sparse";
      hints[2].second.head_hi = h.hi + 8 * n + 4096;
      for (const auto& [dlabel, domain] : domains) {
        const CandidateList* cands = domain ? &*domain : nullptr;
        Bat mat = cands != nullptr ? Materialize(h.bat, *cands) : h.bat;
        for (bool parallel : {false, true}) {
          MorselExec mx =
              parallel ? MorselExec{&pool, kMorselSize} : MorselExec{};
          const std::string what = std::string(h.label) + " / " + dlabel +
                                   " / n=" + std::to_string(n) +
                                   (parallel ? " / morsels" : " / inline");
          for (AggKind kind : kKinds) {
            Bat ref = AggregatePerHead(mat, nullptr, kind);
            for (const auto& [hlabel, hint] : hints) {
              Bat got = AggregatePerHead(h.bat, cands, kind, mx, hint);
              const std::string at = what + " / " + hlabel + " / kind " +
                                     std::to_string(static_cast<int>(kind));
              ExpectBatsEqual(ref, got, at.c_str());
              EXPECT_TRUE(std::ranges::equal(ref.tail().ints(),
                                             got.tail().ints()))
                  << at;
              EXPECT_TRUE(std::ranges::equal(ref.tail().dbls(),
                                             got.tail().dbls()))
                  << at;
            }
          }
          EXPECT_EQ(ScalarSum(mat), ScalarSumMapped(h.bat, cands, nullptr, mx))
              << what;
          EXPECT_EQ(ScalarCount(mat), ScalarCount(h.bat, cands)) << what;
          for (FoldOp op :
               {FoldOp::kMax, FoldOp::kMin, FoldOp::kProd, FoldOp::kPor}) {
            const double want = ScalarFold(mat, op);
            const double got = ScalarFoldMapped(h.bat, cands, nullptr, op, mx);
            // A whole-domain product spans too many factors to stay exact,
            // so merged morsel partials may regroup it in the last bits.
            if (parallel && (op == FoldOp::kProd || op == FoldOp::kPor)) {
              EXPECT_NEAR(want, got, 1e-12 * std::abs(want))
                  << what << " / fold " << mil::FoldOpName(op);
            } else {
              EXPECT_EQ(want, got) << what << " / fold "
                                   << mil::FoldOpName(op);
            }
          }
        }
      }
    }
  }
}

TEST(FusedAggTest, TopNOverCandidatesPreservesStableTieOrder) {
  WorkerPool pool;
  pool.EnsureWorkers(3);
  MorselExec mx{&pool, /*morsel_size=*/32};
  // Heavy ties: many equal tails, so per-morsel top-n merging must keep
  // the earlier-row-wins order a full stable sort would produce.
  std::vector<int64_t> vals;
  for (size_t i = 0; i < 400; ++i) vals.push_back((i * 5) % 7);
  Bat b = Bat::DenseInts(std::move(vals));
  CandidateList cands = SelectCmpCand(b, CmpOp::kGe, Value::MakeInt(1));
  Bat mat = Materialize(b, cands);
  for (size_t k : {0ul, 1ul, 9ul, 50ul, 1000ul}) {
    for (bool descending : {true, false}) {
      ExpectBatsEqual(TopNByTail(mat, k, descending),
                      TopNByTailCand(b, &cands, k, descending, mx), "topn");
    }
  }
}

TEST(FusedAggTest, EngineSelectAggPlanFusesWithZeroMaterializations) {
  Catalog catalog;
  catalog.Put("t.year", MakeIntBat(1000));
  catalog.Put("t.rating", Bat::DenseInts([] {
    std::vector<int64_t> v;
    for (size_t i = 0; i < 1000; ++i) v.push_back(static_cast<int64_t>(i));
    return v;
  }()));

  // load year; select.range; load rating; semijoin; sum.per.head — the
  // canonical select→agg chain.
  mil::Program p;
  mil::Instr load_year;
  load_year.op = mil::OpCode::kLoadNamed;
  load_year.name = "t.year";
  load_year.dst = p.NewReg();
  int year = p.Emit(std::move(load_year));
  mil::Instr sel;
  sel.op = mil::OpCode::kSelectRange;
  sel.src0 = year;
  sel.imm0 = Value::MakeInt(20);
  sel.imm1 = Value::MakeInt(90);
  sel.flag0 = true;
  sel.flag1 = true;
  sel.dst = p.NewReg();
  int selected = p.Emit(std::move(sel));
  mil::Instr load_rating;
  load_rating.op = mil::OpCode::kLoadNamed;
  load_rating.name = "t.rating";
  load_rating.dst = p.NewReg();
  int rating = p.Emit(std::move(load_rating));
  mil::Instr semi;
  semi.op = mil::OpCode::kSemiJoinHead;
  semi.src0 = rating;
  semi.src1 = selected;
  semi.dst = p.NewReg();
  int kept = p.Emit(std::move(semi));
  mil::Instr agg;
  agg.op = mil::OpCode::kSumPerHead;
  agg.src0 = kept;
  agg.dst = p.NewReg();
  p.set_result_reg(p.Emit(std::move(agg)));

  auto oracle = mil::Executor(&catalog).Run(p);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

  for (int threads : {1, 4}) {
    mil::ExecutionContext session;
    mil::ExecutionEngine engine(
        &catalog, mil::ExecOptions{.num_threads = threads, .morsel_size = 128});
    ResetKernelStats();
    auto run = engine.Run(p, &session);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    KernelStats stats = SnapshotKernelStats();
    EXPECT_EQ(stats.materializations, 0u) << "threads=" << threads;
    EXPECT_GT(stats.fused_agg_ops, 0u) << "threads=" << threads;
    if (threads > 1) EXPECT_GT(stats.morsel_tasks, 0u);
    ExpectBatsEqual(*oracle.value().bat, *run.value().bat, "select→sum plan");
  }
}

// ---------------------------------------------------------------------------
// ParallelFor's claim contract: the caller and at most pool-size helpers
// claim indices from the group's own counter, and the caller waits only
// for indices already running elsewhere.

TEST(ParallelForTest, EveryIndexRunsExactlyOnceWithTasksFarAbovePoolSize) {
  WorkerPool pool;
  pool.EnsureWorkers(2);
  constexpr size_t kTasks = 5000;
  std::vector<std::atomic<int>> runs(kTasks);
  for (int round = 0; round < 3; ++round) {
    for (auto& r : runs) r.store(0);
    ParallelFor(&pool, kTasks, [&](size_t i) { runs[i].fetch_add(1); });
    for (size_t i = 0; i < kTasks; ++i) {
      ASSERT_EQ(runs[i].load(), 1) << "index " << i << " round " << round;
    }
  }
}

TEST(ParallelForTest, NestedCallsInsidePoolTasksFinishOnAOneThreadPool) {
  WorkerPool pool;
  pool.EnsureWorkers(1);
  std::atomic<int> inner_runs{0};
  auto nested = [&] {
    ParallelFor(&pool, 8, [&](size_t) {
      ParallelFor(&pool, 16, [&](size_t) { inner_runs.fetch_add(1); });
    });
  };
  // From an outside caller (outer indices reach the pool thread, which
  // then fans out again) ...
  nested();
  EXPECT_EQ(inner_runs.load(), 8 * 16);
  // ... and from the pool's only thread: every helper it submits queues
  // behind the task that is waiting, so the caller must claim them all.
  std::promise<void> done;
  pool.Submit([&] {
    nested();
    done.set_value();
  });
  done.get_future().wait();
  EXPECT_EQ(inner_runs.load(), 2 * 8 * 16);
}

TEST(ParallelForTest, ConcurrentCallersRunOnlyTheirOwnGroupsIndices) {
  WorkerPool pool;
  pool.EnsureWorkers(1);
  constexpr size_t kTasks = 400;
  struct Group {
    std::vector<std::thread::id> ran_on =
        std::vector<std::thread::id>(kTasks);
    std::vector<std::atomic<int>> runs = std::vector<std::atomic<int>>(kTasks);
    std::thread::id caller;
  };
  Group groups[2];
  std::latch start(2);
  auto call = [&](Group& g) {
    g.caller = std::this_thread::get_id();
    start.arrive_and_wait();
    ParallelFor(&pool, kTasks, [&](size_t i) {
      g.ran_on[i] = std::this_thread::get_id();
      g.runs[i].fetch_add(1);
      std::this_thread::yield();
    });
  };
  std::thread a(call, std::ref(groups[0]));
  std::thread b(call, std::ref(groups[1]));
  a.join();
  b.join();
  for (int g = 0; g < 2; ++g) {
    const Group& other = groups[1 - g];
    for (size_t i = 0; i < kTasks; ++i) {
      ASSERT_EQ(groups[g].runs[i].load(), 1) << "group " << g << " index " << i;
      ASSERT_NE(groups[g].ran_on[i], other.caller)
          << "group " << g << "'s index " << i
          << " ran on the other group's waiting caller";
    }
  }
}

TEST(ParallelForTest, SharedPoolServesAForkedChild) {
  // fork(2) copies only the calling thread: the child must not inherit
  // workers that do not exist in it, and the parent keeps its pool.
  WorkerPool& pool = SharedWorkerPool();
  pool.EnsureWorkers(2);
  const int before = pool.size();
  pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::alarm(30);  // a task queued for a phantom worker would hang
    pool.EnsureWorkers(2);
    std::promise<void> ran;
    pool.Submit([&] { ran.set_value(); });
    ran.get_future().wait();
    ::_exit(pool.size() >= 2 ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
  EXPECT_EQ(pool.size(), before);
}

TEST(AdaptiveThreadsTest, AutoModeRunsPlansCorrectly) {
  Catalog catalog;
  catalog.Put("t.x", MakeIntBat(500));
  mil::Program p;
  mil::Instr load;
  load.op = mil::OpCode::kLoadNamed;
  load.name = "t.x";
  load.dst = p.NewReg();
  int x = p.Emit(std::move(load));
  mil::Instr sel;
  sel.op = mil::OpCode::kSelectCmp;
  sel.cmp_op = CmpOp::kGe;
  sel.src0 = x;
  sel.imm0 = Value::MakeInt(50);
  sel.dst = p.NewReg();
  int selected = p.Emit(std::move(sel));
  mil::Instr sum;
  sum.op = mil::OpCode::kScalarSum;
  sum.src0 = selected;
  sum.dst = p.NewReg();
  p.set_result_reg(p.Emit(std::move(sum)));

  auto oracle = mil::Executor(&catalog).Run(p);
  ASSERT_TRUE(oracle.ok());
  // num_threads = 0: resolves to hardware concurrency (possibly clamped
  // back to 1 on narrow plans/hosts); the result must be unaffected.
  mil::ExecutionContext session;
  mil::ExecutionEngine engine(&catalog, mil::ExecOptions{.num_threads = 0});
  auto run = engine.Run(p, &session);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_TRUE(run.value().is_scalar);
  EXPECT_DOUBLE_EQ(oracle.value().scalar, run.value().scalar);
}

TEST(ScalarBinTest, RegisterAndImmediateOperands) {
  Catalog catalog;
  catalog.Put("t.x", Bat::DenseInts({1, 2, 3, 4}));
  mil::Program p;
  mil::Instr load;
  load.op = mil::OpCode::kLoadNamed;
  load.name = "t.x";
  load.dst = p.NewReg();
  int x = p.Emit(std::move(load));
  mil::Instr sum;
  sum.op = mil::OpCode::kScalarSum;
  sum.src0 = x;
  sum.dst = p.NewReg();
  int s = p.Emit(std::move(sum));
  mil::Instr count;
  count.op = mil::OpCode::kScalarCount;
  count.src0 = x;
  count.dst = p.NewReg();
  int c = p.Emit(std::move(count));
  mil::Instr div;
  div.op = mil::OpCode::kScalarBin;
  div.bin_op = BinOp::kDiv;
  div.src0 = s;
  div.src1 = c;
  div.dst = p.NewReg();
  int avg = p.Emit(std::move(div));
  mil::Instr plus;
  plus.op = mil::OpCode::kScalarBin;
  plus.bin_op = BinOp::kAdd;
  plus.src0 = avg;
  plus.imm0 = Value::MakeDbl(0.5);  // immediate right operand
  plus.dst = p.NewReg();
  p.set_result_reg(p.Emit(std::move(plus)));

  for (bool use_engine : {false, true}) {
    base::Result<mil::RunResult> run = base::Status::Internal("unset");
    mil::ExecutionContext session;
    if (use_engine) {
      run = mil::ExecutionEngine(&catalog).Run(p, &session);
    } else {
      run = mil::Executor(&catalog).Run(p);
    }
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_TRUE(run.value().is_scalar);
    EXPECT_DOUBLE_EQ(run.value().scalar, 10.0 / 4.0 + 0.5);
  }
}

// ---------------------------------------------------------------------------
// Mapped views: a chain of scalar map steps over a candidate view (or a
// whole BAT), evaluated inline by scalar aggregates or collapsed by one
// gather, must equal Materialize → MapBinaryScalar/MapUnary… → aggregate.

MapStep BinStep(BinOp op, Value scalar) {
  MapStep s;
  s.bin_op = op;
  s.scalar = std::move(scalar);
  return s;
}

MapStep UnaryStep(UnOp op) {
  MapStep s;
  s.unary = true;
  s.un_op = op;
  return s;
}

struct ChainCase {
  const char* label;
  std::vector<MapStep> steps;
};

// Chains over the int columns of MakeIntBat (tails in [0, 100]).
std::vector<ChainCase> IntChainCases() {
  return {
      {"int-closed",
       {BinStep(BinOp::kMul, Value::MakeInt(2)),
        BinStep(BinOp::kAdd, Value::MakeInt(1)),
        BinStep(BinOp::kMax, Value::MakeInt(50)),
        BinStep(BinOp::kSub, Value::MakeInt(7))}},
      {"promotes at /",
       {BinStep(BinOp::kMul, Value::MakeInt(3)),
        BinStep(BinOp::kDiv, Value::MakeInt(4)),
        BinStep(BinOp::kAdd, Value::MakeInt(1))}},
      {"promotes at a dbl constant",
       {BinStep(BinOp::kAdd, Value::MakeInt(1)),
        BinStep(BinOp::kMul, Value::MakeDbl(0.5)),
        BinStep(BinOp::kSub, Value::MakeInt(2))}},
      {"promotes at map.unary",
       {BinStep(BinOp::kMul, Value::MakeInt(2)), UnaryStep(UnOp::kLog1p),
        BinStep(BinOp::kAdd, Value::MakeInt(1))}},
  };
}

std::shared_ptr<const MapChain> BuildChain(ValueType input,
                                           const std::vector<MapStep>& steps) {
  std::shared_ptr<const MapChain> chain;
  for (const MapStep& s : steps) {
    chain = s.unary ? MapChain::ThenUnary(chain.get(), input, s.un_op)
                    : MapChain::ThenBinary(chain.get(), input, s.bin_op,
                                           s.scalar);
  }
  return chain;
}

// The materializing reference: Materialize, then one map kernel per step.
Bat MaterializeThenMap(const Bat& b, const CandidateList* cands,
                       const std::vector<MapStep>& steps) {
  Bat out = cands != nullptr ? Materialize(b, *cands) : b;
  for (const MapStep& s : steps) {
    out = s.unary ? MapUnary(out, s.un_op)
                  : MapBinaryScalar(out, s.scalar, s.bin_op);
  }
  return out;
}

// Bit-identical when `exact`; otherwise within the fuzz suite's 1e-9.
void ExpectSameDouble(double want, double got, bool exact,
                      const std::string& what) {
  if (exact || want == got) {
    EXPECT_EQ(want, got) << what;
    return;
  }
  EXPECT_NEAR(want, got, 1e-9 * std::max(1.0, std::fabs(want))) << what;
}

TEST(MappedViewTest, KernelsMatchMaterializeThenMap) {
  WorkerPool pool;
  pool.EnsureWorkers(3);
  for (size_t n : kSizes) {
    Bat ints = MakeIntBat(n);
    std::vector<double> dvals;
    for (size_t i = 0; i < n; ++i) {
      dvals.push_back(static_cast<double>((i * 53 + 7) % 97) * 0.37 - 9.0);
    }
    Bat dbls = Bat::DenseDbls(std::move(dvals));
    std::vector<std::pair<const Bat*, ChainCase>> cases;
    for (ChainCase& c : IntChainCases()) cases.push_back({&ints, c});
    cases.push_back({&dbls,
                     {"dbl tail",
                      {BinStep(BinOp::kMul, Value::MakeInt(3)),
                       UnaryStep(UnOp::kAbs),
                       BinStep(BinOp::kPow, Value::MakeDbl(0.5))}}});
    for (const auto& [b, c] : cases) {
      auto chain = BuildChain(b->tail().type(), c.steps);
      ASSERT_NE(chain, nullptr) << c.label;
      std::vector<std::pair<const char*, std::optional<CandidateList>>>
          domains;
      domains.push_back({"whole BAT", std::nullopt});
      domains.push_back({"all rows", CandidateList::All(n)});
      domains.push_back({"dense middle", CandidateList::Dense(n / 4, n / 2)});
      domains.push_back(
          {"sparse", SelectCmpCand(ints, CmpOp::kGe, Value::MakeInt(30))});
      domains.push_back({"empty", CandidateList::FromPositions({})});
      for (const auto& [dlabel, domain] : domains) {
        const CandidateList* cands = domain ? &*domain : nullptr;
        Bat ref = MaterializeThenMap(*b, cands, c.steps);
        EXPECT_EQ(chain->out_type(), ref.tail().type()) << c.label;
        for (bool parallel : {false, true}) {
          MorselExec mx = parallel ? MorselExec{&pool, kMorselSize}
                                   : MorselExec{};
          const std::string what = std::string(c.label) + " / " + dlabel +
                                   " / n=" + std::to_string(n) +
                                   (parallel ? " / morsels" : " / inline");
          Bat collapsed = MaterializeMapped(*b, cands, *chain, mx);
          EXPECT_EQ(collapsed.head().type(), ref.head().type()) << what;
          EXPECT_EQ(collapsed.tail().type(), ref.tail().type()) << what;
          ExpectBatsEqual(ref, collapsed, what.c_str());
          // Row strings print doubles with %g: compare the tails' bits.
          EXPECT_TRUE(
              std::ranges::equal(ref.tail().ints(), collapsed.tail().ints()))
              << what;
          EXPECT_TRUE(
              std::ranges::equal(ref.tail().dbls(), collapsed.tail().dbls()))
              << what;
          // Without morsels the sum adds in ScalarSum's order; int chains
          // sum exactly under any grouping.
          const bool exact_sum =
              !parallel || chain->out_type() == ValueType::kInt;
          ExpectSameDouble(ScalarSum(ref),
                           ScalarSumMapped(*b, cands, chain.get(), mx),
                           exact_sum, what + " / sum");
          for (FoldOp op : {FoldOp::kMax, FoldOp::kMin}) {
            ExpectSameDouble(ScalarFold(ref, op),
                             ScalarFoldMapped(*b, cands, chain.get(), op, mx),
                             /*exact=*/true, what + " / fold");
          }
        }
      }
    }
    // prod/por over a chain that maps into [0, 1], where they stay finite.
    auto unit = BuildChain(ValueType::kInt,
                           {BinStep(BinOp::kDiv, Value::MakeInt(100))});
    Bat ref = MaterializeThenMap(
        ints, nullptr, {BinStep(BinOp::kDiv, Value::MakeInt(100))});
    for (FoldOp op : {FoldOp::kProd, FoldOp::kPor}) {
      ExpectSameDouble(ScalarFold(ref, op),
                       ScalarFoldMapped(ints, nullptr, unit.get(), op),
                       /*exact=*/true, "unit fold inline");
      ExpectSameDouble(ScalarFold(ref, op),
                       ScalarFoldMapped(ints, nullptr, unit.get(), op,
                                        MorselExec{&pool, kMorselSize}),
                       /*exact=*/false, "unit fold morsels");
    }
  }
}

TEST(MappedViewTest, NonNumericStepsAreNotDeferred) {
  EXPECT_EQ(MapChain::ThenBinary(nullptr, ValueType::kStr, BinOp::kAdd,
                                 Value::MakeInt(1)),
            nullptr);
  EXPECT_EQ(MapChain::ThenBinary(nullptr, ValueType::kInt, BinOp::kAdd,
                                 Value::MakeStr("x")),
            nullptr);
  EXPECT_EQ(MapChain::ThenUnary(nullptr, ValueType::kOid, UnOp::kNeg),
            nullptr);
}

// Emits one instruction reading `src` (or nothing) and returns its dst.
int EmitOp(mil::Program* p, mil::OpCode op, int src0, int src1 = -1) {
  mil::Instr i;
  i.op = op;
  i.src0 = src0;
  i.src1 = src1;
  i.dst = p->NewReg();
  return p->Emit(std::move(i));
}

int EmitLoad(mil::Program* p, const char* name) {
  mil::Instr i;
  i.op = mil::OpCode::kLoadNamed;
  i.name = name;
  i.dst = p->NewReg();
  return p->Emit(std::move(i));
}

// The read_write query shape: select over t.year, the oid-aligned
// semijoin onto t.rating, then one map instruction per step. Returns the
// mapped register.
int EmitMappedSelect(mil::Program* p, const std::vector<MapStep>& steps) {
  int year = EmitLoad(p, "t.year");
  mil::Instr sel;
  sel.op = mil::OpCode::kSelectCmp;
  sel.cmp_op = CmpOp::kGe;
  sel.src0 = year;
  sel.imm0 = Value::MakeInt(30);
  sel.dst = p->NewReg();
  int selected = p->Emit(std::move(sel));
  int rating = EmitLoad(p, "t.rating");
  int reg = EmitOp(p, mil::OpCode::kSemiJoinHead, rating, selected);
  for (const MapStep& s : steps) {
    mil::Instr m;
    m.op = s.unary ? mil::OpCode::kMapUnary : mil::OpCode::kMapBinaryScalar;
    m.src0 = reg;
    m.bin_op = s.bin_op;
    m.un_op = s.un_op;
    m.imm0 = s.scalar;
    m.dst = p->NewReg();
    reg = p->Emit(std::move(m));
  }
  return reg;
}

Catalog MappedViewCatalog() {
  Catalog catalog;
  catalog.Put("t.year", MakeIntBat(1000));
  std::vector<int64_t> rating;
  for (size_t i = 0; i < 1000; ++i) {
    rating.push_back(static_cast<int64_t>((i * 13) % 1001));
  }
  catalog.Put("t.rating", Bat::DenseInts(std::move(rating)));
  return catalog;
}

uint64_t MultiplexOps(const KernelStats& stats) {
  return stats.op_count[static_cast<int>(KernelOp::kMultiplex)];
}

TEST(MappedViewTest, EngineAggregatesEvaluateTheChainInline) {
  Catalog catalog = MappedViewCatalog();
  for (const ChainCase& c : IntChainCases()) {
    // avg = sum / count: two consumers of one mapped register. The sum
    // applies each step once, the count reads no values, and nothing
    // materializes. The fold is a second plan over the same chain.
    mil::Program avg_plan;
    int m = EmitMappedSelect(&avg_plan, c.steps);
    int sum = EmitOp(&avg_plan, mil::OpCode::kScalarSum, m);
    int count = EmitOp(&avg_plan, mil::OpCode::kScalarCount, m);
    mil::Instr div;
    div.op = mil::OpCode::kScalarBin;
    div.bin_op = BinOp::kDiv;
    div.src0 = sum;
    div.src1 = count;
    div.dst = avg_plan.NewReg();
    avg_plan.set_result_reg(avg_plan.Emit(std::move(div)));

    mil::Program max_plan;
    mil::Instr fold;
    fold.op = mil::OpCode::kScalarFold;
    fold.fold_op = FoldOp::kMax;
    fold.src0 = EmitMappedSelect(&max_plan, c.steps);
    fold.dst = max_plan.NewReg();
    max_plan.set_result_reg(max_plan.Emit(std::move(fold)));

    for (const mil::Program* plan : {&avg_plan, &max_plan}) {
      auto oracle = mil::Executor(&catalog).Run(*plan);
      ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
      for (int threads : {1, 4}) {
        SCOPED_TRACE(std::string(c.label) +
                     " threads=" + std::to_string(threads));
        mil::ExecutionContext session;
        mil::ExecutionEngine engine(
            &catalog,
            mil::ExecOptions{.num_threads = threads, .morsel_size = 64});
        ResetKernelStats();
        auto run = engine.Run(*plan, &session);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        KernelStats stats = SnapshotKernelStats();
        EXPECT_EQ(stats.materializations, 0u);
        EXPECT_EQ(stats.materialized_tuples, 0u);
        EXPECT_EQ(MultiplexOps(stats), c.steps.size());
        if (threads > 1) {
          EXPECT_GT(stats.morsel_tasks, 0u);
        }
        ExpectSameDouble(oracle.value().scalar, run.value().scalar,
                         threads == 1 || plan == &max_plan, "scalar");
      }
    }
  }
}

TEST(MappedViewTest, CollapsedRegisterIsSharedByItsConsumers) {
  Catalog catalog = MappedViewCatalog();
  const std::vector<MapStep> steps = {
      BinStep(BinOp::kMul, Value::MakeInt(3)),
      BinStep(BinOp::kDiv, Value::MakeInt(4))};
  // Two consumers that need a BAT: the first collapses the view with one
  // gather and publishes it; the second reads the collapsed BAT and must
  // not apply the chain a second time.
  mil::Program p;
  int m = EmitMappedSelect(&p, steps);
  mil::Instr top;
  top.op = mil::OpCode::kTopN;
  top.src0 = m;
  top.n = 7;
  top.flag0 = true;
  top.dst = p.NewReg();
  int topn = p.Emit(std::move(top));
  int per_head = EmitOp(&p, mil::OpCode::kSumPerHead, m);
  for (int result : {topn, per_head}) {
    p.set_result_reg(result);
    auto oracle = mil::Executor(&catalog).Run(p);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    for (int threads : {1, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      mil::ExecutionContext session;
      mil::ExecutionEngine engine(
          &catalog,
          mil::ExecOptions{.num_threads = threads, .morsel_size = 64});
      ResetKernelStats();
      auto run = engine.Run(p, &session);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      ExpectBatsEqual(*oracle.value().bat, *run.value().bat, "consumer");
      if (threads == 1) {
        // In program order the count is deterministic: one gather, one
        // application of each step.
        KernelStats stats = SnapshotKernelStats();
        EXPECT_EQ(stats.materializations, 1u);
        EXPECT_EQ(MultiplexOps(stats), steps.size());
      }
    }
  }
}

TEST(MappedViewTest, AlignedSemijoinWithAFullColumnSharesTheList) {
  Catalog catalog = MappedViewCatalog();
  const size_t selected =
      SelectCmpCand(*catalog.Get("t.year").value(), CmpOp::kGe,
                    Value::MakeInt(30))
          .size();
  ASSERT_GT(selected, 0u);
  // semijoin(full rating, view) and semijoin(view, full rating): either
  // way the view's list is the result, so the only list this query
  // allocates — and charges to its memory account — is the select's.
  for (bool view_on_left : {false, true}) {
    mil::Program p;
    int year = EmitLoad(&p, "t.year");
    mil::Instr sel;
    sel.op = mil::OpCode::kSelectCmp;
    sel.cmp_op = CmpOp::kGe;
    sel.src0 = year;
    sel.imm0 = Value::MakeInt(30);
    sel.dst = p.NewReg();
    int view = p.Emit(std::move(sel));
    int rating = EmitLoad(&p, "t.rating");
    int semi = view_on_left
                   ? EmitOp(&p, mil::OpCode::kSemiJoinHead, view, rating)
                   : EmitOp(&p, mil::OpCode::kSemiJoinHead, rating, view);
    p.set_result_reg(EmitOp(&p, mil::OpCode::kScalarCount, semi));
    mil::ExecutionEngine engine(&catalog, mil::ExecOptions{.num_threads = 1});
    ResetKernelStats();
    auto run = engine.Run(p);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run.value().scalar, static_cast<double>(selected));
    EXPECT_EQ(SnapshotKernelStats().peak_query_bytes,
              selected * sizeof(uint32_t))
        << "view_on_left=" << view_on_left;
  }
}

// ---------------------------------------------------------------------------
// Selection semantics pinned against the naive oracle. Every select the
// engine runs keeps exactly the rows the naive Moa evaluator keeps
// (moa/naive_eval.cc): int with int and oid with oid compare exactly, int
// with dbl compares as double, strings compare bytewise. Each case runs
// through the kernels (all rows, a dense and a sparse domain, with and
// without zone maps, inline and in morsels) and through the engine
// (unsharded and 4-sharded, zone maps on and off, through the recycler,
// at 1 and 4 threads).

constexpr int64_t k2p53 = int64_t{1} << 53;
constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();

// The naive evaluator's `cell (op) lit` (its CmpKind switch).
bool NaiveCmp(const Value& cell, CmpOp op, const Value& lit) {
  switch (op) {
    case CmpOp::kEq:
      return cell == lit;
    case CmpOp::kNeq:
      return !(cell == lit);
    case CmpOp::kLt:
      return cell < lit;
    case CmpOp::kLe:
      return cell < lit || cell == lit;
    case CmpOp::kGt:
      return lit < cell;
    case CmpOp::kGe:
      return lit < cell || cell == lit;
  }
  return false;
}

// One selection instruction (src0/dst unset) and the oracle's verdict.
struct SelectCase {
  std::string label;
  mil::Instr sel;
  std::function<bool(const Value&)> keep;
};

mil::Instr SelInstr(mil::OpCode op) {
  mil::Instr i;
  i.op = op;
  return i;
}

// Every select.cmp (all six operators), select.eq and select.neq over
// `lits`, and every select.range over pairs of `range_lits` with all four
// inclusivity combinations: equal, contradictory and exclusive bounds
// included.
std::vector<SelectCase> SelectCases(const std::vector<Value>& lits,
                                    const std::vector<Value>& range_lits) {
  std::vector<SelectCase> out;
  static constexpr CmpOp kOps[] = {CmpOp::kEq, CmpOp::kNeq, CmpOp::kLt,
                                   CmpOp::kLe, CmpOp::kGt,  CmpOp::kGe};
  for (const Value& v : lits) {
    for (CmpOp op : kOps) {
      SelectCase c{"select.cmp op" + std::to_string(static_cast<int>(op)) +
                       " " + v.ToString(),
                   SelInstr(mil::OpCode::kSelectCmp),
                   [v, op](const Value& x) { return NaiveCmp(x, op, v); }};
      c.sel.cmp_op = op;
      c.sel.imm0 = v;
      out.push_back(std::move(c));
    }
    SelectCase eq{"select.eq " + v.ToString(),
                  SelInstr(mil::OpCode::kSelectEq),
                  [v](const Value& x) { return NaiveCmp(x, CmpOp::kEq, v); }};
    eq.sel.imm0 = v;
    out.push_back(std::move(eq));
    SelectCase neq{
        "select.neq " + v.ToString(), SelInstr(mil::OpCode::kSelectNeq),
        [v](const Value& x) { return NaiveCmp(x, CmpOp::kNeq, v); }};
    neq.sel.imm0 = v;
    out.push_back(std::move(neq));
  }
  for (const Value& lo : range_lits) {
    for (const Value& hi : range_lits) {
      for (int incl = 0; incl < 4; ++incl) {
        const bool lo_inc = (incl & 1) != 0;
        const bool hi_inc = (incl & 2) != 0;
        SelectCase c{
            "select.range " + std::string(lo_inc ? "[" : "(") +
                lo.ToString() + ", " + hi.ToString() + (hi_inc ? "]" : ")"),
            SelInstr(mil::OpCode::kSelectRange),
            [=](const Value& x) {
              return NaiveCmp(x, lo_inc ? CmpOp::kGe : CmpOp::kGt, lo) &&
                     NaiveCmp(x, hi_inc ? CmpOp::kLe : CmpOp::kLt, hi);
            }};
        c.sel.imm0 = lo;
        c.sel.imm1 = hi;
        c.sel.flag0 = lo_inc;
        c.sel.flag1 = hi_inc;
        out.push_back(std::move(c));
      }
    }
  }
  return out;
}

// The candidate kernel a selection instruction runs.
CandidateList RunSelectKernel(const Bat& b, const mil::Instr& sel,
                              const CandidateList* dom, const MorselExec& mx,
                              const ZoneMap* zones) {
  switch (sel.op) {
    case mil::OpCode::kSelectEq:
      return SelectEqCand(b, sel.imm0, dom, mx, zones);
    case mil::OpCode::kSelectNeq:
      return SelectNeqCand(b, sel.imm0, dom, mx);
    case mil::OpCode::kSelectCmp:
      return SelectCmpCand(b, sel.cmp_op, sel.imm0, dom, mx, zones);
    default:
      return SelectRangeCand(b, sel.imm0, sel.imm1, sel.flag0, sel.flag1,
                             dom, mx, zones);
  }
}

// Whole zone blocks of one repeating pattern each, so the zone maps see
// blocks that every bound keeps entirely, drops entirely or splits; the
// row count is no multiple of the block or the morsel size.
template <typename T>
std::vector<T> ZonedPattern(const std::vector<std::vector<T>>& blocks) {
  std::vector<T> out;
  for (const std::vector<T>& pattern : blocks) {
    for (size_t i = 0; i < kZoneBlockRows; ++i) {
      out.push_back(pattern[(i * 7) % pattern.size()]);
    }
  }
  for (size_t i = 0; i < 100; ++i) out.push_back(blocks[0][i % blocks[0].size()]);
  return out;
}

// The engine configurations every case runs under. The recycled runs
// share one recycler across a column's cases, so later selects replay or
// are seeded by earlier cases' lists (int and dbl literals alike).
struct EngineConfig {
  int threads;
  size_t shards;
  bool zone_maps;
  bool recycled;
};
constexpr EngineConfig kEngineConfigs[] = {
    {1, 0, false, false}, {1, 0, true, false}, {1, 4, false, false},
    {1, 4, true, false},  {1, 0, true, true},  {4, 0, false, false},
    {4, 0, true, false},  {4, 4, false, false}, {4, 4, true, false},
    {4, 0, true, true}};

void ExpectSelectionsMatchOracle(const Bat& b,
                                 const std::vector<SelectCase>& cases) {
  const size_t n = b.size();
  std::vector<Value> cells;
  cells.reserve(n);
  for (size_t i = 0; i < n; ++i) cells.push_back(b.tail().ValueAt(i));
  std::vector<uint32_t> every_third;
  for (size_t i = 0; i < n; i += 3) every_third.push_back(static_cast<uint32_t>(i));
  const CandidateList sparse =
      CandidateList::FromPositions({every_third.begin(), every_third.end()});
  const CandidateList dense = CandidateList::Dense(37, n - 80);
  const ZoneMap zones = BuildZoneMap(b.tail());
  WorkerPool pool;
  pool.EnsureWorkers(3);
  const MorselExec morsels{&pool, 1000};

  Catalog catalog;
  catalog.Put("t.x", b);
  Recycler recycler;
  for (const SelectCase& c : cases) {
    SCOPED_TRACE(c.label);
    std::vector<size_t> want;
    for (size_t i = 0; i < n; ++i) {
      if (c.keep(cells[i])) want.push_back(i);
    }
    auto within = [&](const CandidateList& dom) {
      std::vector<size_t> out;
      for (size_t j = 0; j < dom.size(); ++j) {
        if (c.keep(cells[dom.PositionAt(j)])) out.push_back(dom.PositionAt(j));
      }
      return out;
    };
    const std::vector<size_t> want_sparse = within(sparse);
    const std::vector<size_t> want_dense = within(dense);
    for (const MorselExec& mx : {MorselExec{}, morsels}) {
      for (const ZoneMap* z : {static_cast<const ZoneMap*>(nullptr), &zones}) {
        EXPECT_EQ(RunSelectKernel(b, c.sel, nullptr, mx, z).ToPositions(),
                  want);
        EXPECT_EQ(RunSelectKernel(b, c.sel, &sparse, mx, z).ToPositions(),
                  want_sparse);
        EXPECT_EQ(RunSelectKernel(b, c.sel, &dense, mx, z).ToPositions(),
                  want_dense);
      }
    }

    mil::Program p;
    mil::Instr load = SelInstr(mil::OpCode::kLoadNamed);
    load.name = "t.x";
    load.dst = p.NewReg();
    mil::Instr sel = c.sel;
    sel.src0 = p.Emit(std::move(load));
    sel.dst = p.NewReg();
    p.set_result_reg(p.Emit(std::move(sel)));
    for (const EngineConfig& config : kEngineConfigs) {
      mil::ExecOptions options{.num_threads = config.threads,
                               .morsel_size = 1000,
                               .num_shards = config.shards,
                               .zone_maps = config.zone_maps};
      if (config.recycled) {
        options.recycler = &recycler;
        options.recycler_generation = recycler.generation();
      }
      mil::ExecutionContext session;
      mil::ExecutionEngine engine(&catalog, options);
      auto run = engine.Run(p, &session);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      const Bat& got = *run.value().bat;
      std::vector<size_t> heads;
      for (size_t i = 0; i < got.size(); ++i) {
        heads.push_back(static_cast<size_t>(got.head().OidAt(i)));
      }
      EXPECT_EQ(heads, want)
          << "threads=" << config.threads << " shards=" << config.shards
          << " zone_maps=" << config.zone_maps
          << " recycled=" << config.recycled;
    }
  }
}

TEST(SelectSemanticsTest, IntColumnMatchesNaiveOracle) {
  const std::vector<int64_t> edges = {k2p53 - 1, k2p53,   k2p53 + 1,
                                      kI64Min,   kI64Max, -1,
                                      0,         1980,    1981};
  std::vector<int64_t> years;
  for (int64_t y = 1900; y <= 2025; ++y) years.push_back(y);
  // Blocks whose only extremes sit past 2^53, where a double stands for
  // several ints: zone pruning must neither drop nor wholly keep them
  // wrongly.
  Bat b = Bat::DenseInts(ZonedPattern<int64_t>(
      {years, edges, {k2p53 + 1}, {k2p53 - 1, k2p53}, {kI64Max}, {kI64Min},
       {k2p53}, {k2p53 + 4}, {k2p53, k2p53 + 2}}));
  const Value d2p53 = Value::MakeDbl(static_cast<double>(k2p53));
  std::vector<Value> lits = {
      Value::MakeInt(kI64Min),      Value::MakeInt(-1),
      Value::MakeInt(1980),         Value::MakeInt(k2p53 - 1),
      Value::MakeInt(k2p53),        Value::MakeInt(k2p53 + 1),
      Value::MakeInt(k2p53 + 3),    Value::MakeDbl(9007199254740996.0),
      Value::MakeInt(kI64Max),      Value::MakeDbl(1980.5),
      Value::MakeDbl(-0.5),         d2p53,
      Value::MakeDbl(9007199254740994.0),
      Value::MakeDbl(9223372036854775808.0),
      Value::MakeDbl(-9223372036854775808.0),
      Value::MakeDbl(1e300),        Value::MakeDbl(-1e300),
      Value::MakeDbl(std::numeric_limits<double>::infinity()),
      Value::MakeDbl(-std::numeric_limits<double>::infinity())};
  std::vector<Value> range_lits = {
      Value::MakeInt(1980), Value::MakeDbl(1980.5), Value::MakeInt(k2p53),
      d2p53,                Value::MakeInt(k2p53 + 1),
      Value::MakeInt(kI64Min), Value::MakeInt(kI64Max)};
  ExpectSelectionsMatchOracle(b, SelectCases(lits, range_lits));
}

TEST(SelectSemanticsTest, OidColumnMatchesNaiveOracle) {
  std::vector<Oid> small;
  for (Oid o = 0; o < 300; ++o) small.push_back(o);
  const Oid big = static_cast<Oid>(k2p53);
  Bat b = Bat::DenseOids(ZonedPattern<Oid>(
      {small, {big - 1, big, big + 1, 0, 7}, {big + 1}, {Oid{kI64Max}},
       {big}, {big + 4}, {big, big + 2}}));
  std::vector<Value> lits = {Value::MakeOid(0),       Value::MakeOid(5),
                             Value::MakeOid(150),     Value::MakeOid(big - 1),
                             Value::MakeOid(big),     Value::MakeOid(big + 1),
                             Value::MakeOid(big + 3), Value::MakeOid(kI64Max)};
  std::vector<Value> range_lits = {Value::MakeOid(0), Value::MakeOid(150),
                                   Value::MakeOid(big), Value::MakeOid(big + 1),
                                   Value::MakeOid(kI64Max)};
  ExpectSelectionsMatchOracle(b, SelectCases(lits, range_lits));
}

// A void (dense oid) column across 2^53: its zone bounds are the block's
// first and last oid rounded to double, not widened like a scanned
// column's, so a block ending at big + 8191 has a maximum of big + 8192
// and one starting at big a minimum of big.
TEST(SelectSemanticsTest, VoidColumnMatchesNaiveOracle) {
  const Oid big = static_cast<Oid>(k2p53);
  const Oid base = big - 2 * kZoneBlockRows;
  const size_t n = 4 * kZoneBlockRows + 100;
  Bat b(Column::MakeVoid(0, n), Column::MakeVoid(base, n));
  std::vector<Value> lits;
  for (Oid o : {base, big - 1, big, big + 1, big + 3, big + 8190, big + 8191,
                big + 8192, base + n - 1}) {
    lits.push_back(Value::MakeOid(o));
  }
  std::vector<Value> range_lits = {Value::MakeOid(big), Value::MakeOid(big + 1),
                                   Value::MakeOid(big + 8191)};
  ExpectSelectionsMatchOracle(b, SelectCases(lits, range_lits));
}

TEST(SelectSemanticsTest, DblColumnMatchesNaiveOracle) {
  const double inf = std::numeric_limits<double>::infinity();
  const double d2p53 = static_cast<double>(k2p53);
  Bat b = Bat::DenseDbls(ZonedPattern<double>(
      {{1980.0, 1980.5, 1981.0, 2000.25},
       {-0.0, 0.0, d2p53, d2p53 + 2, -inf, inf, 1980.5},
       {1980.5},
       {-1e300, 1e300}}));
  std::vector<Value> lits = {
      Value::MakeDbl(1980.5), Value::MakeDbl(1980.0), Value::MakeDbl(-0.0),
      Value::MakeDbl(0.0),    Value::MakeDbl(d2p53),  Value::MakeDbl(inf),
      Value::MakeDbl(-inf),   Value::MakeInt(1980),   Value::MakeInt(1981),
      Value::MakeInt(0),      Value::MakeInt(k2p53 + 1),
      Value::MakeInt(kI64Max)};
  std::vector<Value> range_lits = {Value::MakeDbl(1980.0),
                                   Value::MakeDbl(1980.5), Value::MakeInt(1981),
                                   Value::MakeDbl(-0.0), Value::MakeDbl(inf),
                                   Value::MakeInt(k2p53 + 1)};
  ExpectSelectionsMatchOracle(b, SelectCases(lits, range_lits));
}

TEST(SelectSemanticsTest, StrColumnMatchesNaiveOracle) {
  const std::vector<std::string> words = ZonedPattern<std::string>(
      {{"apple", "banana", "cherry", "date", ""}, {"banana"}, {"Zebra", "zz"}});
  Bat b = Bat::DenseStrs(words);
  std::vector<Value> lits;
  for (const char* s : {"", "banana", "c", "zzz", "apple", "Zebra"}) {
    lits.push_back(Value::MakeStr(s));
  }
  std::vector<Value> range_lits;
  for (const char* s : {"", "banana", "c", "zz"}) {
    range_lits.push_back(Value::MakeStr(s));
  }
  ExpectSelectionsMatchOracle(b, SelectCases(lits, range_lits));
}

// [v, v) keeps no row for any column type, also when both bounds are the
// same Value object.
TEST(SelectSemanticsTest, HalfOpenEqualBoundsKeepNothing) {
  const Bat strs = Bat::DenseStrs({"a", "b", "b", "c"});
  const Bat ints = Bat::DenseInts({1, 2, 2, 3});
  const Bat dbls = Bat::DenseDbls({1.0, 2.0, 2.0, 3.0});
  const Value s = Value::MakeStr("b");
  const Value i = Value::MakeInt(2);
  const Value d = Value::MakeDbl(2.0);
  for (const auto& [bat, v] : {std::pair{&strs, &s}, std::pair{&ints, &i},
                               std::pair{&dbls, &d}}) {
    SCOPED_TRACE(v->ToString());
    EXPECT_EQ(SelectRange(*bat, *v, *v, true, false).size(), 0u);
    EXPECT_EQ(SelectRange(*bat, *v, *v, false, true).size(), 0u);
    EXPECT_EQ(SelectRange(*bat, *v, *v, true, true).size(), 2u);
    EXPECT_EQ(SelectRangeCand(*bat, *v, *v, true, false).size(), 0u);
    EXPECT_EQ(SelectRangeCand(*bat, *v, *v, true, true).size(), 2u);
  }
}

}  // namespace
}  // namespace mirror::monet

namespace mirror::db {
namespace {

moa::MoaValue IntRow(int64_t x) {
  return moa::MoaValue::Tuple({moa::MoaValue::Int(x)});
}

TEST(PlanCacheInvalidationTest, LoadNotifiesRegisteredSessions) {
  MirrorDb db;
  ASSERT_TRUE(db.Define("define S as SET<TUPLE<Atomic<int>: x>>;").ok());
  ASSERT_TRUE(db.Load("S", {IntRow(1), IntRow(2), IntRow(3)}).ok());

  monet::mil::ExecutionContext session;
  db.RegisterSession(&session);
  db.RegisterSession(&session);  // idempotent
  EXPECT_EQ(db.registered_session_count(), 1u);

  moa::QueryContext ctx;
  QueryOptions options;
  // A plan is cached on its second compile and hit on the third ask.
  for (int round = 0; round < 3; ++round) {
    auto first = db.Query("sum(map[THIS.x](S));", ctx, options, &session);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_TRUE(first.value().is_scalar);
    EXPECT_DOUBLE_EQ(first.value().scalar.AsDouble(), 6.0);
  }
  EXPECT_GT(session.plan_cache_size(), 0u);
  EXPECT_EQ(session.plan_cache_hits(), 1u);

  // Re-Load: the hook drops the stale plans, and the re-compiled query
  // sees the new contents (no manual InvalidatePlans()).
  ASSERT_TRUE(db.Load("S", {IntRow(10), IntRow(20)}).ok());
  EXPECT_EQ(session.plan_cache_size(), 0u);
  auto second = db.Query("sum(map[THIS.x](S));", ctx, options, &session);
  ASSERT_TRUE(second.ok());
  EXPECT_DOUBLE_EQ(second.value().scalar.AsDouble(), 30.0);
  EXPECT_EQ(session.plan_cache_hits(), 1u) << "recompiled, not a stale hit";

  // Unregistered sessions are left alone again.
  db.UnregisterSession(&session);
  EXPECT_EQ(db.registered_session_count(), 0u);
  ASSERT_TRUE(db.Load("S", {IntRow(5)}).ok());
  EXPECT_GT(session.plan_cache_size(), 0u);
}

TEST(ScalarAvgTest, FlattenedAvgMatchesNaiveOracle) {
  MirrorDb db;
  ASSERT_TRUE(db.Define("define S as SET<TUPLE<Atomic<int>: x>>;").ok());
  ASSERT_TRUE(db.Load("S", {IntRow(3), IntRow(4), IntRow(11)}).ok());
  moa::QueryContext ctx;
  const std::string query = "avg(map[THIS.x * 2 + 1](S));";
  QueryOptions flattened;
  auto flat = db.Query(query, ctx, flattened);
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  QueryOptions naive;
  naive.flattened = false;
  auto oracle = db.Query(query, ctx, naive);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ASSERT_TRUE(flat.value().is_scalar);
  ASSERT_TRUE(oracle.value().is_scalar);
  EXPECT_NEAR(flat.value().scalar.AsDouble(), oracle.value().scalar.AsDouble(),
              1e-9);
  EXPECT_DOUBLE_EQ(flat.value().scalar.AsDouble(), 13.0);
}

TEST(MappedViewTest, ReadWriteQueryShapeMaterializesNothing) {
  MirrorDb db;
  ASSERT_TRUE(db.Define("define Cat as SET<TUPLE<Atomic<URL>: u, "
                        "Atomic<int>: year, Atomic<int>: rating>>;")
                  .ok());
  std::vector<moa::MoaValue> rows;
  for (int64_t i = 0; i < 3000; ++i) {
    rows.push_back(moa::MoaValue::Tuple(
        {moa::MoaValue::Str("c" + std::to_string(i)),
         moa::MoaValue::Int(1900 + (i * 7) % 126),
         moa::MoaValue::Int((i * 31) % 1001)}));
  }
  ASSERT_TRUE(db.Load("Cat", std::move(rows)).ok());
  moa::QueryContext ctx;
  const std::string query =
      "sum(map[THIS.rating * 2 + 1](select[THIS.year >= 1950 and "
      "THIS.rating >= 300](Cat)));";
  QueryOptions naive;
  naive.flattened = false;
  auto oracle = db.Query(query, ctx, naive);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  for (int threads : {1, 4}) {
    QueryOptions options;
    options.exec.num_threads = threads;
    options.exec.morsel_size = 256;
    const uint64_t before = monet::SnapshotKernelStats().materialized_tuples;
    auto flat = db.Query(query, ctx, options);
    ASSERT_TRUE(flat.ok()) << flat.status().ToString();
    EXPECT_EQ(monet::SnapshotKernelStats().materialized_tuples, before)
        << "threads=" << threads;
    EXPECT_EQ(flat.value().scalar.AsDouble(),
              oracle.value().scalar.AsDouble());
  }
}

}  // namespace
}  // namespace mirror::db
