// The recycler's contracts: it caches the select kernel's own interval,
// so neq, string and empty intervals bypass it while bounds past 2^53
// replay exactly; predicates that keep the same rows share one entry;
// containment must respect inclusivity at shared endpoints and the
// tail's own order; generation fencing must make both stale lookups and
// stale inserts impossible, a result must be admitted only on its key's
// second request, and the cost x frequency admission policy must hold
// bytes under the budget
// while keeping hot entries over cold ones — including across a fence,
// which drops entries but not popularity. Candidate lists are held
// packed: every shape must unpack position for position, the budget is
// charged the packed size, and lookups that decode outside the mutex
// must stay correct while other threads insert and fence.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "monet/bat_ops.h"
#include "monet/candidate.h"
#include "monet/catalog.h"
#include "monet/exec.h"
#include "monet/mil.h"
#include "monet/recycler.h"
#include "monet/value.h"

namespace mirror::monet {
namespace {

namespace mil = monet::mil;

constexpr double kInf = std::numeric_limits<double>::infinity();

mil::Instr SelectEq(Value v) {
  mil::Instr i;
  i.op = mil::OpCode::kSelectEq;
  i.imm0 = std::move(v);
  return i;
}

mil::Instr SelectCmp(CmpOp op, Value v) {
  mil::Instr i;
  i.op = mil::OpCode::kSelectCmp;
  i.cmp_op = op;
  i.imm0 = std::move(v);
  return i;
}

mil::Instr SelectRange(Value lo, Value hi, bool lo_incl, bool hi_incl) {
  mil::Instr i;
  i.op = mil::OpCode::kSelectRange;
  i.imm0 = std::move(lo);
  i.imm1 = std::move(hi);
  i.flag0 = lo_incl;
  i.flag1 = hi_incl;
  return i;
}

/// The interval `lo <= x <= hi` over a dbl tail, each side exclusive when
/// its flag is false (+-kInf: unbounded).
SelectInterval Dbls(double lo, double hi, bool lo_incl = true,
                    bool hi_incl = true) {
  return SelectInterval::Range(ValueType::kDbl, Value::MakeDbl(lo),
                               Value::MakeDbl(hi), lo_incl, hi_incl);
}

std::shared_ptr<const std::vector<uint8_t>> Payload(size_t n, uint8_t fill) {
  return std::make_shared<const std::vector<uint8_t>>(n, fill);
}

/// Requests `key` `times` times, as the daemon's poll loop does once per
/// QUERY: a result is admitted only when its key was requested before.
void Ask(Recycler& r, uint64_t gen, const std::string& key, int times = 2) {
  for (int i = 0; i < times; ++i) r.LookupResult(gen, key);
}

CandidateList Cands(std::vector<uint32_t> positions) {
  return CandidateList::FromPositions({positions.begin(), positions.end()});
}

/// Every `step`-th row of [0, n), from `first`.
CandidateList Strided(size_t n, size_t first, size_t step) {
  std::vector<uint32_t> p;
  for (size_t i = first; i < n; i += step) {
    p.push_back(static_cast<uint32_t>(i));
  }
  return Cands(std::move(p));
}

// -- Interval normalization. -------------------------------------------------

constexpr int64_t k2p53 = int64_t{1} << 53;
constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();

int64_t Lo(const SelectInterval& iv) { return static_cast<int64_t>(iv.lo); }
int64_t Hi(const SelectInterval& iv) { return static_cast<int64_t>(iv.hi); }

TEST(SelectIntervalTest, NormalizesEveryIntervalShape) {
  // Over an int tail: the closed int interval the bounds keep.
  SelectInterval iv = SelectEq(Value::MakeInt(7)).Interval(ValueType::kInt);
  EXPECT_EQ(iv.type, ValueType::kInt);
  EXPECT_EQ(Lo(iv), 7);
  EXPECT_EQ(Hi(iv), 7);
  iv = SelectCmp(CmpOp::kLt, Value::MakeDbl(2.5)).Interval(ValueType::kInt);
  EXPECT_EQ(Lo(iv), kI64Min);
  EXPECT_EQ(Hi(iv), 2);
  iv = SelectCmp(CmpOp::kLe, Value::MakeInt(9)).Interval(ValueType::kInt);
  EXPECT_EQ(Hi(iv), 9);
  iv = SelectCmp(CmpOp::kGt, Value::MakeInt(30)).Interval(ValueType::kInt);
  EXPECT_EQ(Lo(iv), 31);
  EXPECT_EQ(Hi(iv), kI64Max);
  iv = SelectCmp(CmpOp::kGe, Value::MakeInt(30)).Interval(ValueType::kInt);
  EXPECT_EQ(Lo(iv), 30);
  iv = SelectRange(Value::MakeInt(10), Value::MakeInt(20), true, false)
           .Interval(ValueType::kInt);
  EXPECT_EQ(Lo(iv), 10);
  EXPECT_EQ(Hi(iv), 19);
  // Over a dbl tail: closed doubles, exclusive bounds one ulp inward.
  iv = SelectCmp(CmpOp::kLt, Value::MakeDbl(2.5)).Interval(ValueType::kDbl);
  EXPECT_EQ(iv.dlo, -kInf);
  EXPECT_EQ(iv.dhi, std::nextafter(2.5, -kInf));
  iv = SelectRange(Value::MakeInt(10), Value::MakeInt(20), false, true)
           .Interval(ValueType::kDbl);
  EXPECT_EQ(iv.dlo, std::nextafter(10.0, kInf));
  EXPECT_EQ(iv.dhi, 20.0);
  // Void tails share the oid domain, in unsigned order.
  iv = SelectCmp(CmpOp::kGe, Value::MakeOid(5)).Interval(ValueType::kVoid);
  EXPECT_EQ(iv.type, ValueType::kOid);
  EXPECT_EQ(iv.lo, 5u);
  EXPECT_EQ(iv.hi, std::numeric_limits<uint64_t>::max());
}

TEST(SelectIntervalTest, NeqStrNaNAndEmptyAreNotCached) {
  // Not-equal keeps the rows outside an interval.
  EXPECT_FALSE(SelectCmp(CmpOp::kNeq, Value::MakeInt(5))
                   .Interval(ValueType::kInt)
                   .cacheable());
  // Strings compare bytewise; the recycler keeps numeric intervals only.
  EXPECT_FALSE(
      SelectEq(Value::MakeStr("bob")).Interval(ValueType::kStr).cacheable());
  // A NaN bound keeps no row, over dbl and int tails alike.
  const Value nan = Value::MakeDbl(std::numeric_limits<double>::quiet_NaN());
  for (ValueType t : {ValueType::kDbl, ValueType::kInt}) {
    const SelectInterval iv = SelectEq(nan).Interval(t);
    EXPECT_TRUE(iv.empty);
    EXPECT_FALSE(iv.cacheable());
  }
  EXPECT_FALSE(SelectCmp(CmpOp::kGt, Value::MakeInt(kI64Max))
                   .Interval(ValueType::kInt)
                   .cacheable());
  // Bounds past 2^53 are cached in the tail's own domain: the dbl 2^53
  // over an int tail keeps 2^53 and 2^53 + 1, which rounds onto it.
  SelectInterval iv =
      SelectEq(Value::MakeInt(k2p53 + 1)).Interval(ValueType::kInt);
  EXPECT_TRUE(iv.cacheable());
  EXPECT_EQ(Lo(iv), k2p53 + 1);
  iv = SelectEq(Value::MakeDbl(0x1p53)).Interval(ValueType::kInt);
  EXPECT_TRUE(iv.cacheable());
  EXPECT_EQ(Lo(iv), k2p53);
  EXPECT_EQ(Hi(iv), k2p53 + 1);
}

TEST(SelectIntervalTest, ContainmentRespectsInclusivity) {
  // Strict containment.
  EXPECT_TRUE(Dbls(30, kInf).Contains(Dbls(40, kInf)));
  EXPECT_FALSE(Dbls(40, kInf).Contains(Dbls(30, kInf)));
  // Same interval contains itself.
  EXPECT_TRUE(Dbls(10, 20).Contains(Dbls(10, 20)));
  // Equal endpoint: an inclusive narrow end needs an inclusive wide end.
  EXPECT_FALSE(Dbls(10, 20, false, true).Contains(Dbls(10, 20)));
  EXPECT_TRUE(Dbls(10, 20).Contains(Dbls(10, 20, false, true)));
  EXPECT_FALSE(Dbls(10, 20, true, false).Contains(Dbls(10, 20)));
  EXPECT_TRUE(Dbls(10, 20).Contains(Dbls(10, 20, true, false)));
  // Int tails order signed, oid tails unsigned.
  auto ints = [](CmpOp op, int64_t v) {
    return SelectCmp(op, Value::MakeInt(v)).Interval(ValueType::kInt);
  };
  auto oids = [](CmpOp op, Oid v) {
    return SelectCmp(op, Value::MakeOid(v)).Interval(ValueType::kOid);
  };
  EXPECT_TRUE(ints(CmpOp::kGe, -5).Contains(ints(CmpOp::kGe, 3)));
  EXPECT_FALSE(ints(CmpOp::kGe, 3).Contains(ints(CmpOp::kGe, -5)));
  EXPECT_TRUE(oids(CmpOp::kGe, 5).Contains(oids(CmpOp::kGe, Oid{1} << 63)));
  EXPECT_FALSE(oids(CmpOp::kLe, 5).Contains(oids(CmpOp::kGe, Oid{1} << 63)));
  // Different tail types and uncacheable intervals never contain.
  EXPECT_FALSE(Dbls(-kInf, kInf).Contains(ints(CmpOp::kGe, 3)));
  EXPECT_FALSE(ints(CmpOp::kGe, kI64Min).Contains(ints(CmpOp::kNeq, 3)));
}

TEST(SelectIntervalTest, EndpointInclusivityAndBatSeparateEntries) {
  Recycler r;
  const uint64_t gen = r.generation();
  r.InsertCandidates(gen, "a", Dbls(10, 20), Cands({1, 2, 3}), 100);
  r.InsertCandidates(gen, "a", Dbls(10, 20, false, true), Cands({2, 3}), 100);
  r.InsertCandidates(gen, "a", Dbls(10, 20, true, false), Cands({1, 2}), 100);
  r.InsertCandidates(gen, "b", Dbls(10, 20), Cands({7}), 100);
  EXPECT_EQ(r.stats().candidate_entries, 4u);
  auto exact = [&](const std::string& bat, const SelectInterval& iv) {
    bool subsumed = true;
    auto hit = r.LookupCandidates(gen, bat, iv, &subsumed);
    EXPECT_TRUE(hit.has_value());
    EXPECT_FALSE(subsumed);
    return hit.has_value() ? hit->ToPositions() : std::vector<size_t>{};
  };
  EXPECT_EQ(exact("a", Dbls(10, 20)), (std::vector<size_t>{1, 2, 3}));
  EXPECT_EQ(exact("a", Dbls(10, 20, false, true)),
            (std::vector<size_t>{2, 3}));
  EXPECT_EQ(exact("a", Dbls(10, 20, true, false)),
            (std::vector<size_t>{1, 2}));
  EXPECT_EQ(exact("b", Dbls(10, 20)), (std::vector<size_t>{7}));
}

// -- Engine selects through the recycler. -------------------------------------

/// Runs `sel` over the base BAT "t.x" on the 1-thread engine and returns
/// the kept rows' head oids: through `recycler`, or with recycling off.
std::vector<Oid> RunSelect(const Catalog& catalog, mil::Instr sel,
                           Recycler* recycler) {
  mil::Program p;
  mil::Instr load;
  load.op = mil::OpCode::kLoadNamed;
  load.name = "t.x";
  load.dst = p.NewReg();
  sel.src0 = p.Emit(std::move(load));
  sel.dst = p.NewReg();
  p.set_result_reg(p.Emit(std::move(sel)));
  mil::ExecOptions options{.num_threads = 1, .recycle = recycler != nullptr};
  if (recycler != nullptr) {
    options.recycler = recycler;
    options.recycler_generation = recycler->generation();
  }
  mil::ExecutionEngine engine(&catalog, options);
  auto run = engine.Run(p);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  std::vector<Oid> heads;
  if (!run.ok()) return heads;
  const Bat& got = *run.value().bat;
  for (size_t i = 0; i < got.size(); ++i) heads.push_back(got.head().OidAt(i));
  return heads;
}

TEST(RecycledSelectTest, PredicatesKeepingTheSameRowsShareOneEntry) {
  std::vector<int64_t> years;
  for (int64_t y = 1950; y < 2030; ++y) years.push_back(y);
  Catalog catalog;
  catalog.Put("t.x", Bat::DenseInts(years));
  Recycler r;
  const std::vector<Oid> want = RunSelect(
      catalog, SelectCmp(CmpOp::kGt, Value::MakeInt(1990)), nullptr);
  ASSERT_EQ(want.size(), 2029u - 1990u);
  // year > 1990, year >= 1991 and year > 1990.5 keep the same ints.
  for (const mil::Instr& sel :
       {SelectCmp(CmpOp::kGt, Value::MakeInt(1990)),
        SelectCmp(CmpOp::kGe, Value::MakeInt(1991)),
        SelectCmp(CmpOp::kGt, Value::MakeDbl(1990.5))}) {
    EXPECT_EQ(RunSelect(catalog, sel, &r), want) << sel.ToString();
  }
  RecyclerStats s = r.stats();
  EXPECT_EQ(s.candidate_misses, 1u);
  EXPECT_EQ(s.candidate_hits, 2u);
  EXPECT_EQ(s.candidate_subsumption_hits, 0u);
  EXPECT_EQ(s.candidate_entries, 1u);
}

TEST(RecycledSelectTest, BoundsPast2p53HitAndReplayExactly) {
  // Ints around 2^53, where neighbouring ints share a double.
  std::vector<int64_t> xs;
  for (int64_t d = -6; d <= 6; ++d) {
    for (int rep = 0; rep < 3; ++rep) xs.push_back(k2p53 + d);
  }
  xs.push_back(0);
  xs.push_back(kI64Max);
  Catalog catalog;
  catalog.Put("t.x", Bat::DenseInts(xs));
  const std::vector<mil::Instr> sels = {
      SelectEq(Value::MakeInt(k2p53 - 1)), SelectEq(Value::MakeInt(k2p53)),
      SelectEq(Value::MakeInt(k2p53 + 1)), SelectEq(Value::MakeDbl(0x1p53)),
      SelectCmp(CmpOp::kGt, Value::MakeInt(k2p53)),
      SelectRange(Value::MakeInt(k2p53 - 3), Value::MakeDbl(0x1p53), true,
                  false)};
  Recycler r;
  // A wide interval first, so each later select is first seeded by a
  // subsuming entry, then replayed from its own.
  RunSelect(catalog, SelectCmp(CmpOp::kGe, Value::MakeInt(k2p53 - 4)), &r);
  for (int round = 0; round < 2; ++round) {
    for (const mil::Instr& sel : sels) {
      SCOPED_TRACE(sel.ToString());
      const RecyclerStats before = r.stats();
      EXPECT_EQ(RunSelect(catalog, sel, &r), RunSelect(catalog, sel, nullptr));
      const RecyclerStats after = r.stats();
      if (round == 0) {
        EXPECT_EQ(after.candidate_subsumption_hits,
                  before.candidate_subsumption_hits + 1);
      } else {
        EXPECT_EQ(after.candidate_hits, before.candidate_hits + 1);
      }
      EXPECT_EQ(after.candidate_misses, before.candidate_misses);
    }
  }
  // The int 2^53 and the dbl 2^53 keep different rows: two entries.
  EXPECT_NE(RunSelect(catalog, SelectEq(Value::MakeInt(k2p53)), nullptr),
            RunSelect(catalog, SelectEq(Value::MakeDbl(0x1p53)), nullptr));
}

// -- Result section. ---------------------------------------------------------

TEST(RecyclerTest, ResultRoundTripIsBitIdentical) {
  Recycler r;
  const uint64_t gen = r.generation();
  auto payload = Payload(1000, 0xAB);
  // First request: a miss, and its computed reply is not cached.
  EXPECT_EQ(r.LookupResult(gen, "q1"), nullptr);
  r.InsertResult(gen, "q1", Payload(1000, 0xAB), 500);
  EXPECT_EQ(r.stats().result_entries, 0u);
  // Second request: a miss again, and now the reply is admitted.
  EXPECT_EQ(r.LookupResult(gen, "q1"), nullptr);
  r.InsertResult(gen, "q1", payload, 500);
  EXPECT_EQ(r.stats().result_entries, 1u);
  // Third request: a hit on the very same bytes.
  auto hit = r.LookupResult(gen, "q1");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), payload.get()) << "the very same bytes, not a copy";
  EXPECT_EQ(*hit, std::vector<uint8_t>(1000, 0xAB));
  EXPECT_EQ(r.LookupResult(gen, "q2"), nullptr);
  RecyclerStats s = r.stats();
  EXPECT_EQ(s.result_hits, 1u);
  EXPECT_EQ(s.result_misses, 3u);
  EXPECT_EQ(s.result_entries, 1u);
  EXPECT_EQ(s.admissions_rejected, 0u)
      << "a first-request refusal is not the budget's rejection";
  EXPECT_GT(s.bytes_held, 1000u);
}

TEST(RecyclerTest, InsertWithoutARepeatedRequestIsNotAdmitted) {
  Recycler r;
  const uint64_t gen = r.generation();
  // Never requested, then requested once: both inserts are refused.
  r.InsertResult(gen, "q", Payload(100, 1), 10);
  Ask(r, gen, "q", 1);
  r.InsertResult(gen, "q", Payload(100, 1), 10);
  EXPECT_EQ(r.stats().result_entries, 0u);
  EXPECT_EQ(r.stats().bytes_held, 0u);
}

TEST(RecyclerTest, PeekCountsNothing) {
  Recycler r;
  const uint64_t gen = r.generation();
  // A peek at a missing key neither counts a miss nor a request: the
  // one real request that follows leaves the key unadmittable.
  EXPECT_EQ(r.PeekResult(gen, "q"), nullptr);
  Ask(r, gen, "q", 1);
  r.InsertResult(gen, "q", Payload(100, 1), 10);
  EXPECT_EQ(r.stats().result_entries, 0u);
  EXPECT_EQ(r.stats().result_misses, 1u);
  // Once admitted, a peek serves the bytes without counting a hit.
  Ask(r, gen, "q", 1);
  auto payload = Payload(100, 2);
  r.InsertResult(gen, "q", payload, 10);
  EXPECT_EQ(r.PeekResult(gen, "q").get(), payload.get());
  EXPECT_EQ(r.PeekResult(r.Fence(), "q"), nullptr);
  RecyclerStats s = r.stats();
  EXPECT_EQ(s.result_hits, 0u);
  EXPECT_EQ(s.result_misses, 2u);
}

TEST(RecyclerTest, StaleGenerationNeitherServesNorAdmits) {
  Recycler r;
  const uint64_t old_gen = r.generation();
  Ask(r, old_gen, "q1");
  r.InsertResult(old_gen, "q1", Payload(100, 1), 10);
  ASSERT_EQ(r.stats().result_entries, 1u);
  r.Fence();
  // The entry is gone and the old generation can do nothing.
  EXPECT_EQ(r.LookupResult(old_gen, "q1"), nullptr);
  EXPECT_EQ(r.LookupResult(r.generation(), "q1"), nullptr);
  Ask(r, r.generation(), "q2");
  r.InsertResult(old_gen, "q2", Payload(100, 2), 10);
  EXPECT_EQ(r.LookupResult(r.generation(), "q2"), nullptr)
      << "an execution that started before the fence must not publish";
  EXPECT_EQ(r.stats().result_entries, 0u);
  EXPECT_EQ(r.stats().bytes_held, 0u);
  EXPECT_GE(r.stats().invalidations, 1u);
}

TEST(RecyclerTest, FenceAdvancesGenerationTwicePerMutation) {
  Recycler r;
  const uint64_t g0 = r.generation();
  // The mutation protocol fences before and after the apply window.
  const uint64_t g1 = r.Fence();
  const uint64_t g2 = r.Fence();
  EXPECT_EQ(g1, g0 + 1);
  EXPECT_EQ(g2, g0 + 2);
  EXPECT_EQ(r.generation(), g2);
}

TEST(RecyclerTest, BudgetIsAHardCeiling) {
  Recycler r(/*budget_bytes=*/4096);
  const uint64_t gen = r.generation();
  for (int i = 0; i < 50; ++i) {
    Ask(r, gen, "q" + std::to_string(i));
    r.InsertResult(gen, "q" + std::to_string(i), Payload(300, uint8_t(i)), 10);
    EXPECT_LE(r.stats().bytes_held, 4096u);
  }
  RecyclerStats s = r.stats();
  EXPECT_LE(s.bytes_held, 4096u);
  EXPECT_GT(s.evictions + s.admissions_rejected, 0u)
      << "50 x ~428-byte entries cannot all fit in 4096 bytes";
}

TEST(RecyclerTest, HotEntriesDisplaceColdOnesButNotViceVersa) {
  Recycler r(/*budget_bytes=*/1200);
  const uint64_t gen = r.generation();
  // Make "hot" popular before it is ever admitted (misses count).
  Ask(r, gen, "hot", 10);
  // Two cold entries, each requested twice, fill the budget (each ~431
  // bytes).
  Ask(r, gen, "cold1");
  Ask(r, gen, "cold2");
  r.InsertResult(gen, "cold1", Payload(300, 1), 10);
  r.InsertResult(gen, "cold2", Payload(300, 2), 10);
  ASSERT_EQ(r.stats().result_entries, 2u);
  // The hot entry displaces a cold one.
  r.InsertResult(gen, "hot", Payload(300, 3), 10);
  EXPECT_NE(r.LookupResult(gen, "hot"), nullptr);
  EXPECT_GE(r.stats().evictions, 1u);
  // A fresh cold entry cannot displace the hot one: the remaining cold
  // entry and the newcomer tie, and ties do not evict.
  const uint64_t rejected_before = r.stats().admissions_rejected;
  Ask(r, gen, "cold3");
  r.InsertResult(gen, "cold3", Payload(300, 4), 10);
  EXPECT_NE(r.LookupResult(gen, "hot"), nullptr);
  EXPECT_GT(r.stats().admissions_rejected, rejected_before);
}

TEST(RecyclerTest, PopularitySurvivesTheFence) {
  Recycler r(/*budget_bytes=*/1200);
  uint64_t gen = r.generation();
  Ask(r, gen, "hot", 10);
  gen = r.Fence();
  // After the fence the cache is empty but "hot" is still hot: admitted
  // entries carry the surviving frequency, so it displaces cold ones.
  Ask(r, gen, "cold1");
  Ask(r, gen, "cold2");
  r.InsertResult(gen, "cold1", Payload(300, 1), 10);
  r.InsertResult(gen, "cold2", Payload(300, 2), 10);
  r.InsertResult(gen, "hot", Payload(300, 3), 10);
  EXPECT_NE(r.LookupResult(gen, "hot"), nullptr);
  EXPECT_GE(r.stats().evictions, 1u);
}

TEST(RecyclerTest, ShrinkingTheBudgetEvictsDownToFit) {
  Recycler r;
  const uint64_t gen = r.generation();
  for (int i = 0; i < 8; ++i) {
    Ask(r, gen, "q" + std::to_string(i));
    r.InsertResult(gen, "q" + std::to_string(i), Payload(1000, uint8_t(i)),
                   10);
  }
  ASSERT_EQ(r.stats().result_entries, 8u);
  r.set_budget_bytes(2500);
  EXPECT_LE(r.stats().bytes_held, 2500u);
  EXPECT_LT(r.stats().result_entries, 8u);
  EXPECT_EQ(r.budget_bytes(), 2500u);
}

TEST(RecyclerTest, DuplicateInsertKeepsTheIncumbent) {
  Recycler r;
  const uint64_t gen = r.generation();
  auto first = Payload(100, 1);
  Ask(r, gen, "q");
  r.InsertResult(gen, "q", first, 10);
  r.InsertResult(gen, "q", Payload(100, 2), 10);
  auto hit = r.LookupResult(gen, "q");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), first.get());
}

// -- Candidate section. ------------------------------------------------------

TEST(RecyclerTest, CandidateExactMatchReplays) {
  Recycler r;
  const uint64_t gen = r.generation();
  r.InsertCandidates(gen, "age", Dbls(30, kInf, false, true), Cands({1, 5, 9}),
                     100);
  bool subsumed = true;
  auto hit =
      r.LookupCandidates(gen, "age", Dbls(30, kInf, false, true), &subsumed);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->ToPositions(), (std::vector<size_t>{1, 5, 9}));
  EXPECT_FALSE(subsumed);
  RecyclerStats s = r.stats();
  EXPECT_EQ(s.candidate_hits, 1u);
  EXPECT_EQ(s.candidate_entries, 1u);
}

TEST(RecyclerTest, SubsumptionServesTheSmallestSuperset) {
  Recycler r;
  const uint64_t gen = r.generation();
  r.InsertCandidates(gen, "age", Dbls(0, kInf), Cands({1, 2, 3, 4, 5, 6, 7, 8}),
                     100);
  r.InsertCandidates(gen, "age", Dbls(30, 60), Cands({4, 5, 6}), 100);
  bool subsumed = false;
  // [40, 50] is contained in both; the smaller list wins.
  auto hit = r.LookupCandidates(gen, "age", Dbls(40, 50), &subsumed);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(subsumed);
  EXPECT_EQ(hit->ToPositions(), (std::vector<size_t>{4, 5, 6}));
  EXPECT_EQ(r.stats().candidate_subsumption_hits, 1u);
  // A predicate contained in neither misses.
  subsumed = true;
  EXPECT_FALSE(
      r.LookupCandidates(gen, "other", Dbls(40, 50), &subsumed).has_value());
  EXPECT_FALSE(subsumed);
}

TEST(RecyclerTest, SubsumptionHonorsInclusivityAtTheEdge) {
  Recycler r;
  const uint64_t gen = r.generation();
  // Cached: age > 30 (exclusive lower bound).
  r.InsertCandidates(gen, "age", Dbls(30, kInf, false, true), Cands({1, 2}),
                     100);
  bool subsumed = false;
  // age >= 30 includes 30 itself, which the cached list may lack.
  EXPECT_FALSE(
      r.LookupCandidates(gen, "age", Dbls(30, kInf, true, true), &subsumed)
          .has_value());
  // age > 40 is strictly inside.
  EXPECT_TRUE(
      r.LookupCandidates(gen, "age", Dbls(40, kInf, false, true), &subsumed)
          .has_value());
  EXPECT_TRUE(subsumed);
}

TEST(RecyclerTest, FenceDropsCandidatesToo) {
  Recycler r;
  const uint64_t gen = r.generation();
  r.InsertCandidates(gen, "age", Dbls(0, 10), Cands({1}), 100);
  r.Fence();
  bool subsumed = false;
  EXPECT_FALSE(r.LookupCandidates(r.generation(), "age", Dbls(0, 10), &subsumed)
                   .has_value());
  EXPECT_EQ(r.stats().candidate_entries, 0u);
  r.InsertCandidates(gen, "age", Dbls(0, 10), Cands({1}), 100);
  EXPECT_EQ(r.stats().candidate_entries, 0u)
      << "stale-generation candidate insert must be refused";
}

// -- Packed form. -------------------------------------------------------------

void ExpectRoundTrip(const CandidateList& list) {
  PackedCandidates packed = list.Pack();
  EXPECT_EQ(packed.size(), list.size());
  CandidateList back = packed.Unpack();
  EXPECT_EQ(back.is_dense(), list.is_dense());
  ASSERT_EQ(back.size(), list.size());
  for (size_t i = 0; i < list.size(); ++i) {
    ASSERT_EQ(back.PositionAt(i), list.PositionAt(i)) << "at index " << i;
  }
  // The packed payload is never larger than the position vector.
  if (!list.is_dense()) {
    EXPECT_LE(packed.payload_bytes(), list.size() * sizeof(uint32_t));
  } else {
    EXPECT_EQ(packed.payload_bytes(), 0u);
  }
}

TEST(PackedCandidatesTest, RoundTripsEveryShape) {
  constexpr uint32_t kMax = std::numeric_limits<uint32_t>::max();
  ExpectRoundTrip(Cands({}));
  ExpectRoundTrip(CandidateList::Dense(0, 0));
  ExpectRoundTrip(CandidateList::Dense(7, 1000));
  ExpectRoundTrip(Cands({0}));
  ExpectRoundTrip(Cands({12345}));
  ExpectRoundTrip(Strided(1000, 0, 1));  // every row, as a sparse list
  ExpectRoundTrip(Strided(1000, 0, 2));  // alternating rows
  ExpectRoundTrip(Strided(1000, 1, 2));
  // Runs that cross 64-bit word boundaries, from unaligned starts.
  std::vector<uint32_t> runs;
  for (uint32_t start : {3u, 60u, 127u, 250u, 511u}) {
    for (uint32_t k = 0; k < 10; ++k) runs.push_back(start + k);
  }
  ExpectRoundTrip(Cands(runs));
  // Positions at the very top of the 32-bit range.
  std::vector<uint32_t> top;
  for (uint32_t k = 0; k < 130; ++k) top.push_back(kMax - 129 + k);
  ExpectRoundTrip(Cands(top));
  ExpectRoundTrip(Cands({0, kMax}));
  ExpectRoundTrip(Cands({kMax}));
}

TEST(PackedCandidatesTest, RandomListsRoundTrip) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 1 + rng() % 5000;
    const uint32_t first = rng() % 3 == 0 ? 0 : static_cast<uint32_t>(rng());
    const uint32_t room = std::numeric_limits<uint32_t>::max() - first;
    const double density = std::ldexp(1.0, -static_cast<int>(rng() % 8));
    std::bernoulli_distribution keep(density);
    std::vector<uint32_t> p;
    for (size_t i = 0; i < n && i <= room; ++i) {
      if (keep(rng)) p.push_back(first + static_cast<uint32_t>(i));
    }
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    ExpectRoundTrip(Cands(std::move(p)));
  }
}

TEST(PackedCandidatesTest, PicksTheSmallerForm) {
  // 50% density: a 100-word bitmap (800 B) against 3200 positions.
  EXPECT_EQ(Strided(6400, 0, 2).Pack().payload_bytes(), 800u);
  // 1 row in 16: 100 words (800 B) against 400 positions (1600 B).
  EXPECT_EQ(Strided(6400, 0, 16).Pack().payload_bytes(), 800u);
  // 1 row in 64: 100 words (800 B) against 100 positions (400 B).
  EXPECT_EQ(Strided(6400, 0, 64).Pack().payload_bytes(), 400u);
  // A wide span with few rows never builds a huge bitmap.
  EXPECT_EQ(Cands({0, std::numeric_limits<uint32_t>::max()})
                .Pack()
                .payload_bytes(),
            8u);
}

TEST(RecyclerTest, HalfDenseListsAreHeldAsBitmaps) {
  // 50 cached selections over a 400k-row BAT at 50% density: 200k
  // positions (800 KB) each as a raw vector, 50 KB each as a bitmap.
  Recycler r;
  const uint64_t gen = r.generation();
  const CandidateList half = Strided(400000, 0, 2);
  for (int i = 0; i < 50; ++i) {
    r.InsertCandidates(gen, "year", Dbls(i, kInf), half, 100);
  }
  RecyclerStats s = r.stats();
  EXPECT_EQ(s.candidate_entries, 50u);
  EXPECT_LE(s.bytes_held, 3ull << 20);
  bool subsumed = true;
  auto hit = r.LookupCandidates(gen, "year", Dbls(17, kInf), &subsumed);
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(subsumed);
  EXPECT_EQ(hit->ToPositions(), half.ToPositions());
}

TEST(RecyclerTest, AdmissionChargesThePackedSize) {
  // A budget that holds kLists packed lists (8 KB of bitmap each) but
  // not kLists raw ones (128 KB of positions each).
  constexpr int kLists = 10;
  const CandidateList half = Strided(65536, 0, 2);
  const uint64_t packed = 96 + half.Pack().payload_bytes();
  const uint64_t raw = half.size() * sizeof(uint32_t);
  const uint64_t budget = kLists * packed + 1024;
  ASSERT_LT(budget, kLists * raw);
  Recycler r(budget);
  const uint64_t gen = r.generation();
  for (int i = 0; i < kLists; ++i) {
    r.InsertCandidates(gen, "year", Dbls(i, kInf), half, 100);
  }
  RecyclerStats s = r.stats();
  EXPECT_EQ(s.candidate_entries, static_cast<uint64_t>(kLists));
  EXPECT_EQ(s.admissions_rejected, 0u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.bytes_held, kLists * packed);
}

TEST(RecyclerTest, ConcurrentDecodesSurviveInsertsAndFences) {
  // Column value of row p is p % 100. The cached lists answer `v >= lo`
  // (bitmaps), `v == lo` (position vectors) and the whole column (dense).
  // Readers check every hit against the column while one thread inserts
  // and another fences; run under TSan in ci.sh.
  constexpr size_t kRows = 6400;
  auto at_least = [](int lo) {
    std::vector<uint32_t> p;
    for (size_t i = 0; i < kRows; ++i) {
      if (static_cast<int>(i % 100) >= lo) {
        p.push_back(static_cast<uint32_t>(i));
      }
    }
    return Cands(std::move(p));
  };
  Recycler r;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> exact_hits{0};
  std::atomic<uint64_t> subsumed_hits{0};
  std::atomic<uint64_t> bad{0};
  std::thread inserter([&] {
    for (int round = 0; !stop.load(); ++round) {
      const int lo = (round % 10) * 10;
      const uint64_t gen = r.generation();
      r.InsertCandidates(gen, "v", Dbls(lo, kInf), at_least(lo), 10);
      r.InsertCandidates(gen, "v", Dbls(lo, lo), Strided(kRows, lo, 100), 10);
      r.InsertCandidates(gen, "v", Dbls(-kInf, kInf),
                         CandidateList::All(kRows), 10);
    }
  });
  std::thread fencer([&] {
    while (!stop.load()) {
      r.Fence();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  // Readers run until both kinds of hit have been seen often enough.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  auto enough = [&] {
    return (exact_hits.load() >= 300 && subsumed_hits.load() >= 300) ||
           std::chrono::steady_clock::now() > deadline;
  };
  auto reader = [&](unsigned seed) {
    std::mt19937 rng(seed);
    while (!enough()) {
      const int lo = static_cast<int>(rng() % 100);
      const bool point = rng() % 2 == 0;
      const SelectInterval interval = point ? Dbls(lo, lo) : Dbls(lo, kInf);
      bool subsumed = false;
      auto hit = r.LookupCandidates(r.generation(), "v", interval, &subsumed);
      if (!hit.has_value()) continue;
      (subsumed ? subsumed_hits : exact_hits).fetch_add(1);
      // Every hit is exactly one of the inserted lists: `v >= m` or
      // `v == m` for the smallest value m it holds, or the dense column;
      // an exact hit is the answer itself, a subsumed one a superset.
      if (hit->empty()) {
        bad.fetch_add(1);
        continue;
      }
      const int m = static_cast<int>(hit->PositionAt(0) % 100);
      const bool is_point = hit->size() == kRows / 100 &&
                            hit->PositionAt(hit->size() - 1) % 100 == size_t(m);
      CandidateList want = hit->is_dense()   ? CandidateList::All(kRows)
                           : is_point        ? Strided(kRows, m, 100)
                                             : at_least(m);
      if (hit->ToPositions() != want.ToPositions()) bad.fetch_add(1);
      const bool covers =
          hit->is_dense() || (is_point ? point && m == lo : m <= lo);
      const bool exact = !hit->is_dense() && m == lo && is_point == point;
      if (!covers || subsumed == exact) bad.fetch_add(1);
    }
  };
  std::vector<std::thread> readers;
  for (unsigned t = 0; t < 3; ++t) readers.emplace_back(reader, 11 + t);
  for (std::thread& t : readers) t.join();
  stop.store(true);
  inserter.join();
  fencer.join();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_GE(exact_hits.load(), 300u);
  EXPECT_GE(subsumed_hits.load(), 300u);
  RecyclerStats s = r.stats();
  EXPECT_GT(s.invalidations, 0u);
  EXPECT_LE(s.bytes_held, r.budget_bytes());
}

}  // namespace
}  // namespace mirror::monet
