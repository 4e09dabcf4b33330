// The recycler's contracts in isolation: predicate normalization must
// refuse anything whose double-space interval is unsound (kSelectNeq,
// strings, int64 literals past 2^53, non-finite doubles), subsumption
// must respect inclusivity at shared endpoints, generation fencing must
// make both stale lookups and stale inserts impossible, a result must be
// admitted only on its key's second request, and the
// cost x frequency admission policy must hold bytes under the budget
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

SelectPredicate Pred(const std::string& bat, double lo, double hi,
                     bool lo_incl = true, bool hi_incl = true) {
  SelectPredicate p;
  p.bat = bat;
  p.lo = lo;
  p.hi = hi;
  p.lo_incl = lo_incl;
  p.hi_incl = hi_incl;
  return p;
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

// -- Predicate normalization. ------------------------------------------------

TEST(SelectPredicateTest, NormalizesEveryIntervalShape) {
  SelectPredicate p;
  ASSERT_TRUE(SelectPredicate::FromInstr(SelectEq(Value::MakeInt(7)), "age", &p));
  EXPECT_EQ(p.bat, "age");
  EXPECT_EQ(p.lo, 7.0);
  EXPECT_EQ(p.hi, 7.0);
  EXPECT_TRUE(p.lo_incl);
  EXPECT_TRUE(p.hi_incl);

  ASSERT_TRUE(SelectPredicate::FromInstr(SelectCmp(CmpOp::kLt, Value::MakeDbl(2.5)),
                                         "score", &p));
  EXPECT_EQ(p.lo, -kInf);
  EXPECT_EQ(p.hi, 2.5);
  EXPECT_FALSE(p.hi_incl);

  ASSERT_TRUE(SelectPredicate::FromInstr(SelectCmp(CmpOp::kLe, Value::MakeInt(9)),
                                         "score", &p));
  EXPECT_EQ(p.hi, 9.0);
  EXPECT_TRUE(p.hi_incl);

  ASSERT_TRUE(SelectPredicate::FromInstr(SelectCmp(CmpOp::kGt, Value::MakeInt(30)),
                                         "age", &p));
  EXPECT_EQ(p.lo, 30.0);
  EXPECT_FALSE(p.lo_incl);
  EXPECT_EQ(p.hi, kInf);

  ASSERT_TRUE(SelectPredicate::FromInstr(SelectCmp(CmpOp::kGe, Value::MakeInt(30)),
                                         "age", &p));
  EXPECT_TRUE(p.lo_incl);

  ASSERT_TRUE(SelectPredicate::FromInstr(
      SelectRange(Value::MakeInt(10), Value::MakeInt(20), true, false), "age", &p));
  EXPECT_EQ(p.lo, 10.0);
  EXPECT_EQ(p.hi, 20.0);
  EXPECT_TRUE(p.lo_incl);
  EXPECT_FALSE(p.hi_incl);
}

TEST(SelectPredicateTest, RefusesUnsoundShapes) {
  SelectPredicate p;
  // Not-equal is not an interval.
  EXPECT_FALSE(SelectPredicate::FromInstr(
      SelectCmp(CmpOp::kNeq, Value::MakeInt(5)), "age", &p));
  // Strings are compared in string space, not double space.
  EXPECT_FALSE(
      SelectPredicate::FromInstr(SelectEq(Value::MakeStr("bob")), "name", &p));
  // An int64 past 2^53 does not round-trip through double: two distinct
  // literals could collapse onto one interval key.
  const int64_t big = (int64_t{1} << 53) + 1;
  EXPECT_FALSE(SelectPredicate::FromInstr(SelectEq(Value::MakeInt(big)), "id", &p));
  // The exact power of two itself is fine.
  EXPECT_TRUE(SelectPredicate::FromInstr(
      SelectEq(Value::MakeInt(int64_t{1} << 53)), "id", &p));
  // As a dbl it is not: over an int column it also selects 2^53 + 1,
  // which rounds onto it, while the int literal selects exactly.
  EXPECT_FALSE(SelectPredicate::FromInstr(
      SelectEq(Value::MakeDbl(0x1p53)), "id", &p));
  // Non-finite double bounds are refused.
  EXPECT_FALSE(SelectPredicate::FromInstr(
      SelectEq(Value::MakeDbl(std::numeric_limits<double>::quiet_NaN())), "x",
      &p));
  EXPECT_FALSE(
      SelectPredicate::FromInstr(SelectEq(Value::MakeDbl(kInf)), "x", &p));
}

TEST(SelectPredicateTest, SubsumptionRespectsInclusivity) {
  // Strict containment.
  EXPECT_TRUE(Pred("a", 40, kInf).SubsumedBy(Pred("a", 30, kInf)));
  EXPECT_FALSE(Pred("a", 30, kInf).SubsumedBy(Pred("a", 40, kInf)));
  // Same interval subsumes itself.
  EXPECT_TRUE(Pred("a", 10, 20).SubsumedBy(Pred("a", 10, 20)));
  // Equal endpoint: inclusive narrow end needs an inclusive wide end.
  EXPECT_FALSE(
      Pred("a", 10, 20, true, true).SubsumedBy(Pred("a", 10, 20, false, true)));
  EXPECT_TRUE(
      Pred("a", 10, 20, false, true).SubsumedBy(Pred("a", 10, 20, true, true)));
  EXPECT_FALSE(
      Pred("a", 10, 20, true, true).SubsumedBy(Pred("a", 10, 20, true, false)));
  EXPECT_TRUE(
      Pred("a", 10, 20, true, false).SubsumedBy(Pred("a", 10, 20, true, true)));
  // Different base BATs never subsume.
  EXPECT_FALSE(Pred("a", 40, 50).SubsumedBy(Pred("b", 0, 100)));
}

TEST(SelectPredicateTest, IntervalKeySeparatesInclusivity) {
  EXPECT_NE(Pred("a", 10, 20, true, true).IntervalKey(),
            Pred("a", 10, 20, false, true).IntervalKey());
  EXPECT_NE(Pred("a", 10, 20, true, true).IntervalKey(),
            Pred("a", 10, 20, true, false).IntervalKey());
  EXPECT_EQ(Pred("a", 10, 20).IntervalKey(), Pred("b", 10, 20).IntervalKey())
      << "bat name is bucketed separately, not part of the interval key";
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
  r.InsertCandidates(gen, Pred("age", 30, kInf, false, true), Cands({1, 5, 9}),
                     100);
  bool subsumed = true;
  auto hit =
      r.LookupCandidates(gen, Pred("age", 30, kInf, false, true), &subsumed);
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
  r.InsertCandidates(gen, Pred("age", 0, kInf), Cands({1, 2, 3, 4, 5, 6, 7, 8}),
                     100);
  r.InsertCandidates(gen, Pred("age", 30, 60), Cands({4, 5, 6}), 100);
  bool subsumed = false;
  // [40, 50] is contained in both; the smaller list wins.
  auto hit = r.LookupCandidates(gen, Pred("age", 40, 50), &subsumed);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(subsumed);
  EXPECT_EQ(hit->ToPositions(), (std::vector<size_t>{4, 5, 6}));
  EXPECT_EQ(r.stats().candidate_subsumption_hits, 1u);
  // A predicate contained in neither misses.
  subsumed = true;
  EXPECT_FALSE(
      r.LookupCandidates(gen, Pred("other", 40, 50), &subsumed).has_value());
  EXPECT_FALSE(subsumed);
}

TEST(RecyclerTest, SubsumptionHonorsInclusivityAtTheEdge) {
  Recycler r;
  const uint64_t gen = r.generation();
  // Cached: age > 30 (exclusive lower bound).
  r.InsertCandidates(gen, Pred("age", 30, kInf, false, true), Cands({1, 2}),
                     100);
  bool subsumed = false;
  // age >= 30 includes 30 itself, which the cached list may lack.
  EXPECT_FALSE(
      r.LookupCandidates(gen, Pred("age", 30, kInf, true, true), &subsumed)
          .has_value());
  // age > 40 is strictly inside.
  EXPECT_TRUE(
      r.LookupCandidates(gen, Pred("age", 40, kInf, false, true), &subsumed)
          .has_value());
  EXPECT_TRUE(subsumed);
}

TEST(RecyclerTest, FenceDropsCandidatesToo) {
  Recycler r;
  const uint64_t gen = r.generation();
  r.InsertCandidates(gen, Pred("age", 0, 10), Cands({1}), 100);
  r.Fence();
  bool subsumed = false;
  EXPECT_FALSE(r.LookupCandidates(r.generation(), Pred("age", 0, 10), &subsumed)
                   .has_value());
  EXPECT_EQ(r.stats().candidate_entries, 0u);
  r.InsertCandidates(gen, Pred("age", 0, 10), Cands({1}), 100);
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
    r.InsertCandidates(gen, Pred("year", i, kInf), half, 100);
  }
  RecyclerStats s = r.stats();
  EXPECT_EQ(s.candidate_entries, 50u);
  EXPECT_LE(s.bytes_held, 3ull << 20);
  bool subsumed = true;
  auto hit = r.LookupCandidates(gen, Pred("year", 17, kInf), &subsumed);
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
    r.InsertCandidates(gen, Pred("year", i, kInf), half, 100);
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
      r.InsertCandidates(gen, Pred("v", lo, kInf), at_least(lo), 10);
      r.InsertCandidates(gen, Pred("v", lo, lo), Strided(kRows, lo, 100), 10);
      r.InsertCandidates(gen, Pred("v", -kInf, kInf),
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
      const SelectPredicate pred =
          point ? Pred("v", lo, lo) : Pred("v", lo, kInf);
      bool subsumed = false;
      auto hit = r.LookupCandidates(r.generation(), pred, &subsumed);
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
