// Checks of the benchmark's own measuring code (run.sh --selftest): the
// percentile rule, the seeded schedule, open-loop timing, the metric
// names against BENCHMARK.json, and the answer checker.

#include <cmath>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "harness.h"

namespace mirror::bench {
namespace {

namespace wire = daemon::wire;

TEST(PercentileRule, HighestPercentileKeepsTenSamplesBeyondIt) {
  EXPECT_EQ(SupportedQuantile(1000, 0.99), 0.99);
  EXPECT_EQ(SupportedQuantile(10000, 0.999), 0.999);
  EXPECT_EQ(SupportedQuantile(100, 0.9), 0.9);
  EXPECT_EQ(SupportedQuantile(20, 0.5), 0.5);
  // No p99 below 1,000 samples: the highest quantile with ten beyond it.
  EXPECT_LT(SupportedQuantile(999, 0.99), 0.99);
  EXPECT_DOUBLE_EQ(SupportedQuantile(500, 0.99), 0.98);
  EXPECT_DOUBLE_EQ(SupportedQuantile(99, 0.9), 1.0 - 10.0 / 99);
  // Never below the median.
  EXPECT_EQ(SupportedQuantile(12, 0.9), 0.5);
  EXPECT_EQ(SupportedQuantile(0, 0.99), 0.5);
  EXPECT_EQ(Percentile({5, 1, 4, 2, 3}, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Percentile({0, 10}, 0.25), 2.5);
}

TEST(PercentileRule, LogHistogramQuantilesStayWithinHalfAPercent) {
  LogHistogram h;
  std::vector<double> values;
  for (int i = 1; i <= 5000; ++i) {
    const double v = 1e-4 * std::pow(1.001, i);  // 0.1 ms .. ~15 ms
    h.Add(v);
    values.push_back(v);
  }
  ASSERT_EQ(h.count(), 5000u);
  for (double q : {0.5, 0.9, 0.99}) {
    const double exact = Percentile(values, q);
    EXPECT_NEAR(h.Quantile(q), exact, exact * 0.005) << "q=" << q;
  }
}

TEST(Schedule, SeededPoissonScheduleIsIdenticalAcrossCalls) {
  const std::vector<double> a = PoissonSchedule(7, "w/read-arrivals", 50, 100);
  const std::vector<double> b = PoissonSchedule(7, "w/read-arrivals", 50, 100);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, PoissonSchedule(8, "w/read-arrivals", 50, 100));
  EXPECT_NE(a, PoissonSchedule(7, "v/read-arrivals", 50, 100));
  // Request i depends on (seed, stream, i) only: a longer horizon extends
  // the schedule without moving its prefix.
  const std::vector<double> longer = PoissonSchedule(7, "w/read-arrivals", 50, 120);
  ASSERT_GT(longer.size(), a.size());
  EXPECT_TRUE(std::equal(a.begin(), a.end(), longer.begin()));
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_NEAR(static_cast<double>(a.size()), 5000, 300);
}

constexpr double kService = 0.03;  // seconds per request

TEST(OpenLoopTiming, LatencyStartsAtTheDueTimeWhenEveryConnectionIsBusy) {
  std::mutex mu;
  std::vector<Completion> done;
  const Clock::time_point origin = Clock::now() + std::chrono::milliseconds(5);
  {
    OpenLoop load(
        {0.0, 0.005, 0.010}, 100, origin, /*conns=*/1,
        [](int, uint64_t) {
          std::this_thread::sleep_for(std::chrono::duration<double>(kService));
          return true;
        },
        [&](const Completion& c) {
          std::lock_guard<std::mutex> lock(mu);
          done.push_back(c);
        });
    load.Join();
  }
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0].index, 100u);
  EXPECT_TRUE(done[0].idle_at_due);
  for (size_t k = 1; k < 3; ++k) {
    const Completion& c = done[k];
    EXPECT_EQ(c.index, 100u + k);
    // It waited for the only connection: not idle, sent after its due
    // time, and that wait is part of its latency.
    EXPECT_FALSE(c.idle_at_due);
    EXPECT_GT(c.sent, c.due + 0.01);
    EXPECT_DOUBLE_EQ(c.latency, c.done - c.due);
    EXPECT_GE(c.latency, (k + 1) * kService - c.due - 1e-3);
  }
}

/// The section of BENCHMARK.json under `key`: from the key to the
/// closing bracket of its array.
std::string Section(const std::string& json, const std::string& key) {
  const size_t at = json.find("\"" + key + "\"");
  if (at == std::string::npos) return {};
  const size_t open = json.find('[', at);
  const size_t close = json.find(']', open);
  return json.substr(open, close - open);
}

size_t CountOf(const std::string& haystack, const std::string& needle) {
  size_t n = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

TEST(MetricNames, EveryEmittedNameIsValidAndListedInBenchmarkJson) {
  std::ifstream in(MIRROR_BENCHMARK_JSON);
  ASSERT_TRUE(in) << "cannot read " << MIRROR_BENCHMARK_JSON;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  const std::string e2e = Section(json, "end_to_end");
  const std::string layer = Section(json, "per_layer");
  ASSERT_FALSE(e2e.empty());
  ASSERT_FALSE(layer.empty());
  size_t e2e_count = 0;
  size_t layer_count = 0;
  for (const MetricDef& d : MetricTable()) {
    EXPECT_TRUE(ValidMetricName(d.name)) << d.name;
    const bool end_to_end = d.kind == MetricKind::kEndToEnd;
    const std::string& section = end_to_end ? e2e : layer;
    const std::string entry = "\"name\": \"" + d.name + "\", \"unit\": \"" +
                              d.unit + "\"";
    EXPECT_NE(section.find(entry), std::string::npos)
        << d.name << " (" << d.unit << ") missing from BENCHMARK.json";
    ++(end_to_end ? e2e_count : layer_count);
  }
  // And BENCHMARK.json lists nothing the benchmark does not emit.
  EXPECT_EQ(CountOf(e2e, "\"name\""), e2e_count);
  EXPECT_EQ(CountOf(layer, "\"name\""), layer_count);
  EXPECT_FALSE(ValidMetricName("query p50"));
  EXPECT_FALSE(ValidMetricName(""));
}

wire::ResultReply Table(std::vector<double> scores) {
  wire::ResultReply r;
  r.bat = std::make_shared<monet::Bat>(monet::Bat::DenseDbls(std::move(scores)));
  return r;
}

TEST(AnswerCheck, RejectsAReplyWithOneFlippedValue) {
  const wire::ResultReply want = Table({0.5, 0.25, 0.125, 0.0625});
  EXPECT_EQ(DiffExact(Table({0.5, 0.25, 0.125, 0.0625}), want), "");
  // One flipped bit in one value.
  double flipped = 0.125;
  uint64_t bits = 0;
  std::memcpy(&bits, &flipped, sizeof(bits));
  bits ^= 1;
  std::memcpy(&flipped, &bits, sizeof(bits));
  EXPECT_NE(DiffExact(Table({0.5, 0.25, flipped, 0.0625}), want), "");
  // The oracle comparison tolerates that last-bit difference, but not a
  // real one.
  EXPECT_EQ(DiffWithin(Table({0.5, 0.25, flipped, 0.0625}), want, 1e-9), "");
  EXPECT_NE(DiffWithin(Table({0.5, 0.25, 0.126, 0.0625}), want, 1e-9), "");

  wire::ResultReply scalar;
  scalar.is_scalar = true;
  scalar.scalar = monet::Value::MakeDbl(42.0);
  wire::ResultReply other = scalar;
  EXPECT_EQ(DiffExact(other, scalar), "");
  other.scalar = monet::Value::MakeDbl(std::nextafter(42.0, 43.0));
  EXPECT_NE(DiffExact(other, scalar), "");
}

TEST(AnswerCheck, TopKAgainstTheFullRankingComparesRankByRank) {
  // Oracle full ranking over oids 0..4; the top 2 are oids 3 and 1.
  const wire::ResultReply full = Table({0.1, 0.8, 0.3, 0.9, 0.2});
  wire::ResultReply top;
  top.bat = std::make_shared<monet::Bat>(
      monet::Column::MakeOids({3, 1}), monet::Column::MakeDbls({0.9, 0.8}));
  EXPECT_EQ(DiffWithin(top, full, 1e-9, 2), "");
  wire::ResultReply wrong_row;  // oid 2 is not in the top 2
  wrong_row.bat = std::make_shared<monet::Bat>(
      monet::Column::MakeOids({3, 2}), monet::Column::MakeDbls({0.9, 0.3}));
  EXPECT_NE(DiffWithin(wrong_row, full, 1e-9, 2), "");
}

}  // namespace
}  // namespace mirror::bench
