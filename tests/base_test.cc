#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "base/status.h"
#include "base/stopwatch.h"
#include "base/str_util.h"
#include "base/table_printer.h"
#include "../bench/bench_json.h"

namespace mirror::base {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, ConstructionFromOkStatusBecomesInternalError) {
  Result<int> r = Status::Ok();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

Status FailsThenPropagates() {
  MIRROR_RETURN_IF_ERROR(Status::IoError("disk on fire"));
  return Status::Ok();
}

TEST(StatusMacrosTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(FailsThenPropagates().code(), StatusCode::kIoError);
}

Result<int> Doubled(Result<int> in) {
  MIRROR_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(StatusMacrosTest, AssignOrReturnWorks) {
  EXPECT_EQ(Doubled(21).value(), 42);
  EXPECT_FALSE(Doubled(Status::NotFound("x")).ok());
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 10; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(RngTest, UniformDoubleInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.UniformDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(3, 6));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 6);
}

TEST(RngTest, GaussianHasReasonableMoments) {
  Rng rng(11);
  double sum = 0;
  double sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Gaussian();
    sum += x;
    sum_sq += x * x;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(RngTest, ZipfRankZeroMostFrequent) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) {
    counts[static_cast<size_t>(rng.Zipf(10, 1.2))] += 1;
  }
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[4], counts[9]);
}

// Zipf rank from a CDF built afresh for this draw, from the uniform
// `u` the draw consumed: the sampler with no cache at all.
uint64_t FreshZipf(uint64_t n, double s, double u) {
  std::vector<double> cdf(n);
  double sum = 0.0;
  for (uint64_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf[k] = sum;
  }
  for (uint64_t k = 0; k < n; ++k) cdf[k] /= sum;
  auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return it == cdf.end() ? n - 1 : static_cast<uint64_t>(it - cdf.begin());
}

TEST(RngTest, ZipfAlternatingDistributionsMatchFreshCdfs) {
  // Two alternating pairs, then a cycle through more pairs than the
  // cache keeps, so entries are evicted and built again.
  const std::vector<std::pair<uint64_t, double>> alternating = {
      {12, 0.9}, {3000, 1.0}};
  const std::vector<std::pair<uint64_t, double>> cycling = {
      {12, 0.9}, {3000, 1.0}, {7, 1.2}, {1, 1.0}, {40, 0.5}, {3000, 0.9}};
  for (const auto* pairs : {&alternating, &cycling}) {
    Rng rng(29);
    Rng ref(29);
    for (int i = 0; i < 600; ++i) {
      const auto [n, s] = (*pairs)[static_cast<size_t>(i) % pairs->size()];
      ASSERT_EQ(rng.Zipf(n, s), FreshZipf(n, s, ref.UniformDouble()))
          << "draw " << i << " of Zipf(" << n << ", " << s << ")";
    }
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(StrUtilTest, SplitAndJoin) {
  EXPECT_EQ(SplitNonEmpty("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Join({"x", "y"}, "-"), "x-y");
}

TEST(StrUtilTest, CaseAndAffixes) {
  EXPECT_EQ(ToLower("MiXeD42"), "mixed42");
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_EQ(StripWhitespace("  hi \n"), "hi");
}

TEST(StrUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

TEST(TablePrinterTest, RendersAlignedTable) {
  TablePrinter t({"name", "n"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "100"});
  std::string out = t.ToString();
  EXPECT_NE(out.find("| name  | n   |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1   |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 100 |"), std::string::npos);
}

TEST(StopwatchTest, MeasuresNonNegativeTime) {
  Stopwatch sw;
  EXPECT_GE(sw.ElapsedSeconds(), 0.0);
  EXPECT_GE(sw.ElapsedMillis(), 0.0);
}

// ---------------------------------------------------------------------------
// bench/bench_json.h: merging sections into BENCH_retrieval.json.

/// A strict recursive-descent JSON reader, independent of the merger:
/// true if `s[*i..]` holds one value, collecting an object's keys at
/// depth 0 into `keys` (duplicates kept).
bool ParseJson(const std::string& s, size_t* i, int depth,
               std::vector<std::string>* keys);

void SkipWs(const std::string& s, size_t* i) {
  while (*i < s.size() && std::isspace(static_cast<unsigned char>(s[*i]))) {
    ++*i;
  }
}

bool ParseJsonString(const std::string& s, size_t* i, std::string* out) {
  if (*i >= s.size() || s[*i] != '"') return false;
  for (++*i; *i < s.size(); ++*i) {
    if (s[*i] == '\\') {
      ++*i;
    } else if (s[*i] == '"') {
      ++*i;
      return true;
    }
    if (out != nullptr && *i < s.size()) out->push_back(s[*i]);
  }
  return false;
}

bool ParseJson(const std::string& s, size_t* i, int depth,
               std::vector<std::string>* keys) {
  SkipWs(s, i);
  if (*i >= s.size()) return false;
  const char c = s[*i];
  if (c == '"') return ParseJsonString(s, i, nullptr);
  if (c == '{' || c == '[') {
    const char close = c == '{' ? '}' : ']';
    ++*i;
    SkipWs(s, i);
    if (*i < s.size() && s[*i] == close) return ++*i, true;
    for (;;) {
      if (c == '{') {
        std::string key;
        SkipWs(s, i);
        if (!ParseJsonString(s, i, &key)) return false;
        if (depth == 0) keys->push_back(key);
        SkipWs(s, i);
        if (*i >= s.size() || s[*i] != ':') return false;
        ++*i;
      }
      if (!ParseJson(s, i, depth + 1, keys)) return false;
      SkipWs(s, i);
      if (*i >= s.size()) return false;
      if (s[*i] == close) return ++*i, true;
      if (s[*i] != ',') return false;
      ++*i;
    }
  }
  const size_t start = *i;
  while (*i < s.size() && (std::isalnum(static_cast<unsigned char>(s[*i])) ||
                           s[*i] == '.' || s[*i] == '-' || s[*i] == '+')) {
    ++*i;
  }
  return *i > start;
}

TEST(BenchJsonTest, NestedSectionMergedTwiceLeavesOneValidObject) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("mirror_bench_json_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::filesystem::path old_cwd = std::filesystem::current_path();
  std::filesystem::current_path(dir);
  {
    std::ofstream seed("BENCH_retrieval.json");
    seed << "{\n  \"first\": {\"a\": 1, \"note\": \"}{,\"},\n"
            "  \"flat\": 2\n}\n";
  }
  const std::string nested =
      "{\"x\": {\"y\": [1, {\"z\": \"}\"}], \"w\": 2}, \"v\": \"\\\"}\"}";
  bench::MergeIntoBenchJson("nested", nested);
  bench::MergeIntoBenchJson("tail", "{\"t\": 1}");
  bench::MergeIntoBenchJson("nested", nested);  // replaces, mid-file
  bench::MergeIntoBenchJson("first", "{\"a\": 3}");
  std::ostringstream text;
  text << std::ifstream("BENCH_retrieval.json").rdbuf();
  std::filesystem::current_path(old_cwd);
  std::filesystem::remove_all(dir);

  const std::string body = text.str();
  size_t i = 0;
  std::vector<std::string> keys;
  ASSERT_TRUE(ParseJson(body, &i, 0, &keys)) << body;
  SkipWs(body, &i);
  EXPECT_EQ(i, body.size()) << body;
  EXPECT_EQ(keys,
            (std::vector<std::string>{"flat", "tail", "nested", "first"}))
      << body;
  EXPECT_NE(body.find(nested), std::string::npos) << body;
  EXPECT_NE(body.find("\"first\": {\"a\": 3}"), std::string::npos) << body;
}

TEST(BenchJsonTest, MalformedFileIsReplaced) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("mirror_bench_json_bad_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::filesystem::path old_cwd = std::filesystem::current_path();
  std::filesystem::current_path(dir);
  { std::ofstream("BENCH_retrieval.json") << "{\"torn\": {\"a\": "; }
  bench::MergeIntoBenchJson("fresh", "{\"b\": 1}");
  std::ostringstream text;
  text << std::ifstream("BENCH_retrieval.json").rdbuf();
  std::filesystem::current_path(old_cwd);
  std::filesystem::remove_all(dir);
  EXPECT_EQ(text.str(), "{\n  \"fresh\": {\"b\": 1}\n}\n");
}

}  // namespace
}  // namespace mirror::base
