#include "workloads.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "base/logging.h"
#include "base/rng.h"
#include "base/str_util.h"
#include "harness.h"

namespace mirror::bench {

namespace wire = daemon::wire;

namespace {

void Check(const base::Status& s) { MIRROR_CHECK(s.ok()) << s.ToString(); }

/// Defines and loads `Cat` (u, year, rating) with `rows` generated rows;
/// `shards` > 1 loads it with that oid-range sharding.
void LoadCat(db::MirrorDb* db, uint64_t seed, int64_t rows, int64_t year_lo,
             int64_t year_hi, size_t shards) {
  Check(db->Define(
      "define Cat as SET<TUPLE<Atomic<URL>: u, Atomic<int>: year, "
      "Atomic<int>: rating>>;"));
  base::Rng rng(StreamSeed(seed, "Cat", 0));
  std::vector<moa::MoaValue> objects;
  objects.reserve(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) {
    objects.push_back(moa::MoaValue::Tuple(
        {moa::MoaValue::Str("c" + std::to_string(i)),
         moa::MoaValue::Int(rng.UniformInt(year_lo, year_hi)),
         moa::MoaValue::Int(rng.UniformInt(0, 1000))}));
  }
  if (shards > 1) {
    Check(db->LoadSharded("Cat", std::move(objects), shards));
  } else {
    Check(db->Load("Cat", std::move(objects)));
  }
}

/// A single-column set of `rows` ints in [0, 1000).
void LoadIntSet(db::MirrorDb* db, uint64_t seed, const std::string& set,
                int64_t rows) {
  Check(db->Define("define " + set + " as SET<TUPLE<Atomic<int>: v>>;"));
  base::Rng rng(StreamSeed(seed, set, 0));
  std::vector<moa::MoaValue> objects;
  objects.reserve(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) {
    objects.push_back(
        moa::MoaValue::Tuple({moa::MoaValue::Int(rng.UniformInt(0, 999))}));
  }
  Check(db->Load(set, std::move(objects)));
}

/// The Probe set every workload carries: the target of the append probe
/// and the append replay, read by no query.
void LoadProbe(db::MirrorDb* db, uint64_t seed) {
  LoadIntSet(db, seed, "Probe", kAppendValues);
}

// ---------------------------------------------------------------------------
// rank_mix: the paper's retrieval query, fresh bindings on every request.

constexpr const char* kVocabulary[] = {
    "sun",   "sea",   "sky",   "rock",  "tree",  "bird",  "sand",  "wave",
    "moss",  "dune",  "reef",  "palm",  "surf",  "cliff", "cloud", "storm",
    "river", "lake",  "hill",  "snow",  "ice",   "fire",  "leaf",  "rain",
    "wind",  "star",  "moon",  "city",  "road",  "ship",  "gate",  "tower"};
constexpr size_t kVocabularySize = std::size(kVocabulary);

class RankMix : public Workload {
 public:
  static constexpr int64_t kDocs = 32000;

  const char* name() const override { return "rank_mix"; }

  LoadShape shape() const override {
    LoadShape s;
    s.open_loop = true;
    s.read_rate = 80;
    s.read_conns = 4;
    return s;
  }

  void Load(db::MirrorDb* db, uint64_t seed) const override {
    Check(db->Define(
        "define Lib as SET<TUPLE<Atomic<URL>: u, Atomic<int>: year, "
        "Atomic<int>: rating, CONTREP<Text>: doc>>;"));
    base::Rng rng(StreamSeed(seed, "Lib", 0));
    std::vector<moa::MoaValue> objects;
    objects.reserve(kDocs);
    for (int64_t i = 0; i < kDocs; ++i) {
      std::vector<std::string> terms;
      const int64_t len = rng.UniformInt(5, 24);
      for (int64_t t = 0; t < len; ++t) {
        // Skewed term frequencies, as in real text collections.
        terms.push_back(kVocabulary[rng.Zipf(kVocabularySize, 1.0)]);
      }
      objects.push_back(moa::MoaValue::Tuple(
          {moa::MoaValue::Str("d" + std::to_string(i)),
           moa::MoaValue::Int(rng.UniformInt(1970, 2025)),
           moa::MoaValue::Int(rng.UniformInt(0, 100)),
           moa::MoaValue::ContRep(std::move(terms))}));
    }
    Check(db->Load("Lib", std::move(objects)));
    LoadProbe(db, seed);
  }

  Request MakeRequest(uint64_t seed, uint64_t i) const override {
    base::Rng rng(StreamSeed(seed, "rank_mix/read", i));
    // 2-5 distinct unweighted terms: pand/por flatten only unit weights.
    std::vector<std::string> terms;
    const uint64_t nterms = 2 + rng.Uniform(4);
    while (terms.size() < nterms) {
      std::string t = kVocabulary[rng.Uniform(kVocabularySize)];
      if (std::find(terms.begin(), terms.end(), t) == terms.end()) {
        terms.push_back(std::move(t));
      }
    }
    const int64_t lo = rng.UniformInt(1970, 2015);
    const int64_t hi = lo + rng.UniformInt(5, 30);
    const int64_t floor = rng.UniformInt(0, 60);
    const char* aggs[] = {"por", "pand", "sum"};
    const char* agg = aggs[rng.Uniform(3)];
    const bool full = rng.Uniform(8) == 0;
    const std::string ranking = base::StrFormat(
        "map[%s(THIS)](map[getBL(THIS.doc, query, stats)](select[THIS.year "
        ">= %lld and THIS.year <= %lld and THIS.rating >= %lld](Lib)))",
        agg, static_cast<long long>(lo), static_cast<long long>(hi),
        static_cast<long long>(floor));
    Request r;
    r.bindings.BindTerms("query", terms);
    if (full) {
      r.text = ranking + ";";
    } else {
      r.top_k = 10;
      r.untruncated = ranking + ";";
      r.text = "topN(" + ranking + ", 10);";
    }
    return r;
  }
};

// ---------------------------------------------------------------------------
// scan_analytic: one analyst running large filtered scans.

class ScanAnalytic : public Workload {
 public:
  static constexpr int64_t kRows = 1000000;
  static constexpr size_t kShards = 4;

  const char* name() const override { return "scan_analytic"; }

  LoadShape shape() const override {
    LoadShape s;
    s.open_loop = false;
    s.read_conns = 1;
    return s;
  }

  void Load(db::MirrorDb* db, uint64_t seed) const override {
    LoadCat(db, seed, kRows, 1900, 2025, kShards);
    LoadProbe(db, seed);
  }

  Request MakeRequest(uint64_t seed, uint64_t i) const override {
    base::Rng rng(StreamSeed(seed, "scan_analytic/read", i));
    const int64_t ylo = rng.UniformInt(1900, 2000);
    const int64_t yhi = ylo + rng.UniformInt(10, 60);
    const int64_t rlo = rng.UniformInt(0, 700);
    const int64_t rhi = rlo + rng.UniformInt(100, 300);
    const std::string years = base::StrFormat(
        "THIS.year >= %lld and THIS.year <= %lld", static_cast<long long>(ylo),
        static_cast<long long>(yhi));
    const std::string ratings = base::StrFormat(
        "THIS.rating >= %lld and THIS.rating <= %lld",
        static_cast<long long>(rlo), static_cast<long long>(rhi));
    const std::string both =
        "select[" + years + " and " + ratings + "](Cat)";
    Request r;
    switch (rng.Uniform(5)) {
      case 0:
        r.text = "count(" + both + ");";
        break;
      case 1:
        r.text = "sum(map[THIS.rating](" + both + "));";
        break;
      case 2:
        r.text = "avg(map[THIS.rating](" + both + "));";
        break;
      case 3:
        r.text = "max(map[THIS.rating](" + both + "));";
        break;
      default:
        r.text = "count(semijoin(select[" + years + "](Cat), select[" +
                 ratings + "](Cat)));";
        break;
    }
    return r;
  }
};

// ---------------------------------------------------------------------------
// hot_zipf: a zipfian mix over a small query pool, served by the recycler.

class HotZipf : public Workload {
 public:
  static constexpr int64_t kRows = 400000;
  static constexpr int kPool = 64;

  HotZipf() {
    double acc = 0;
    for (int r = 0; r < kPool; ++r) {
      acc += 1.0 / (r + 1);
      cdf_.push_back(acc);
    }
  }

  const char* name() const override { return "hot_zipf"; }

  LoadShape shape() const override {
    LoadShape s;
    s.open_loop = false;
    s.read_conns = 4;
    return s;
  }

  void Load(db::MirrorDb* db, uint64_t seed) const override {
    LoadCat(db, seed, kRows, 1970, 2025, 1);
    LoadProbe(db, seed);
  }

  Request MakeRequest(uint64_t seed, uint64_t i) const override {
    base::Rng rng(StreamSeed(seed, "hot_zipf/read", i));
    const double u = rng.UniformDouble(0.0, cdf_.back());
    const int idx = static_cast<int>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    Request r;
    r.text = PoolQuery(seed, std::min(idx, kPool - 1));
    r.check = CheckKind::kInline;
    return r;
  }

  std::string Prepare(const db::MirrorDb& db, uint64_t seed) override {
    for (int idx = 0; idx < kPool; ++idx) {
      const std::string text = PoolQuery(seed, idx);
      auto out = db.Query(text, moa::QueryContext(), ReferenceOptions());
      if (!out.ok()) return text + ": " + out.status().ToString();
      expected_[text] = ToReply(out.value());
    }
    // The first two requests' answers also against the naive oracle.
    db::QueryOptions naive;
    naive.flattened = false;
    for (uint64_t i = 0; i < 2; ++i) {
      const std::string text = MakeRequest(seed, i).text;
      auto out = db.Query(text, moa::QueryContext(), naive);
      if (!out.ok()) return text + ": " + out.status().ToString();
      std::string diff = DiffWithin(expected_[text], ToReply(out.value()), 1e-9);
      if (!diff.empty()) return text + " vs naive oracle: " + diff;
    }
    return {};
  }

  std::string CheckInline(int conn, const Request& request,
                          const wire::ResultReply& reply) override {
    (void)conn;
    auto it = expected_.find(request.text);
    if (it == expected_.end()) return "no expected answer for " + request.text;
    return DiffExact(reply, it->second);
  }

 private:
  /// Pool query `idx`: a selection plus an aggregate over the whole
  /// catalog, so each execution scans real data and replies with a scalar.
  static std::string PoolQuery(uint64_t seed, int idx) {
    const uint64_t shift = StreamSeed(seed, "hot_zipf/pool", 0);
    const int lo = 1971 + static_cast<int>((idx * 53 + shift % 50) % 50);
    const int rating = 10 + static_cast<int>((idx * 37 + shift % 900) % 900);
    return base::StrFormat(
        "sum(map[THIS.rating * 2 + 1](select[THIS.year >= %d and "
        "THIS.rating >= %d](Cat)));",
        lo, rating);
  }

  std::vector<double> cdf_;
  std::unordered_map<std::string, wire::ResultReply> expected_;
};

// ---------------------------------------------------------------------------
// read_write: reads beside a stream of durable appends.

class ReadWrite : public Workload {
 public:
  static constexpr int64_t kRows = 1000000;
  static constexpr int64_t kFeedRows = 100000;
  static constexpr int kReadConns = 3;

  const char* name() const override { return "read_write"; }

  LoadShape shape() const override {
    LoadShape s;
    s.open_loop = true;
    s.read_rate = 80;
    s.read_conns = kReadConns;
    s.write_rate = 40;
    return s;
  }

  void Load(db::MirrorDb* db, uint64_t seed) const override {
    LoadCat(db, seed, kRows, 1900, 2025, 1);
    LoadIntSet(db, seed, "Feed", kFeedRows);
    LoadProbe(db, seed);
  }

  std::string WriteTarget() const override { return "Feed.v"; }

  Request MakeRequest(uint64_t seed, uint64_t i) const override {
    base::Rng rng(StreamSeed(seed, "read_write/read", i));
    Request r;
    if (rng.Uniform(2) == 0) {
      r.text = base::StrFormat(
          "sum(map[THIS.rating * 2 + 1](select[THIS.year >= %lld and "
          "THIS.rating >= %lld](Cat)));",
          static_cast<long long>(rng.UniformInt(1900, 2020)),
          static_cast<long long>(rng.UniformInt(0, 990)));
    } else {
      // Eight thresholds, so a connection sees each one many times and a
      // count that goes down (a stale read) is detectable.
      r.text = base::StrFormat("count(select[THIS.v >= %d](Feed));",
                               static_cast<int>(rng.Uniform(8)) * 100);
      r.check = CheckKind::kInline;
    }
    return r;
  }

  std::string CheckInline(int conn, const Request& request,
                          const wire::ResultReply& reply) override {
    if (!reply.is_scalar) return request.text + ": not a scalar";
    double& last = last_count_[static_cast<size_t>(conn)][request.text];
    const double now = reply.scalar.AsDouble();
    if (now < last) {
      return base::StrFormat("%s went from %.0f down to %.0f",
                             request.text.c_str(), last, now);
    }
    last = now;
    return {};
  }

  std::string FinalCheck(wire::WireClient* client,
                         uint64_t acked_appends) override {
    auto reply =
        client->Query("count(select[THIS.v >= 0](Feed));", moa::QueryContext());
    if (!reply.ok()) return reply.status().ToString();
    const double want =
        static_cast<double>(kFeedRows + kAppendValues * acked_appends);
    if (!reply.value().is_scalar || reply.value().scalar.AsDouble() != want) {
      return base::StrFormat("count(Feed) is %s, want %.0f",
                             reply.value().scalar.ToString().c_str(), want);
    }
    return {};
  }

 private:
  /// Last Feed count each read connection saw, per query text.
  std::map<std::string, double> last_count_[kReadConns];
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "rank_mix") return std::make_unique<RankMix>();
  if (name == "scan_analytic") return std::make_unique<ScanAnalytic>();
  if (name == "hot_zipf") return std::make_unique<HotZipf>();
  if (name == "read_write") return std::make_unique<ReadWrite>();
  return nullptr;
}

monet::Column AppendValues(uint64_t seed, const std::string& stream,
                           uint64_t i) {
  base::Rng rng(StreamSeed(seed, stream, i));
  std::vector<int64_t> v(kAppendValues);
  for (int64_t& x : v) x = rng.UniformInt(0, 999);
  return monet::Column::MakeInts(std::move(v));
}

db::QueryOptions ReferenceOptions() {
  db::QueryOptions o;
  o.exec.num_threads = 1;
  o.exec.num_shards = 1;
  o.exec.recycle = false;
  return o;
}

}  // namespace mirror::bench
