// Experiment E2 (paper §2): "the translation from the logical data model
// into a different physical model provides an excellent basis for
// algebraic query optimization". Compares the optimized translation
// (logical rewrites, then the optimizing flattener: inverted getBL,
// threaded conjuncts, range pairing, shared instructions emitted once)
// against the naive algebraic translation: kernel operations executed,
// tuples touched, wall time.

#include <cstdio>

#include "base/rng.h"
#include "base/stopwatch.h"
#include "base/str_util.h"
#include "base/table_printer.h"
#include "mirror/mirror_db.h"
#include "monet/profiler.h"

namespace {

using namespace mirror;  // NOLINT(build/namespaces)
using mirror::db::MirrorDb;
using mirror::db::QueryOptions;

void BuildLibrary(MirrorDb* db, int64_t n, uint64_t seed) {
  auto status = db->Define(
      "define Lib as SET<TUPLE<Atomic<URL>: source, Atomic<int>: year, "
      "CONTREP<Text>: annotation>>;");
  MIRROR_CHECK(status.ok()) << status.ToString();
  base::Rng rng(seed);
  std::vector<moa::MoaValue> objects;
  for (int64_t i = 0; i < n; ++i) {
    std::vector<std::string> terms;
    for (int t = 0; t < 30; ++t) {
      terms.push_back(base::StrFormat(
          "w%llu", static_cast<unsigned long long>(rng.Zipf(1500, 1.1))));
    }
    objects.push_back(moa::MoaValue::Tuple(
        {moa::MoaValue::Str(base::StrFormat(
             "u%lld", static_cast<long long>(i))),
         moa::MoaValue::Int(1990 + static_cast<int64_t>(rng.Uniform(10))),
         moa::MoaValue::ContRep(terms)}));
  }
  status = db->Load("Lib", std::move(objects));
  MIRROR_CHECK(status.ok()) << status.ToString();
}

struct Measurement {
  double ms;
  uint64_t ops;
  uint64_t tuples;
};

Measurement Measure(const MirrorDb& db, const moa::QueryContext& ctx,
                    const std::string& query, bool optimize) {
  QueryOptions options;
  options.optimize = optimize;
  Measurement m{1e100, 0, 0};
  for (int r = 0; r < 3; ++r) {
    monet::ResetKernelStats();
    base::Stopwatch sw;
    auto result = db.Query(query, ctx, options);
    MIRROR_CHECK(result.ok()) << result.status().ToString();
    m.ms = std::min(m.ms, sw.ElapsedMillis());
    m.ops = monet::SnapshotKernelStats().TotalOps();
    m.tuples = monet::SnapshotKernelStats().tuples_in;
  }
  return m;
}

}  // namespace

int main() {
  std::printf(
      "E2: algebraic optimization (rewrites + optimizing flattener)\n"
      "vs the naive algebraic translation, N = 20000 documents.\n\n");
  MirrorDb db;
  BuildLibrary(&db, 20000, /*seed=*/99);
  moa::QueryContext ctx;
  ctx.BindTerms("query", {"w5", "w80", "w400"});

  struct NamedQuery {
    const char* label;
    std::string text;
  };
  const NamedQuery queries[] = {
      {"ranking (getBL+sum)",
       "map[sum(THIS)](map[getBL(THIS.annotation, query, stats)](Lib));"},
      {"selective ranking",
       "map[sum(THIS)](map[getBL(THIS.annotation, query, stats)]("
       "select[THIS.year >= 1998](Lib)));"},
      {"conjunctive select + map",
       "map[THIS * 2](map[THIS.year + 1]("
       "select[THIS.year >= 1992 and THIS.year < 1994](Lib)));"},
  };

  base::TablePrinter table({"query", "mode", "kernel ops", "tuples in",
                            "time ms"});
  for (const NamedQuery& q : queries) {
    Measurement opt = Measure(db, ctx, q.text, true);
    Measurement naive = Measure(db, ctx, q.text, false);
    table.AddRow({q.label, "optimized",
                  base::StrFormat("%llu", (unsigned long long)opt.ops),
                  base::StrFormat("%llu", (unsigned long long)opt.tuples),
                  base::StrFormat("%.2f", opt.ms)});
    table.AddRow({q.label, "naive",
                  base::StrFormat("%llu", (unsigned long long)naive.ops),
                  base::StrFormat("%llu", (unsigned long long)naive.tuples),
                  base::StrFormat("%.2f", naive.ms)});
  }
  table.Print();
  std::printf(
      "\nExpected shape: the optimized translation touches a fraction of\n"
      "the tuples (inverted getBL restricts postings before the belief\n"
      "computation; threaded conjuncts filter progressively).\n");
  return 0;
}
