// Experiment E8: cross-request result reuse under a zipfian multi-tenant
// mix. Eight concurrent sessions issue queries drawn zipfian from a
// 64-query pool (a hot head, a long cold tail) against one daemon over
// in-process channels, measured twice: recycler off (every request
// executes; coalescing still applies, as in production) and recycler on
// (a hot query executes once per data version, later arrivals replay the
// cached encoded reply straight from the poll loop). One reply per
// distinct query is kept from each phase and compared value-for-value.
//
// A reply is cached only on its key's second request, so the recycled
// phase may hold at most one entry per pool query asked twice or more;
// the per-client sequences are seeded, so that set is known in advance.
//
// Results merge into BENCH_retrieval.json under "result_reuse_e8";
// ci.sh gates on speedup >= 3, result_cache_hits > 0,
// bytes_held <= budget, replies_identical == 1 and
// result_entries <= repeated_queries.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.h"
#include "base/rng.h"
#include "base/str_util.h"
#include "base/table_printer.h"
#include "bench_json.h"
#include "daemon/query_server.h"
#include "daemon/wire.h"
#include "daemon/wire_client.h"
#include "mirror/mirror_db.h"
#include "monet/recycler.h"

namespace {

using namespace mirror;  // NOLINT(build/namespaces)
namespace wire = daemon::wire;

constexpr int kCatalogRows = 200000;
constexpr int kQueryPool = 64;
constexpr int kClients = 8;
constexpr int kRoundsPerClient = 150;

void BuildDb(db::MirrorDb* database) {
  auto check = [](const base::Status& s) {
    MIRROR_CHECK(s.ok()) << s.ToString();
  };
  check(database->Define(
      "define Cat as SET<TUPLE<Atomic<URL>: u, Atomic<int>: year, "
      "Atomic<int>: rating>>;"));
  base::Rng rng(8888);
  std::vector<moa::MoaValue> rows;
  rows.reserve(kCatalogRows);
  for (int i = 0; i < kCatalogRows; ++i) {
    rows.push_back(moa::MoaValue::Tuple(
        {moa::MoaValue::Str("u" + std::to_string(i)),
         moa::MoaValue::Int(rng.UniformInt(1970, 2025)),
         moa::MoaValue::Int(rng.UniformInt(0, 1000))}));
  }
  check(database->Load("Cat", std::move(rows)));
}

/// The fixed query pool: distinct selections + aggregation so each query
/// does real scan work (~200k rows) and yields a small scalar reply.
std::string PoolQuery(int idx) {
  int lo = 1971 + (idx * 53) % 50;
  int rating = 10 + (idx * 37) % 900;
  return base::StrFormat(
      "sum(map[THIS.rating * 2 + 1](select[THIS.year >= %d and "
      "THIS.rating >= %d](Cat)));",
      lo, rating);
}

/// Zipf(1) sampler over [0, kQueryPool): rank r drawn with weight 1/(r+1).
class ZipfPicker {
 public:
  explicit ZipfPicker(uint64_t seed) : rng_(seed) {
    double acc = 0;
    for (int r = 0; r < kQueryPool; ++r) {
      acc += 1.0 / (r + 1);
      cum_.push_back(acc);
    }
  }
  int Next() {
    double u = rng_.UniformDouble(0.0, cum_.back());
    return static_cast<int>(
        std::lower_bound(cum_.begin(), cum_.end(), u) - cum_.begin());
  }

 private:
  base::Rng rng_;
  std::vector<double> cum_;
};

/// The pool query each client asks in each round. Same seed per client
/// index across phases: both phases run the exact same request sequence.
std::vector<std::vector<int>> RequestSequences() {
  std::vector<std::vector<int>> sequences(kClients);
  for (int c = 0; c < kClients; ++c) {
    ZipfPicker pick(static_cast<uint64_t>(c + 1));
    for (int round = 0; round < kRoundsPerClient; ++round) {
      sequences[c].push_back(pick.Next());
    }
  }
  return sequences;
}

struct PhaseResult {
  double elapsed_s = 0;
  uint64_t completed = 0;
  /// One decoded scalar per distinct query index (first reply seen).
  std::map<int, double> replies;
  double qps() const { return completed / std::max(1e-9, elapsed_s); }
};

/// Runs the zipfian mix: kClients sessions, each asking its `sequences`
/// row against `server`, all through in-process channel pairs.
PhaseResult RunMix(daemon::QueryServer* server,
                   const std::vector<std::vector<int>>& sequences) {
  std::atomic<uint64_t> completed{0};
  std::mutex replies_mu;
  std::map<int, double> replies;
  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto [client_end, server_end] = wire::CreateChannelPair();
      server->Serve(std::move(server_end));
      wire::WireClient client(std::move(client_end));
      MIRROR_CHECK(client.Hello("tenant" + std::to_string(c)).ok());
      moa::QueryContext ctx;
      for (int idx : sequences[c]) {
        auto result = client.Query(PoolQuery(idx), ctx);
        MIRROR_CHECK(result.ok()) << result.status().ToString();
        MIRROR_CHECK(result.value().is_scalar);
        completed.fetch_add(1);
        std::lock_guard<std::mutex> lock(replies_mu);
        replies.emplace(idx, result.value().scalar.AsDouble());
      }
      client.Close().ok();
    });
  }
  for (std::thread& t : threads) t.join();
  PhaseResult r;
  r.elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.completed = completed.load();
  r.replies = std::move(replies);
  return r;
}

}  // namespace

int main() {
  db::MirrorDb database;
  BuildDb(&database);
  const std::vector<std::vector<int>> sequences = RequestSequences();
  std::map<int, int> asked;
  for (const std::vector<int>& row : sequences) {
    for (int idx : row) ++asked[idx];
  }
  const auto repeated = static_cast<uint64_t>(
      std::count_if(asked.begin(), asked.end(),
                    [](const auto& kv) { return kv.second >= 2; }));

  std::printf(
      "E8: cross-request result reuse (the recycler)\n"
      "%d tenants x %d zipfian queries over a %d-query pool, %d-row "
      "catalog.\n\n",
      kClients, kRoundsPerClient, kQueryPool, kCatalogRows);

  // -- Phase 1: recycler off (coalescing on, as in production). ------------
  daemon::QueryServer::Options off_opt;
  off_opt.query.exec.recycle = false;
  PhaseResult off;
  {
    daemon::QueryServer server(&database, off_opt);
    off = RunMix(&server, sequences);
    server.Shutdown();
  }
  MIRROR_CHECK(database.recycler()->stats().result_entries == 0)
      << "recycler-off phase must not populate the cache";

  // -- Phase 2: recycler on, cold cache. -----------------------------------
  PhaseResult on;
  wire::ServerWireStats stats;
  {
    daemon::QueryServer server(&database);
    on = RunMix(&server, sequences);
    stats = server.stats();
    server.Shutdown();
  }

  // Every distinct query's reply must agree value-for-value across the
  // phases (the cached path replays the identical encoded bytes).
  bool identical = off.replies.size() == on.replies.size();
  for (const auto& [idx, value] : off.replies) {
    auto it = on.replies.find(idx);
    if (it == on.replies.end() || it->second != value) {
      identical = false;
      std::printf("MISMATCH on query %d\n", idx);
    }
  }

  const uint64_t budget = database.recycler()->budget_bytes();
  const uint64_t result_entries = database.recycler()->stats().result_entries;
  double speedup = on.qps() / std::max(1e-9, off.qps());
  base::TablePrinter table({"phase", "queries", "elapsed (s)", "q/s"});
  table.AddRow({"recycler off", std::to_string(off.completed),
                base::StrFormat("%.2f", off.elapsed_s),
                base::StrFormat("%.0f", off.qps())});
  table.AddRow({"recycler on", std::to_string(on.completed),
                base::StrFormat("%.2f", on.elapsed_s),
                base::StrFormat("%.0f", on.qps())});
  table.Print();
  std::printf(
      "\nspeedup: %.2fx   result-cache hits: %llu / misses: %llu\n"
      "bytes held: %llu of %llu budget   evictions: %llu   "
      "admission rejects: %llu\nresult entries: %llu of %llu pool queries "
      "asked twice or more (%zu asked)\nreplies identical: %s\n\n",
      speedup, static_cast<unsigned long long>(stats.result_cache_hits),
      static_cast<unsigned long long>(stats.result_cache_misses),
      static_cast<unsigned long long>(stats.recycler_bytes_held),
      static_cast<unsigned long long>(budget),
      static_cast<unsigned long long>(stats.recycler_evictions),
      static_cast<unsigned long long>(stats.recycler_admissions_rejected),
      static_cast<unsigned long long>(result_entries),
      static_cast<unsigned long long>(repeated), asked.size(),
      identical ? "yes" : "NO");

  bench::MergeIntoBenchJson("result_reuse_e8", base::StrFormat(
      "{\n"
      "    \"clients\": %d,\n"
      "    \"rounds_per_client\": %d,\n"
      "    \"query_pool\": %d,\n"
      "    \"off_qps\": %.2f,\n"
      "    \"on_qps\": %.2f,\n"
      "    \"speedup\": %.4f,\n"
      "    \"result_cache_hits\": %llu,\n"
      "    \"result_cache_misses\": %llu,\n"
      "    \"bytes_held\": %llu,\n"
      "    \"budget_bytes\": %llu,\n"
      "    \"result_entries\": %llu,\n"
      "    \"distinct_queries\": %zu,\n"
      "    \"repeated_queries\": %llu,\n"
      "    \"replies_identical\": %d\n"
      "  }",
      kClients, kRoundsPerClient, kQueryPool, off.qps(), on.qps(), speedup,
      static_cast<unsigned long long>(stats.result_cache_hits),
      static_cast<unsigned long long>(stats.result_cache_misses),
      static_cast<unsigned long long>(stats.recycler_bytes_held),
      static_cast<unsigned long long>(budget),
      static_cast<unsigned long long>(result_entries), asked.size(),
      static_cast<unsigned long long>(repeated), identical ? 1 : 0));
  return 0;
}
