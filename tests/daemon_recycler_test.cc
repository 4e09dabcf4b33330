// The recycler observed through the daemon: a hot query is answered
// from the result cache bit-identically to direct execution, a reply is
// cached only on its key's second request (each request counted once),
// so ad-hoc ranking queries leave neither results nor plans behind, the
// exec.recycle knob gates it per session (both SET spellings; every knob
// the SET_OK echo lists takes both and rejects atomically), every
// catalog mutation path — APPEND, DELETE, Load, Recover — bumps the
// load generation and drops cached state, and no session ever reads a
// stale reply, including coalesced followers racing a concurrent
// writer. Runs under TSan in CI (see ci.sh).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "base/str_util.h"
#include "daemon/query_server.h"
#include "daemon/wire.h"
#include "daemon/wire_client.h"
#include "mirror/mirror_db.h"
#include "monet/column.h"
#include "monet/recycler.h"

namespace mirror::daemon {
namespace {

namespace wire = mirror::daemon::wire;

/// A small atomic catalog: enough rows that selections are non-trivial,
/// small enough that TSan-instrumented runs stay fast.
void BuildDb(db::MirrorDb* database, uint64_t seed, int rows) {
  base::Rng rng(seed);
  ASSERT_TRUE(database
                  ->Define("define Cat as SET<TUPLE<Atomic<URL>: u, "
                           "Atomic<int>: year, Atomic<int>: rating>>;")
                  .ok());
  std::vector<moa::MoaValue> tuples;
  tuples.reserve(static_cast<size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    tuples.push_back(moa::MoaValue::Tuple(
        {moa::MoaValue::Str("u" + std::to_string(i)),
         moa::MoaValue::Int(rng.UniformInt(1970, 2025)),
         moa::MoaValue::Int(rng.UniformInt(0, 1000))}));
  }
  ASSERT_TRUE(database->Load("Cat", std::move(tuples)).ok());
}

constexpr const char* kLibWords[] = {"sun",  "sea",  "sky",  "rock",
                                     "tree", "bird", "sand", "wave",
                                     "moss", "dune", "reef", "palm",
                                     "surf", "cliff", "cloud"};

/// A small annotated library for ranking queries.
void BuildLib(db::MirrorDb* database, uint64_t seed, int docs) {
  base::Rng rng(seed);
  ASSERT_TRUE(database
                  ->Define("define Lib as SET<TUPLE<Atomic<URL>: u, "
                           "Atomic<int>: year, CONTREP<Text>: doc>>;")
                  .ok());
  std::vector<moa::MoaValue> rows;
  rows.reserve(static_cast<size_t>(docs));
  for (int i = 0; i < docs; ++i) {
    std::vector<std::string> terms;
    const int len = 3 + static_cast<int>(rng.Uniform(8));
    for (int t = 0; t < len; ++t) {
      terms.push_back(kLibWords[rng.Uniform(std::size(kLibWords))]);
    }
    rows.push_back(moa::MoaValue::Tuple(
        {moa::MoaValue::Str("d" + std::to_string(i)),
         moa::MoaValue::Int(rng.UniformInt(1970, 2025)),
         moa::MoaValue::ContRep(std::move(terms))}));
  }
  ASSERT_TRUE(database->Load("Lib", std::move(rows)).ok());
}

/// A SET_OK echo or STATS session entry's knobs, by key.
std::map<std::string, int64_t> Knobs(const wire::KnobValues& knobs) {
  return {knobs.begin(), knobs.end()};
}

/// Scalar replies compared exactly; BAT replies row by row.
void ExpectRepliesIdentical(const wire::ResultReply& a,
                            const wire::ResultReply& b) {
  ASSERT_EQ(a.is_scalar, b.is_scalar);
  if (a.is_scalar) {
    ASSERT_TRUE(a.scalar == b.scalar);
    return;
  }
  ASSERT_TRUE(a.bat != nullptr);
  ASSERT_TRUE(b.bat != nullptr);
  ASSERT_EQ(a.bat->size(), b.bat->size());
  for (size_t i = 0; i < a.bat->size(); ++i) {
    auto [ah, at] = a.bat->Row(i);
    auto [bh, bt] = b.bat->Row(i);
    ASSERT_TRUE(ah == bh) << "head mismatch at row " << i;
    ASSERT_TRUE(at == bt) << "tail mismatch at row " << i;
  }
}

TEST(DaemonRecyclerTest, HotQueryIsServedFromCacheBitIdentically) {
  db::MirrorDb database;
  BuildDb(&database, /*seed=*/7, /*rows=*/4000);
  QueryServer server(&database);
  auto [ca, sa] = wire::CreateChannelPair();
  auto [cb, sb] = wire::CreateChannelPair();
  server.Serve(std::move(sa));
  server.Serve(std::move(sb));
  wire::WireClient alice(std::move(ca));
  wire::WireClient bob(std::move(cb));
  ASSERT_TRUE(alice.Hello("alice").ok());
  ASSERT_TRUE(bob.Hello("bob").ok());

  const std::string query = "select[THIS.rating >= 500](Cat);";
  moa::QueryContext ctx;
  auto first = alice.Query(query, ctx);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(database.recycler()->stats().result_entries, 0u)
      << "a first request is not cached";
  // The second arrival — a different session — executes again, and its
  // reply is admitted; the third and fourth replay the cached encoded
  // bytes, across sessions.
  auto second = bob.Query(query, ctx);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(database.recycler()->stats().result_entries, 1u);
  auto third = alice.Query(query, ctx);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  auto fourth = bob.Query(query, ctx);
  ASSERT_TRUE(fourth.ok()) << fourth.status().ToString();
  ExpectRepliesIdentical(first.value(), second.value());
  ExpectRepliesIdentical(first.value(), third.value());
  ExpectRepliesIdentical(first.value(), fourth.value());

  auto stats = alice.Stats();
  ASSERT_TRUE(stats.ok());
  const wire::ServerWireStats& s = stats.value().server;
  EXPECT_EQ(s.result_cache_hits, 2u);
  EXPECT_EQ(s.result_cache_misses, 2u);
  EXPECT_GT(s.recycler_bytes_held, 0u);
  EXPECT_LE(s.recycler_bytes_held, database.recycler()->budget_bytes());
  ASSERT_TRUE(alice.Close().ok());
  ASSERT_TRUE(bob.Close().ok());
  server.Shutdown();
}

TEST(DaemonRecyclerTest, EachRequestIsCountedOnce) {
  // A missed QUERY is looked up by the poll loop and re-checked by the
  // worker; only the first look counts. Counted twice, a key asked once
  // would already read as a repeat and its reply would be admitted.
  db::MirrorDb database;
  BuildDb(&database, /*seed=*/11, /*rows=*/1000);
  QueryServer server(&database);
  auto [client_end, server_end] = wire::CreateChannelPair();
  server.Serve(std::move(server_end));
  wire::WireClient client(std::move(client_end));
  ASSERT_TRUE(client.Hello("counted").ok());
  const std::string query = "count(select[THIS.rating >= 250](Cat));";
  moa::QueryContext ctx;
  constexpr uint64_t kRequests = 5;
  for (uint64_t n = 1; n <= kRequests; ++n) {
    ASSERT_TRUE(client.Query(query, ctx).ok());
    const monet::RecyclerStats rs = database.recycler()->stats();
    // Requests 1 and 2 miss, and the second one's reply is admitted;
    // every later request hits.
    EXPECT_EQ(rs.result_entries, n >= 2 ? 1u : 0u) << "request " << n;
    EXPECT_EQ(rs.result_misses, std::min<uint64_t>(n, 2)) << "request " << n;
    EXPECT_EQ(rs.result_hits + rs.result_misses, n) << "request " << n;
  }
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().server.result_cache_misses, 2u);
  EXPECT_EQ(stats.value().server.result_cache_hits, kRequests - 2);
  ASSERT_TRUE(client.Close().ok());
  server.Shutdown();
}

TEST(DaemonRecyclerTest, AdHocRankingQueriesCacheNoResultsOrPlans) {
  // Fresh bindings on every request, as an ad-hoc ranking client sends
  // them: no key repeats, so neither the result section nor any
  // session's plan cache takes an entry. Candidate selections still
  // admit on first sighting (they serve narrower predicates too).
  db::MirrorDb database;
  BuildDb(&database, /*seed=*/12, /*rows=*/500);
  BuildLib(&database, /*seed=*/12, /*docs=*/400);
  QueryServer server(&database);
  constexpr int kSessions = 3;
  std::vector<std::unique_ptr<wire::WireClient>> clients;
  for (int c = 0; c < kSessions; ++c) {
    auto [client_end, server_end] = wire::CreateChannelPair();
    server.Serve(std::move(server_end));
    clients.push_back(
        std::make_unique<wire::WireClient>(std::move(client_end)));
    ASSERT_TRUE(clients.back()->Hello("adhoc" + std::to_string(c)).ok());
  }
  constexpr int kQueries = 300;
  constexpr size_t kWordCount = std::size(kLibWords);
  int sent = 0;
  for (size_t a = 0; a < kWordCount && sent < kQueries; ++a) {
    for (size_t b = a + 1; b < kWordCount && sent < kQueries; ++b) {
      for (int lo = 1970; lo < 2000 && sent < kQueries; lo += 10) {
        moa::QueryContext ctx;
        ctx.BindTerms("q", {kLibWords[a], kLibWords[b]});
        const std::string query = base::StrFormat(
            "topN(map[sum(THIS)](map[getBL(THIS.doc, q, stats)]"
            "(select[THIS.year >= %d](Lib))), 10);",
            lo);
        auto result = clients[sent % kSessions]->Query(query, ctx);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ++sent;
      }
    }
  }
  ASSERT_EQ(sent, kQueries);
  const monet::RecyclerStats rs = database.recycler()->stats();
  EXPECT_EQ(rs.result_entries, 0u);
  EXPECT_EQ(rs.result_misses, static_cast<uint64_t>(kQueries));
  EXPECT_GT(rs.candidate_entries, 0u);
  auto stats = clients[0]->Stats();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats.value().sessions.size(), static_cast<size_t>(kSessions));
  for (const auto& entry : stats.value().sessions) {
    EXPECT_EQ(entry.plan_cache_size, 0u) << "session " << entry.session_id;
  }
  for (auto& client : clients) ASSERT_TRUE(client->Close().ok());
  server.Shutdown();
}

TEST(DaemonRecyclerTest, RecycleKnobAcceptsBothSpellingsAndGatesTheCache) {
  db::MirrorDb database;
  BuildDb(&database, /*seed=*/8, /*rows=*/1000);
  QueryServer server(&database);
  auto [client_end, server_end] = wire::CreateChannelPair();
  server.Serve(std::move(server_end));
  wire::WireClient client(std::move(client_end));
  ASSERT_TRUE(client.Hello("knobs").ok());

  // The SET reply echoes the knob; a bad key still fails atomically.
  auto off = client.Set({{"exec.recycle", 0}});
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(Knobs(off.value().options).at("recycle"), 0);
  auto bad = client.Set({{"recycle", 1}, {"no_such_knob", 1}});
  ASSERT_FALSE(bad.ok());
  auto echo = client.Stats();
  ASSERT_TRUE(echo.ok());
  ASSERT_EQ(echo.value().sessions.size(), 1u);
  EXPECT_EQ(Knobs(echo.value().sessions[0].options).at("recycle"), 0)
      << "failed SET must not have flipped the knob back on";

  // With recycle off, a repeated query never creates or serves entries.
  moa::QueryContext ctx;
  ASSERT_TRUE(client.Query("count(select[THIS.rating >= 0](Cat));", ctx).ok());
  ASSERT_TRUE(client.Query("count(select[THIS.rating >= 0](Cat));", ctx).ok());
  monet::RecyclerStats rs = database.recycler()->stats();
  EXPECT_EQ(rs.result_entries, 0u);
  EXPECT_EQ(rs.result_hits, 0u);

  // Back on: the same query now populates and replays. The off-knob
  // requests were never counted, so the entry lands on the second
  // request with the knob on and the third hits.
  auto on = client.Set({{"recycle", 1}});
  ASSERT_TRUE(on.ok());
  EXPECT_EQ(Knobs(on.value().options).at("recycle"), 1);
  ASSERT_TRUE(client.Query("count(select[THIS.rating >= 0](Cat));", ctx).ok());
  EXPECT_EQ(database.recycler()->stats().result_entries, 0u);
  ASSERT_TRUE(client.Query("count(select[THIS.rating >= 0](Cat));", ctx).ok());
  ASSERT_TRUE(client.Query("count(select[THIS.rating >= 0](Cat));", ctx).ok());
  rs = database.recycler()->stats();
  EXPECT_EQ(rs.result_entries, 1u);
  EXPECT_EQ(rs.result_hits, 1u);
  ASSERT_TRUE(client.Close().ok());
  server.Shutdown();
}

TEST(DaemonRecyclerTest, EveryEchoedKnobTakesBothSpellingsAndRejectsAtomically) {
  db::MirrorDb database;
  BuildDb(&database, /*seed=*/10, /*rows=*/200);
  QueryServer server(&database);
  auto [client_end, server_end] = wire::CreateChannelPair();
  server.Serve(std::move(server_end));
  wire::WireClient client(std::move(client_end));
  ASSERT_TRUE(client.Hello("knob-table").ok());

  // The key names come from the server's own echo, so every knob in its
  // table is covered, including knobs added later.
  auto initial = client.Set({});
  ASSERT_TRUE(initial.ok()) << initial.status().ToString();
  const wire::KnobValues defaults = initial.value().options;
  ASSERT_FALSE(defaults.empty());
  auto session_entry = [&client]() -> wire::KnobValues {
    auto stats = client.Stats();
    if (!stats.ok() || stats.value().sessions.size() != 1) {
      ADD_FAILURE() << "STATS did not return exactly this session";
      return {};
    }
    return stats.value().sessions[0].options;
  };
  EXPECT_EQ(session_entry(), defaults);

  for (const auto& [key, value] : defaults) {
    auto bare = client.Set({{key, 1}});
    ASSERT_TRUE(bare.ok()) << key << ": " << bare.status().ToString();
    EXPECT_EQ(Knobs(bare.value().options).at(key), 1) << key;
    EXPECT_EQ(bare.value().options, session_entry()) << key;
    auto prefixed = client.Set({{"exec." + key, value}});
    ASSERT_TRUE(prefixed.ok())
        << "exec." << key << ": " << prefixed.status().ToString();
    EXPECT_EQ(prefixed.value().options, defaults) << "exec." << key;
    EXPECT_EQ(prefixed.value().options, session_entry()) << "exec." << key;
  }

  // An out-of-range value fails the whole SET, valid keys beside it
  // included.
  const std::pair<std::string, int64_t> out_of_range[] = {
      {"num_shards", -1},        {"num_shards", (1 << 20) + 1},
      {"num_threads", -1},       {"num_threads", 1025},
      {"query_deadline_ms", -1}, {"query_deadline_ms", 86'400'001},
      {"memory_budget_bytes", -1}};
  for (const auto& [key, value] : out_of_range) {
    auto bad = client.Set({{"zone_maps", 0}, {key, value}});
    ASSERT_FALSE(bad.ok()) << key << "=" << value;
    EXPECT_EQ(bad.status().code(), base::StatusCode::kInvalidArgument);
    EXPECT_EQ(session_entry(), defaults)
        << key << "=" << value << " partially applied";
  }

  // A removed knob is an unknown key, and nothing in its SET applies.
  auto removed = client.Set({{"num_threads", 3}, {"morsel_joins", 1}});
  ASSERT_FALSE(removed.ok());
  EXPECT_EQ(removed.status().code(), base::StatusCode::kInvalidArgument);
  EXPECT_NE(removed.status().message().find("unknown SET key"),
            std::string::npos)
      << removed.status().ToString();
  EXPECT_EQ(session_entry(), defaults);
  ASSERT_TRUE(client.Close().ok());
  server.Shutdown();
}

TEST(DaemonRecyclerTest, EveryMutationPathInvalidatesAndBumpsGeneration) {
  db::MirrorDb database;
  BuildDb(&database, /*seed=*/9, /*rows=*/2000);
  QueryServer server(&database);  // mutable: writes allowed
  auto [client_end, server_end] = wire::CreateChannelPair();
  server.Serve(std::move(server_end));
  wire::WireClient client(std::move(client_end));
  ASSERT_TRUE(client.Hello("writer").ok());
  moa::QueryContext ctx;

  const std::string query = "count(select[THIS.rating >= 0](Cat));";
  auto before = client.Query(query, ctx);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(client.Query(query, ctx).ok());  // now cached
  ASSERT_TRUE(client.Query(query, ctx).ok());  // and hit
  ASSERT_GE(database.recycler()->stats().result_hits, 1u);

  // APPEND: generation bumps, the cached count is NOT replayed.
  const uint64_t gen_before = database.load_generation();
  ASSERT_TRUE(
      client.Append("Cat.rating", monet::Column::MakeInts({1, 2, 3})).ok());
  EXPECT_EQ(database.load_generation(), gen_before + 1);
  auto after_append = client.Query(query, ctx);
  ASSERT_TRUE(after_append.ok());
  EXPECT_EQ(after_append.value().scalar.AsDouble(),
            before.value().scalar.AsDouble() + 3)
      << "a stale cached reply would still show the pre-append count";

  // DELETE: same contract.
  ASSERT_TRUE(client.Query(query, ctx).ok());  // re-cache the new count
  ASSERT_TRUE(client.Delete("Cat.rating", {0, 1}).ok());
  EXPECT_EQ(database.load_generation(), gen_before + 2);
  auto after_delete = client.Query(query, ctx);
  ASSERT_TRUE(after_delete.ok());
  EXPECT_EQ(after_delete.value().scalar.AsDouble(),
            before.value().scalar.AsDouble() + 1);

  // Load: a full replacement also fences the recycler.
  std::vector<moa::MoaValue> rows;
  for (int i = 0; i < 50; ++i) {
    rows.push_back(moa::MoaValue::Tuple({moa::MoaValue::Str("x"),
                                         moa::MoaValue::Int(2000),
                                         moa::MoaValue::Int(i)}));
  }
  ASSERT_TRUE(database.Load("Cat", std::move(rows)).ok());
  EXPECT_EQ(database.load_generation(), gen_before + 3);
  auto after_load = client.Query(query, ctx);
  ASSERT_TRUE(after_load.ok());
  EXPECT_EQ(after_load.value().scalar.AsDouble(), 50.0);
  EXPECT_GE(database.recycler()->stats().invalidations, 6u)
      << "each mutation fences twice (before and after its apply window)";
  ASSERT_TRUE(client.Close().ok());
  server.Shutdown();
}

TEST(DaemonRecyclerTest, RecoverFencesTheRecyclerAndBumpsGeneration) {
  std::string dir =
      (std::filesystem::temp_directory_path() /
       ("mirror_recycler_recover_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    db::MirrorDb database;
    BuildDb(&database, /*seed=*/10, /*rows=*/300);
    ASSERT_TRUE(database.Checkpoint(dir).ok());
  }
  db::MirrorDb database;
  // Seed the recycler before recovery (a key asked twice is admitted);
  // Recover must fence it out.
  const uint64_t stale_gen = database.recycler()->generation();
  database.recycler()->LookupResult(stale_gen, "q");
  database.recycler()->LookupResult(stale_gen, "q");
  database.recycler()->InsertResult(
      stale_gen, "q",
      std::make_shared<const std::vector<uint8_t>>(16, uint8_t{1}), 10);
  ASSERT_EQ(database.recycler()->stats().result_entries, 1u);
  const uint64_t lg_before = database.load_generation();
  ASSERT_TRUE(database
                  .Recover(dir, dir + "/wal.log", db::RecoveryMode::kFull,
                           /*background_drain=*/false)
                  .ok());
  EXPECT_GT(database.load_generation(), lg_before);
  EXPECT_EQ(database.recycler()->LookupResult(stale_gen, "q"), nullptr);
  EXPECT_EQ(database.recycler()->stats().result_entries, 0u);
}

TEST(DaemonRecyclerTest, CoalescedFollowersRacingAWriterNeverGoStale) {
  db::MirrorDb database;
  BuildDb(&database, /*seed=*/12, /*rows=*/1000);
  QueryServer server(&database);
  constexpr int kReaders = 3;
  constexpr int kAppends = 20;
  constexpr int kQueriesPerReader = 40;

  // The writer appends 1 row at a time; count(Cat) is append-monotone,
  // so any reply showing fewer rows than a previously observed reply —
  // on any connection — is a stale cache read.
  std::atomic<int64_t> watermark{1000};
  std::atomic<bool> failed{false};

  auto reader = [&](int idx) {
    auto [client_end, server_end] = wire::CreateChannelPair();
    server.Serve(std::move(server_end));
    wire::WireClient client(std::move(client_end));
    if (!client.Hello("reader" + std::to_string(idx)).ok()) {
      failed.store(true);
      return;
    }
    moa::QueryContext ctx;
    for (int i = 0; i < kQueriesPerReader; ++i) {
      int64_t floor = watermark.load();  // BEFORE issuing the query
      auto reply = client.Query("count(select[THIS.rating >= 0](Cat));", ctx);
      if (!reply.ok()) {
        failed.store(true);
        return;
      }
      int64_t got = static_cast<int64_t>(reply.value().scalar.AsDouble());
      if (got < floor || got > 1000 + kAppends) {
        ADD_FAILURE() << "stale reply: count " << got << " below watermark "
                      << floor;
        failed.store(true);
        return;
      }
      // Anything this reader saw is a floor for everyone afterwards.
      int64_t seen = watermark.load();
      while (got > seen && !watermark.compare_exchange_weak(seen, got)) {
      }
    }
    client.Close();
  };

  auto writer = [&] {
    auto [client_end, server_end] = wire::CreateChannelPair();
    server.Serve(std::move(server_end));
    wire::WireClient client(std::move(client_end));
    if (!client.Hello("writer").ok()) {
      failed.store(true);
      return;
    }
    for (int i = 0; i < kAppends; ++i) {
      if (!client.Append("Cat.rating", monet::Column::MakeInts({i})).ok()) {
        failed.store(true);
        return;
      }
    }
    client.Close();
  };

  std::vector<std::thread> threads;
  threads.emplace_back(writer);
  for (int i = 0; i < kReaders; ++i) threads.emplace_back(reader, i);
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  server.Shutdown();
}

}  // namespace
}  // namespace mirror::daemon
