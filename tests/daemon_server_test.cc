// Tests of the query-serving daemon: the framed wire protocol, the
// session manager, and the concurrent multi-client request loop
// (daemon/wire.h, daemon/query_server.h). The core property throughout:
// a result that crossed the wire is bit-identical to direct MirrorDb
// execution.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "daemon/query_server.h"
#include "daemon/wire.h"
#include "daemon/wire_client.h"
#include "mirror/mirror_db.h"
#include "monet/bat_io.h"
#include "monet/profiler.h"
#include "monet/worker_pool.h"

namespace mirror::daemon {
namespace {

namespace wire = mirror::daemon::wire;

constexpr int kCatalogRows = 40000;
constexpr int kLibDocs = 1500;

constexpr const char* kWords[] = {"sun",  "sea",   "sky",  "rock", "tree",
                                  "bird", "sand",  "wave", "moss", "dune",
                                  "reef", "palm",  "surf", "cliff", "cloud"};

/// Loads the shared workload: a 40k-row atomic catalog (selection/agg
/// queries) and a small annotated library (ranking queries).
void BuildDb(db::MirrorDb* database, uint64_t seed, int catalog_rows) {
  base::Rng rng(seed);
  ASSERT_TRUE(database
                  ->Define("define Cat as SET<TUPLE<Atomic<URL>: u, "
                           "Atomic<int>: year, Atomic<int>: rating, "
                           "Atomic<int>: ref>>;")
                  .ok());
  std::vector<moa::MoaValue> rows;
  rows.reserve(static_cast<size_t>(catalog_rows));
  for (int i = 0; i < catalog_rows; ++i) {
    rows.push_back(moa::MoaValue::Tuple(
        {moa::MoaValue::Str("u" + std::to_string(i)),
         moa::MoaValue::Int(rng.UniformInt(1970, 2025)),
         moa::MoaValue::Int(rng.UniformInt(0, 1000)),
         moa::MoaValue::Int(rng.UniformInt(0, catalog_rows - 1))}));
  }
  ASSERT_TRUE(database->Load("Cat", std::move(rows)).ok());

  ASSERT_TRUE(database
                  ->Define("define Lib as SET<TUPLE<Atomic<URL>: u, "
                           "Atomic<int>: year, CONTREP<Text>: doc>>;")
                  .ok());
  std::vector<moa::MoaValue> docs;
  docs.reserve(static_cast<size_t>(kLibDocs));
  for (int i = 0; i < kLibDocs; ++i) {
    std::vector<std::string> terms;
    int len = 3 + static_cast<int>(rng.Uniform(10));
    for (int t = 0; t < len; ++t) {
      terms.push_back(kWords[rng.Uniform(std::size(kWords))]);
    }
    docs.push_back(moa::MoaValue::Tuple(
        {moa::MoaValue::Str("d" + std::to_string(i)),
         moa::MoaValue::Int(rng.UniformInt(1970, 2025)),
         moa::MoaValue::ContRep(terms)}));
  }
  ASSERT_TRUE(database->Load("Lib", std::move(docs)).ok());
}

/// The shared read-only database. Tests that Load() into a database use
/// their own instance.
db::MirrorDb* SharedDb() {
  static db::MirrorDb* database = [] {
    auto* d = new db::MirrorDb();
    BuildDb(d, /*seed=*/42, kCatalogRows);
    return d;
  }();
  return database;
}

/// Bitwise double equality (not epsilon: the daemon must not perturb
/// results, down to NaN payloads and signed zeros).
bool SameBits(double a, double b) {
  uint64_t ua = 0;
  uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof(double));
  std::memcpy(&ub, &b, sizeof(double));
  return ua == ub;
}

/// Bit-exact comparison of a wire result against direct execution.
void ExpectResultIdentical(const wire::ResultReply& wire_result,
                           const moa::EvalOutput& direct) {
  ASSERT_EQ(wire_result.is_scalar, direct.is_scalar);
  if (direct.is_scalar) {
    ASSERT_EQ(wire_result.scalar.type(), direct.scalar.type());
    if (direct.scalar.type() == monet::ValueType::kDbl) {
      EXPECT_TRUE(SameBits(wire_result.scalar.d(), direct.scalar.d()));
    } else {
      EXPECT_TRUE(wire_result.scalar == direct.scalar);
    }
    return;
  }
  ASSERT_TRUE(wire_result.bat != nullptr);
  ASSERT_TRUE(direct.bat != nullptr);
  ASSERT_EQ(wire_result.bat->size(), direct.bat->size());
  ASSERT_EQ(wire_result.bat->head().type(), direct.bat->head().type());
  ASSERT_EQ(wire_result.bat->tail().type(), direct.bat->tail().type());
  for (size_t i = 0; i < direct.bat->size(); ++i) {
    auto [wh, wt] = wire_result.bat->Row(i);
    auto [dh, dt] = direct.bat->Row(i);
    ASSERT_TRUE(wh == dh) << "head mismatch at row " << i;
    if (dt.type() == monet::ValueType::kDbl) {
      ASSERT_TRUE(SameBits(wt.d(), dt.d()))
          << "tail bits differ at row " << i;
    } else {
      ASSERT_TRUE(wt == dt) << "tail mismatch at row " << i;
    }
  }
}

/// Waits until `pred` holds or ~2 s elapse.
template <typename Pred>
bool EventuallyTrue(Pred pred) {
  for (int i = 0; i < 2000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

/// A SET_OK echo or STATS session entry's knobs, by key.
std::map<std::string, int64_t> Knobs(const wire::KnobValues& knobs) {
  return {knobs.begin(), knobs.end()};
}

// ---------------------------------------------------------------------------
// Wire codec units.

TEST(WireCodecTest, BatRoundTripIsRepresentationExact) {
  std::vector<std::string> strs = {"cat", "dog", "cat", "", "zebra"};
  monet::Bat bat(monet::Column::MakeVoid(100, 5),
                 monet::Column::MakeStrs(strs));
  std::vector<uint8_t> buf;
  monet::EncodeBat(bat, &buf);
  size_t pos = 0;
  auto decoded = monet::DecodeBat(buf, &pos);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(pos, buf.size());
  ASSERT_EQ(decoded.value().size(), bat.size());
  EXPECT_TRUE(decoded.value().head().is_void());
  EXPECT_EQ(decoded.value().head().void_base(), 100u);
  for (size_t i = 0; i < bat.size(); ++i) {
    EXPECT_EQ(decoded.value().tail().StrAt(i), strs[i]);
    // Interning survives the wire: equal strings keep equal offsets.
    EXPECT_EQ(decoded.value().tail().StrOffsetAt(i),
              bat.tail().StrOffsetAt(i));
  }
}

TEST(WireCodecTest, TruncatedBatFailsCleanly) {
  monet::Bat bat = monet::Bat::DenseDbls({1.5, -2.25, 1e300}, 7);
  std::vector<uint8_t> buf;
  monet::EncodeBat(bat, &buf);
  for (size_t cut = 0; cut < buf.size(); cut += 3) {
    std::vector<uint8_t> trunc(buf.begin(),
                               buf.begin() + static_cast<ptrdiff_t>(cut));
    size_t pos = 0;
    auto decoded = monet::DecodeBat(trunc, &pos);
    EXPECT_FALSE(decoded.ok()) << "cut at " << cut;
  }
}

TEST(WireCodecTest, KnobListsRoundTripAndRejectEveryTruncation) {
  // SET, SET_OK and the STATS session entries carry one (key, i64) list.
  wire::SetReply set;
  set.options = {{"num_shards", 4},
                 {"exec.trace", 1},
                 {"num_threads", -7},
                 {"memory_budget_bytes", INT64_MAX}};
  std::vector<uint8_t> bytes = wire::EncodeSetRequest(set);
  auto decoded = wire::DecodeSetRequest(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().options, set.options);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<uint8_t> trunc(bytes.begin(),
                               bytes.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_FALSE(wire::DecodeSetRequest(trunc).ok()) << "cut at " << cut;
  }

  wire::StatsReply stats;
  wire::SessionStatsEntry session;
  session.session_id = 3;
  session.client_name = "tenant";
  session.requests = 9;
  session.options = set.options;
  stats.sessions.push_back(session);
  bytes = wire::EncodeStatsReply(stats);
  auto round = wire::DecodeStatsReply(bytes);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  ASSERT_EQ(round.value().sessions.size(), 1u);
  EXPECT_EQ(round.value().sessions[0].client_name, "tenant");
  EXPECT_EQ(round.value().sessions[0].requests, 9u);
  EXPECT_EQ(round.value().sessions[0].options, set.options);
  // Exactly one proper prefix decodes: the pre-histogram layout, which
  // ends right after the session entries.
  int decodable = 0;
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<uint8_t> trunc(bytes.begin(),
                               bytes.begin() + static_cast<ptrdiff_t>(cut));
    auto partial = wire::DecodeStatsReply(trunc);
    if (!partial.ok()) continue;
    ++decodable;
    ASSERT_EQ(partial.value().sessions.size(), 1u) << "cut at " << cut;
    EXPECT_EQ(partial.value().sessions[0].options, set.options);
  }
  EXPECT_EQ(decodable, 1);
}

TEST(WireCodecTest, StatsCounterPrefixLayoutIsPinned) {
  // The wire order of the STATS_RESULT counter prefix, written out by
  // hand: MIRROR_SERVER_COUNTERS must reproduce it row for row, since a
  // reordered or inserted row changes the protocol.
  const std::vector<std::string> kWireOrder = {
      "frames_in", "frames_out", "bytes_in", "bytes_out", "requests", "errors",
      "coalesced_requests", "sessions_opened", "sessions_closed",
      "load_generation", "zone_blocks_skipped", "topk_morsels_pruned",
      "topk_shards_pruned", "probe_partitions", "wal_appends",
      "wal_replayed_records", "wal_truncated_bytes", "recovery_lazy_loads",
      "recovery_pending", "requests_shed", "queue_depth_high_water",
      "active_workers", "result_chunks_streamed", "slow_client_disconnects",
      "peak_query_bytes", "result_cache_hits", "result_cache_misses",
      "recycler_admissions_rejected", "recycler_evictions",
      "recycler_bytes_held", "candidate_cache_hits",
      "candidate_subsumption_hits"};
  std::vector<std::string> table_order;
  wire::StatsReply stats;
  uint64_t next = 0;
#define PIN_ROW(name, kind, group) \
  table_order.push_back(#name);    \
  stats.server.name = ++next;
  MIRROR_SERVER_COUNTERS(PIN_ROW)
#undef PIN_ROW
  ASSERT_EQ(table_order, kWireOrder);
  ASSERT_EQ(std::size(wire::kServerCounters), kWireOrder.size());

  // Counter i travels as the i-th little-endian u64 word, then the u32
  // session count.
  const size_t block = kWireOrder.size() * 8;
  std::vector<uint8_t> bytes = wire::EncodeStatsReply(stats);
  ASSERT_GE(bytes.size(), block + 4);
  for (size_t i = 0; i < kWireOrder.size(); ++i) {
    uint64_t word = 0;
    for (size_t b = 8; b-- > 0;) word = (word << 8) | bytes[i * 8 + b];
    EXPECT_EQ(word, i + 1) << kWireOrder[i];
  }
  EXPECT_EQ(bytes[block] | bytes[block + 1] | bytes[block + 2] |
                bytes[block + 3],
            0);

  auto round = wire::DecodeStatsReply(bytes);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
#define ROUND_TRIP_ROW(name, kind, group) \
  EXPECT_EQ(round.value().server.name, stats.server.name) << #name;
  MIRROR_SERVER_COUNTERS(ROUND_TRIP_ROW)
#undef ROUND_TRIP_ROW

  for (size_t cut = 0; cut < block + 4; ++cut) {
    std::vector<uint8_t> trunc(bytes.begin(),
                               bytes.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_FALSE(wire::DecodeStatsReply(trunc).ok()) << "cut at " << cut;
  }
}

TEST(WireCodecTest, ResetKernelStatsZeroesEveryKernelRow) {
  // A sharded, threaded select + aggregate bumps several rows (tuples,
  // candidates, morsels, shard fan-out, the peak-bytes gauge).
  moa::QueryContext ctx;
  db::QueryOptions opts;
  opts.exec.num_shards = 2;
  opts.exec.num_threads = 2;
  opts.exec.recycle = false;
  auto result = SharedDb()->Query(
      "count(select[THIS.rating >= 500](Cat));", ctx, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  int bumped = 0;
  monet::KernelStats before = monet::SnapshotKernelStats();
#define COUNT_BUMPED(name, fold) bumped += before.name > 0 ? 1 : 0;
  MIRROR_KERNEL_COUNTERS(COUNT_BUMPED)
#undef COUNT_BUMPED
  EXPECT_GE(bumped, 3) << before.ToString();

  monet::ResetKernelStats();
  monet::KernelStats after = monet::SnapshotKernelStats();
#define EXPECT_ZERO_ROW(name, fold) EXPECT_EQ(after.name, 0u) << #name;
  MIRROR_KERNEL_COUNTERS(EXPECT_ZERO_ROW)
#undef EXPECT_ZERO_ROW
  EXPECT_EQ(after.TotalOps(), 0u);
  EXPECT_EQ(after.TotalWallNanos(), 0u);
}

TEST(WireCodecTest, QueryRequestRoundTripsBindings) {
  wire::QueryRequest req;
  req.text = "map[sum(THIS)](map[getBL(THIS.doc, q, stats)](Lib));";
  req.bindings.Bind("q", {{"sunset", 2.0}, {"beach", 0.5}});
  req.bindings.BindTerms("r", {"wave"});
  auto decoded = wire::DecodeQueryRequest(wire::EncodeQueryRequest(req));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().text, req.text);
  EXPECT_EQ(decoded.value().bindings.CacheKey(), req.bindings.CacheKey());
}

TEST(WireCodecTest, ErrorFrameCarriesStatus) {
  base::Status status = base::Status::ParseError("bad query near ';'");
  base::Status decoded = wire::DecodeError(wire::EncodeError(status));
  EXPECT_EQ(decoded.code(), status.code());
  EXPECT_EQ(decoded.message(), status.message());
}

TEST(WireCodecTest, MalformedPayloadsAreParseErrors) {
  std::vector<uint8_t> garbage = {0xde, 0xad};
  EXPECT_FALSE(wire::DecodeQueryRequest(garbage).ok());
  EXPECT_FALSE(wire::DecodeHelloRequest(garbage).ok());
  EXPECT_FALSE(wire::DecodeStatsReply(garbage).ok());
  EXPECT_FALSE(wire::DecodeResultReply(garbage).ok());
}

// ---------------------------------------------------------------------------
// ByteChannel transport.

TEST(ByteChannelTest, FramesCrossTheChannelAndCloseEofsPeer) {
  auto [a, b] = wire::CreateChannelPair();
  std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  ASSERT_TRUE(wire::WriteFrame(a.get(), wire::FrameType::kQuery, payload)
                  .ok());
  auto frame = wire::ReadFrame(b.get());
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame.value().type, wire::FrameType::kQuery);
  EXPECT_EQ(frame.value().payload, payload);

  a->Close();
  auto eof = wire::ReadFrame(b.get());
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), base::StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Server round trips.

TEST(QueryServerTest, HelloQueryCloseRoundTrip) {
  db::MirrorDb* database = SharedDb();
  QueryServer server(database);
  auto [client_end, server_end] = wire::CreateChannelPair();
  server.Serve(std::move(server_end));

  wire::WireClient client(std::move(client_end));
  auto hello = client.Hello("roundtrip");
  ASSERT_TRUE(hello.ok()) << hello.status().ToString();
  EXPECT_GT(hello.value().session_id, 0u);
  EXPECT_EQ(hello.value().server_name, "mirrord");
  EXPECT_EQ(server.open_session_count(), 1u);
  // The session's plan cache is wired into MirrorDb Load invalidation.
  EXPECT_EQ(database->registered_session_count(), 1u);

  const std::string query = "count(select[THIS.year >= 2000](Cat));";
  moa::QueryContext ctx;
  auto direct = database->Query(query, ctx);
  ASSERT_TRUE(direct.ok());
  auto result = client.Query(query, ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectResultIdentical(result.value(), direct.value());

  ASSERT_TRUE(client.Close().ok());
  EXPECT_TRUE(EventuallyTrue([&] { return server.open_session_count() == 0; }));
  EXPECT_EQ(database->registered_session_count(), 0u);
  server.Shutdown();
}

TEST(QueryServerTest, QueryBeforeHelloIsRejectedButConnectionSurvives) {
  QueryServer server(SharedDb());
  auto [client_end, server_end] = wire::CreateChannelPair();
  server.Serve(std::move(server_end));

  wire::WireClient client(std::move(client_end));
  moa::QueryContext ctx;
  auto premature = client.Query("count(Cat);", ctx);
  ASSERT_FALSE(premature.ok());
  EXPECT_EQ(premature.status().code(), base::StatusCode::kInvalidArgument);

  // The same connection can still say HELLO and work.
  ASSERT_TRUE(client.Hello("late").ok());
  auto result = client.Query("count(select[THIS.rating >= 500](Cat));", ctx);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  server.Shutdown();
}

TEST(QueryServerTest, QueryErrorsComeBackAsErrorFramesAndSessionSurvives) {
  QueryServer server(SharedDb());
  auto [client_end, server_end] = wire::CreateChannelPair();
  server.Serve(std::move(server_end));
  wire::WireClient client(std::move(client_end));
  ASSERT_TRUE(client.Hello("errors").ok());

  moa::QueryContext ctx;
  auto bad_parse = client.Query("select[THIS.year >>>](Cat);", ctx);
  ASSERT_FALSE(bad_parse.ok());
  auto bad_name = client.Query("count(NoSuchSet);", ctx);
  ASSERT_FALSE(bad_name.ok());
  // A malformed number literal is a typed parse error, not a crash.
  auto bad_number = client.Query("count(select[THIS.year >= .](S));", ctx);
  ASSERT_FALSE(bad_number.ok());
  EXPECT_EQ(bad_number.status().code(), base::StatusCode::kParseError)
      << bad_number.status().ToString();

  auto good = client.Query("count(select[THIS.year >= 1990](Cat));", ctx);
  EXPECT_TRUE(good.ok()) << good.status().ToString();

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats.value().sessions.size(), 1u);
  EXPECT_EQ(stats.value().sessions[0].errors, 3u);
  EXPECT_GE(stats.value().server.errors, 3u);
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Concurrency: many sessions against one shared catalog.

TEST(QueryServerTest, EightConcurrentSessionsAreBitIdenticalToDirect) {
  db::MirrorDb* database = SharedDb();
  // Recycler off: this test pins the plan-cache layer underneath it —
  // result-cache replays would satisfy repeats without ever re-hitting
  // a session's compiled plan (daemon_recycler_test covers that path).
  QueryServer::Options options;
  options.query.exec.recycle = false;
  QueryServer server(database, options);
  constexpr int kSessions = 8;
  constexpr int kRounds = 6;

  // Per-session workload: distinct selection bounds, a map over the
  // selection, and a ranking query with session-specific bindings — so
  // concurrent sessions compile and execute genuinely different plans.
  struct Workload {
    std::vector<std::string> queries;
    moa::QueryContext ctx;
  };
  std::vector<Workload> workloads(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    Workload& w = workloads[s];
    int lo = 1975 + 3 * s;
    int hi = 2010 + s;
    w.queries.push_back("count(select[THIS.year >= " + std::to_string(lo) +
                        " and THIS.year <= " + std::to_string(hi) +
                        "](Cat));");
    w.queries.push_back("map[THIS.rating * " + std::to_string(s + 2) +
                        " + 1](select[THIS.year >= " + std::to_string(lo) +
                        "](Cat));");
    w.queries.push_back(
        "map[sum(THIS)](map[getBL(THIS.doc, q, stats)](select[THIS.year >= " +
        std::to_string(1970 + 5 * s) + "](Lib)));");
    w.ctx.BindTerms("q", {kWords[s % std::size(kWords)],
                          kWords[(s + 3) % std::size(kWords)]});
  }

  // Direct execution (no server) defines the expected bits.
  std::vector<std::vector<moa::EvalOutput>> expected(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    for (const std::string& q : workloads[s].queries) {
      auto direct = database->Query(q, workloads[s].ctx);
      ASSERT_TRUE(direct.ok()) << direct.status().ToString();
      expected[s].push_back(direct.TakeValue());
    }
  }

  std::vector<std::unique_ptr<wire::WireClient>> clients;
  for (int s = 0; s < kSessions; ++s) {
    auto [client_end, server_end] = wire::CreateChannelPair();
    server.Serve(std::move(server_end));
    clients.push_back(
        std::make_unique<wire::WireClient>(std::move(client_end)));
    ASSERT_TRUE(clients.back()->Hello("c" + std::to_string(s)).ok());
  }
  EXPECT_EQ(server.open_session_count(), static_cast<size_t>(kSessions));
  EXPECT_EQ(database->registered_session_count(),
            static_cast<size_t>(kSessions));

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t qi = 0; qi < workloads[s].queries.size(); ++qi) {
          auto result =
              clients[s]->Query(workloads[s].queries[qi], workloads[s].ctx);
          if (!result.ok()) {
            ++failures;
            return;
          }
          const moa::EvalOutput& want = expected[s][qi];
          const wire::ResultReply& got = result.value();
          if (got.is_scalar != want.is_scalar) {
            ++failures;
            return;
          }
          if (want.is_scalar) {
            if (!SameBits(got.scalar.d(), want.scalar.d())) {
              ++failures;
              return;
            }
          } else {
            if (got.bat->size() != want.bat->size()) {
              ++failures;
              return;
            }
            for (size_t i = 0; i < want.bat->size(); ++i) {
              auto [gh, gt] = got.bat->Row(i);
              auto [wh, wt] = want.bat->Row(i);
              bool tails_equal = wt.type() == monet::ValueType::kDbl
                                     ? SameBits(gt.d(), wt.d())
                                     : gt == wt;
              if (!(gh == wh) || !tails_equal) {
                ++failures;
                return;
              }
            }
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Repeated rounds hit each session's plan cache.
  auto stats = clients[0]->Stats();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats.value().sessions.size(), static_cast<size_t>(kSessions));
  for (const auto& entry : stats.value().sessions) {
    EXPECT_GT(entry.plan_cache_hits, 0u) << "session " << entry.session_id;
  }
  for (auto& client : clients) client->Close().ok();
  server.Shutdown();
  EXPECT_EQ(database->registered_session_count(), 0u);
}

TEST(QueryServerTest, ConcurrentIdenticalQueriesCoalesce) {
  db::MirrorDb* database = SharedDb();
  // Recycler off: once the first execution lands in the result cache,
  // later identical queries replay it without ever coalescing — this
  // test pins the in-flight sharing layer the recycler sits above.
  QueryServer::Options options;
  options.query.exec.recycle = false;
  QueryServer server(database, options);
  constexpr int kClients = 4;
  constexpr int kRounds = 12;
  const std::string query =
      "map[THIS.rating + 7](select[THIS.year >= 1980 and "
      "THIS.year <= 2015](Cat));";
  moa::QueryContext ctx;
  auto direct = database->Query(query, ctx);
  ASSERT_TRUE(direct.ok());

  std::vector<std::unique_ptr<wire::WireClient>> clients;
  for (int c = 0; c < kClients; ++c) {
    auto [client_end, server_end] = wire::CreateChannelPair();
    server.Serve(std::move(server_end));
    clients.push_back(
        std::make_unique<wire::WireClient>(std::move(client_end)));
    ASSERT_TRUE(clients.back()->Hello("co" + std::to_string(c)).ok());
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (int r = 0; r < kRounds; ++r) {
        auto result = clients[c]->Query(query, ctx);
        if (!result.ok() ||
            result.value().bat->size() != direct.value().bat->size()) {
          ++failures;
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  wire::ServerWireStats stats = server.stats();
  EXPECT_EQ(stats.requests, static_cast<uint64_t>(kClients * kRounds));
  // With four clients hammering one identical query, some requests must
  // have shared a leader's execution.
  EXPECT_GT(stats.coalesced_requests, 0u);
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Malformed and truncated frames.

TEST(QueryServerTest, MalformedPayloadGetsErrorFrameAndConnectionLives) {
  QueryServer server(SharedDb());
  auto [client_end, server_end] = wire::CreateChannelPair();
  server.Serve(std::move(server_end));

  // HELLO by hand so we can keep using the raw transport afterwards.
  wire::HelloRequest hello;
  hello.client_name = "raw";
  ASSERT_TRUE(wire::WriteFrame(client_end.get(), wire::FrameType::kHello,
                               wire::EncodeHelloRequest(hello))
                  .ok());
  auto hello_reply = wire::ReadFrame(client_end.get());
  ASSERT_TRUE(hello_reply.ok());
  ASSERT_EQ(hello_reply.value().type, wire::FrameType::kHelloOk);

  // A QUERY frame whose payload is garbage: framing stays intact, so the
  // server answers with ERROR and keeps serving.
  ASSERT_TRUE(wire::WriteFrame(client_end.get(), wire::FrameType::kQuery,
                               {0xff, 0x01, 0x02})
                  .ok());
  auto err = wire::ReadFrame(client_end.get());
  ASSERT_TRUE(err.ok());
  ASSERT_EQ(err.value().type, wire::FrameType::kError);
  base::Status decoded_err = wire::DecodeError(err.value().payload);
  EXPECT_EQ(decoded_err.code(), base::StatusCode::kParseError);

  // The connection still serves valid requests.
  wire::QueryRequest req;
  req.text = "count(select[THIS.rating >= 100](Cat));";
  ASSERT_TRUE(wire::WriteFrame(client_end.get(), wire::FrameType::kQuery,
                               wire::EncodeQueryRequest(req))
                  .ok());
  auto result = wire::ReadFrame(client_end.get());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().type, wire::FrameType::kResult);
  server.Shutdown();
}

TEST(QueryServerTest, UnknownFrameTypeIsReportedThenConnectionDrops) {
  QueryServer server(SharedDb());
  auto [client_end, server_end] = wire::CreateChannelPair();
  server.Serve(std::move(server_end));

  // An unknown type byte cannot be resynchronized: expect one ERROR
  // frame, then EOF.
  uint8_t bogus[5] = {0x7f, 0, 0, 0, 0};
  ASSERT_TRUE(client_end->Write(bogus, sizeof(bogus)).ok());
  auto err = wire::ReadFrame(client_end.get());
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err.value().type, wire::FrameType::kError);
  auto eof = wire::ReadFrame(client_end.get());
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), base::StatusCode::kNotFound);

  // The server itself is unharmed: a fresh connection works.
  auto [c2, s2] = wire::CreateChannelPair();
  server.Serve(std::move(s2));
  wire::WireClient client(std::move(c2));
  EXPECT_TRUE(client.Hello("after-bogus").ok());
  server.Shutdown();
}

TEST(QueryServerTest, TruncatedFrameDropsConnectionServerSurvives) {
  QueryServer server(SharedDb());
  auto [client_end, server_end] = wire::CreateChannelPair();
  server.Serve(std::move(server_end));

  // Header promises 64 payload bytes; deliver 3 and hang up.
  uint8_t header[5] = {static_cast<uint8_t>(wire::FrameType::kQuery), 64, 0,
                       0, 0};
  ASSERT_TRUE(client_end->Write(header, sizeof(header)).ok());
  uint8_t partial[3] = {1, 2, 3};
  ASSERT_TRUE(client_end->Write(partial, sizeof(partial)).ok());
  client_end->Close();

  EXPECT_TRUE(EventuallyTrue([&] { return server.active_connections() == 0; }));
  // No half-open session left behind, and the server still serves.
  EXPECT_EQ(server.open_session_count(), 0u);
  auto [c2, s2] = wire::CreateChannelPair();
  server.Serve(std::move(s2));
  wire::WireClient client(std::move(c2));
  EXPECT_TRUE(client.Hello("after-truncation").ok());
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Load invalidation.

TEST(QueryServerTest, LoadInvalidatesEveryLiveSession) {
  db::MirrorDb database;
  BuildDb(&database, /*seed=*/7, /*catalog_rows=*/4000);
  // Recycler off: every session must COMPILE the query (plan_cache_size
  // below), not replay another session's cached reply. The recycler's
  // own Load invalidation is covered by daemon_recycler_test.
  QueryServer::Options options;
  options.query.exec.recycle = false;
  QueryServer server(&database, options);

  std::vector<std::unique_ptr<wire::WireClient>> clients;
  for (int c = 0; c < 2; ++c) {
    auto [client_end, server_end] = wire::CreateChannelPair();
    server.Serve(std::move(server_end));
    clients.push_back(
        std::make_unique<wire::WireClient>(std::move(client_end)));
    ASSERT_TRUE(clients.back()->Hello("inv" + std::to_string(c)).ok());
  }

  const std::string query = "count(select[THIS.year >= 1970](Cat));";
  moa::QueryContext ctx;
  for (auto& client : clients) {
    auto result = client->Query(query, ctx);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().scalar.AsDouble(), 4000.0);
  }
  auto stats = clients[0]->Stats();
  ASSERT_TRUE(stats.ok());
  uint64_t generation_before = stats.value().server.load_generation;
  for (const auto& s : stats.value().sessions) {
    EXPECT_EQ(s.plan_cache_size, 1u);
  }

  // Reload the catalog with half as many rows through the SAME MirrorDb
  // the server fronts: every live session's plan cache must drop.
  {
    base::Rng rng(99);
    std::vector<moa::MoaValue> rows;
    for (int i = 0; i < 2000; ++i) {
      rows.push_back(moa::MoaValue::Tuple(
          {moa::MoaValue::Str("v" + std::to_string(i)),
           moa::MoaValue::Int(rng.UniformInt(1970, 2025)),
           moa::MoaValue::Int(rng.UniformInt(0, 1000)),
           moa::MoaValue::Int(rng.UniformInt(0, 1999))}));
    }
    ASSERT_TRUE(database.Load("Cat", std::move(rows)).ok());
  }

  stats = clients[1]->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().server.load_generation, generation_before + 1);
  for (const auto& s : stats.value().sessions) {
    EXPECT_EQ(s.plan_cache_size, 0u) << "session " << s.session_id
                                     << " kept a stale plan";
  }
  // Post-reload queries see the new contents (recompiled, not stale).
  for (auto& client : clients) {
    auto result = client->Query(query, ctx);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().scalar.AsDouble(), 2000.0);
  }
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Per-session SET overrides.

TEST(QueryServerTest, SetOverridesAreIsolatedPerSession) {
  db::MirrorDb* database = SharedDb();
  // Recycler off: the fan-out probes below need each tenant's query to
  // actually EXECUTE under that tenant's options — a cached replay from
  // a previous run against the shared db would show zero kernel work
  // (daemon_recycler_test covers the cached path).
  QueryServer::Options options;
  options.query.exec.recycle = false;
  QueryServer server(database, options);

  auto [ca, sa] = wire::CreateChannelPair();
  auto [cb, sb] = wire::CreateChannelPair();
  server.Serve(std::move(sa));
  server.Serve(std::move(sb));
  wire::WireClient a(std::move(ca));
  wire::WireClient b(std::move(cb));
  ASSERT_TRUE(a.Hello("tenant-a").ok());
  ASSERT_TRUE(b.Hello("tenant-b").ok());

  // Tenant A pins 2-way sharded execution with one thread; B stays on
  // the defaults.
  auto set_a = a.Set({{"num_shards", 2}, {"num_threads", 1}});
  ASSERT_TRUE(set_a.ok()) << set_a.status().ToString();
  EXPECT_EQ(Knobs(set_a.value().options).at("num_shards"), 2);
  EXPECT_EQ(Knobs(set_a.value().options).at("num_threads"), 1);

  auto stats = b.Stats();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats.value().sessions.size(), 2u);
  for (const auto& s : stats.value().sessions) {
    const std::map<std::string, int64_t> knobs = Knobs(s.options);
    if (s.client_name == "tenant-a") {
      EXPECT_EQ(knobs.at("num_shards"), 2);
      EXPECT_EQ(knobs.at("num_threads"), 1);
    } else {
      EXPECT_EQ(knobs.at("num_shards"), 0);   // inherits the db default
      EXPECT_EQ(knobs.at("num_threads"), 0);  // auto
    }
  }

  // A's queries genuinely fan out across shards; B's do not. Identical
  // results either way.
  const std::string query =
      "map[THIS.rating * 3](select[THIS.year >= 1985 and "
      "THIS.year <= 2010](Cat));";
  moa::QueryContext ctx;
  auto direct = database->Query(query, ctx);
  ASSERT_TRUE(direct.ok());

  monet::ResetKernelStats();
  auto result_a = a.Query(query, ctx);
  ASSERT_TRUE(result_a.ok());
  uint64_t fanouts_a = monet::SnapshotKernelStats().shard_fanouts;
  EXPECT_GT(fanouts_a, 0u) << "tenant-a's override never fanned out";

  monet::ResetKernelStats();
  auto result_b = b.Query(query, ctx);
  ASSERT_TRUE(result_b.ok());
  EXPECT_EQ(monet::SnapshotKernelStats().shard_fanouts, 0u)
      << "tenant-b was dragged onto tenant-a's sharded path";

  ExpectResultIdentical(result_a.value(), direct.value());
  ExpectResultIdentical(result_b.value(), direct.value());

  // Unknown keys and out-of-range values are rejected atomically: the
  // valid prefix of the batch must not stick.
  auto bad = a.Set({{"num_threads", 4}, {"warp_drive", 1}});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), base::StatusCode::kInvalidArgument);
  auto echo = a.Set({{"zone_maps", 1}});
  ASSERT_TRUE(echo.ok());
  EXPECT_EQ(Knobs(echo.value().options).at("num_threads"), 1)
      << "rejected SET partially applied";
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Thread growth: a count gate, no clocks.

/// The process's live thread count ("Threads:" in /proc/self/status).
int ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

TEST(QueryServerTest, EngineThreadsDoNotGrowWithSessionCount) {
  db::MirrorDb* database = SharedDb();
  // Recycler and coalescing off so every request executes; a small
  // morsel size makes each query fan out across the pool.
  QueryServer::Options options;
  options.worker_threads = 8;
  options.coalesce_queries = false;
  options.query.exec.recycle = false;
  options.query.exec.morsel_size = 256;
  QueryServer server(database, options);
  constexpr int kSessions = 8;
  std::vector<std::unique_ptr<wire::WireClient>> clients;
  for (int s = 0; s < kSessions; ++s) {
    auto [client_end, server_end] = wire::CreateChannelPair();
    server.Serve(std::move(server_end));
    clients.push_back(
        std::make_unique<wire::WireClient>(std::move(client_end)));
    ASSERT_TRUE(clients.back()->Hello("t" + std::to_string(s)).ok());
    ASSERT_TRUE(clients.back()->Set({{"num_threads", 4}}).ok());
  }
  const std::string query =
      "sum(map[THIS.rating](select[THIS.year >= 1980](Cat)));";
  moa::QueryContext ctx;
  auto direct = database->Query(query, ctx);
  ASSERT_TRUE(direct.ok());

  // Every client thread lives through both phases, so the counts differ
  // only by threads the server (or the engine) started in between.
  std::mutex mu;
  std::condition_variable cv;
  int phase = 0;
  int active = 0;
  int acked = 0;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      for (int seen = 1; seen <= 3; ++seen) {
        int run = 0;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return phase >= seen; });
          if (phase == 3) return;
          run = s < active;
        }
        for (int round = 0; run && round < 4; ++round) {
          auto result = clients[s]->Query(query, ctx);
          const double want = direct.value().scalar.d();
          if (!result.ok() || !SameBits(result.value().scalar.d(), want)) {
            ++failures;
          }
        }
        std::lock_guard<std::mutex> lock(mu);
        ++acked;
        cv.notify_all();
      }
    });
  }
  auto run_phase = [&](int next, int sessions) {
    std::unique_lock<std::mutex> lock(mu);
    phase = next;
    active = sessions;
    cv.notify_all();
    cv.wait(lock, [&] { return acked == next * kSessions; });
  };
  run_phase(1, 2);
  const int with_two = ProcessThreads();
  run_phase(2, kSessions);
  const int with_eight = ProcessThreads();
  {
    std::lock_guard<std::mutex> lock(mu);
    phase = 3;
    cv.notify_all();
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Not EXPECT_EQ: a thread an earlier test joined may still be leaving
  // the kernel's count when phase 1 is sampled; growth is the failure.
  EXPECT_GT(with_two, 0);
  EXPECT_LE(with_eight, with_two)
      << "engine threads grew with the number of sessions";
  for (auto& client : clients) client->Close().ok();
  server.Shutdown();
}

TEST(QueryServerTest, SessionlessQueriesReuseTheEngineThreads) {
  db::MirrorDb* database = SharedDb();
  db::QueryOptions options;
  options.exec.num_threads = 4;
  options.exec.recycle = false;
  options.exec.morsel_size = 256;
  const std::string query =
      "sum(map[THIS.rating](select[THIS.year >= 1980](Cat)));";
  moa::QueryContext ctx;
  ASSERT_TRUE(database->Query(query, ctx, options, nullptr).ok());
  // The first call grew the shared pool; it keeps its threads.
  EXPECT_GE(monet::SharedWorkerPool().size(), 4);
  const int after_first = ProcessThreads();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(database->Query(query, ctx, options, nullptr).ok());
  }
  EXPECT_LE(ProcessThreads(), after_first);
}

// ---------------------------------------------------------------------------
// Shutdown.

TEST(QueryServerTest, ShutdownDrainsInFlightRequests) {
  db::MirrorDb* database = SharedDb();
  auto server = std::make_unique<QueryServer>(database);
  constexpr int kClients = 3;
  std::vector<std::unique_ptr<wire::WireClient>> clients;
  for (int c = 0; c < kClients; ++c) {
    auto [client_end, server_end] = wire::CreateChannelPair();
    server->Serve(std::move(server_end));
    clients.push_back(
        std::make_unique<wire::WireClient>(std::move(client_end)));
    ASSERT_TRUE(clients.back()->Hello("sd" + std::to_string(c)).ok());
  }

  // Keep all clients issuing queries while the server shuts down. Every
  // reply must be either a valid result or a clean transport/shutdown
  // error — never a hang, a crash, or a corrupt frame.
  std::atomic<int> ok_replies{0};
  std::atomic<int> closed_replies{0};
  std::atomic<int> bad_replies{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (int r = 0; r < 200; ++r) {
        auto result = clients[c]->Query(
            "map[sum(THIS)](map[getBL(THIS.doc, q, stats)](Lib));",
            [&] {
              moa::QueryContext q;
              q.BindTerms("q", {"sun", "wave"});
              return q;
            }());
        if (result.ok()) {
          ++ok_replies;
        } else if (result.status().code() == base::StatusCode::kIoError ||
                   result.status().code() == base::StatusCode::kNotFound) {
          ++closed_replies;
          return;  // server is gone — done
        } else {
          ++bad_replies;
          return;
        }
      }
    });
  }
  // Let the request storm get going, then pull the plug.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server->Shutdown();
  for (std::thread& t : threads) t.join();

  EXPECT_GT(ok_replies.load(), 0) << "no request ever completed";
  EXPECT_EQ(bad_replies.load(), 0);
  EXPECT_EQ(server->active_connections(), 0u);
  EXPECT_EQ(database->registered_session_count(), 0u);
  server.reset();  // double-shutdown via destructor must be safe
}

TEST(QueryServerTest, CloseHandshakeThenServeIsRefusedAfterShutdown) {
  QueryServer server(SharedDb());
  auto [client_end, server_end] = wire::CreateChannelPair();
  server.Serve(std::move(server_end));
  wire::WireClient client(std::move(client_end));
  ASSERT_TRUE(client.Hello("bye").ok());
  ASSERT_TRUE(client.Close().ok());
  server.Shutdown();

  // Connections offered after Shutdown are closed immediately.
  auto [c2, s2] = wire::CreateChannelPair();
  server.Serve(std::move(s2));
  wire::WireClient late(std::move(c2));
  EXPECT_FALSE(late.Hello("too-late").ok());
}

// ---------------------------------------------------------------------------
// TCP transport.

TEST(QueryServerTest, TcpListenerServesTheSameProtocol) {
  db::MirrorDb* database = SharedDb();
  QueryServer server(database);
  auto port = server.ListenTcp(0);
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  ASSERT_GT(port.value(), 0);

  auto conn = wire::TcpConnect("127.0.0.1", port.value());
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  wire::WireClient client(conn.TakeValue());
  ASSERT_TRUE(client.Hello("tcp-client").ok());

  const std::string query =
      "map[THIS.rating + 1](select[THIS.year >= 2005](Cat));";
  moa::QueryContext ctx;
  auto direct = database->Query(query, ctx);
  ASSERT_TRUE(direct.ok());
  auto result = client.Query(query, ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectResultIdentical(result.value(), direct.value());
  ASSERT_TRUE(client.Close().ok());
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// The durable write path over the wire.

TEST(QueryServerTest, AppendAndDeleteOverTheWire) {
  db::MirrorDb database;
  BuildDb(&database, /*seed=*/11, /*catalog_rows=*/2000);
  QueryServer server(&database);  // mutable: writes allowed
  auto [client_end, server_end] = wire::CreateChannelPair();
  server.Serve(std::move(server_end));
  wire::WireClient client(std::move(client_end));
  ASSERT_TRUE(client.Hello("writer").ok());

  // Appends are acknowledged with the post-write row count. No WAL is
  // attached here, so lsn stays 0 (volatile write) — the daemon still
  // applies the delta layers.
  auto ack = client.Append("Cat.rating", monet::Column::MakeInts({7, 8, 9}));
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack.value().visible_rows, 2003u);
  EXPECT_EQ(ack.value().lsn, 0u);
  EXPECT_EQ(database.catalog()->AppendDomainRows("Cat.rating").value(), 2003u);

  auto del = client.Delete("Cat.rating", {2000, 2002});
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(del.value().deleted, 2u);
  EXPECT_EQ(del.value().visible_rows, 2001u);

  // Invalid writes come back as clean ERROR frames; the session lives.
  auto bad = client.Append("Cat.rating", monet::Column::MakeDbls({0.5}));
  ASSERT_FALSE(bad.ok());
  auto missing = client.Delete("NoSuch.bat", {0});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), base::StatusCode::kNotFound);
  auto again = client.Append("Cat.rating", monet::Column::MakeInts({1}));
  ASSERT_TRUE(again.ok());

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats.value().server.errors, 2u);
  ASSERT_TRUE(client.Close().ok());
  server.Shutdown();
}

TEST(QueryServerTest, AppendThatWouldUnpackPastTheFrameLimitIsRefused) {
  db::MirrorDb database;
  BuildDb(&database, /*seed=*/12, /*catalog_rows=*/2000);
  QueryServer server(&database);
  auto [client_end, server_end] = wire::CreateChannelPair();
  server.Serve(std::move(server_end));
  wire::HelloRequest hello;
  hello.client_name = "packer";
  ASSERT_TRUE(wire::WriteFrame(client_end.get(), wire::FrameType::kHello,
                               wire::EncodeHelloRequest(hello))
                  .ok());
  ASSERT_TRUE(wire::ReadFrame(client_end.get()).ok());

  // A constant int column packs at 1 bit per value: this ~4 MiB frame
  // describes one value more than kMaxFramePayload bytes hold unpacked.
  wire::AppendRequest req;
  req.bat_name = "Cat.rating";
  req.values = monet::Column::MakeInts({});
  std::vector<uint8_t> payload = wire::EncodeAppendRequest(req);
  payload.resize(payload.size() - 1);  // drop the empty column's count
  const uint64_t count = wire::kMaxFramePayload / sizeof(int64_t) + 1;
  monet::AppendVarint(count, &payload);
  payload.push_back(0);  // zigzag minimum 0
  payload.push_back(1);  // width 1
  payload.resize(payload.size() + (count + 7) / 8, 0);
  ASSERT_LT(payload.size(), wire::kMaxFramePayload / 32);
  ASSERT_TRUE(
      wire::WriteFrame(client_end.get(), wire::FrameType::kAppend, payload)
          .ok());
  auto err = wire::ReadFrame(client_end.get());
  ASSERT_TRUE(err.ok());
  ASSERT_EQ(err.value().type, wire::FrameType::kError);
  EXPECT_EQ(wire::DecodeError(err.value().payload).code(),
            base::StatusCode::kOutOfRange);
  EXPECT_EQ(database.catalog()->AppendDomainRows("Cat.rating").value(), 2000u);

  // The session keeps serving writes and queries.
  req.values = monet::Column::MakeInts({4, 5});
  ASSERT_TRUE(wire::WriteFrame(client_end.get(), wire::FrameType::kAppend,
                               wire::EncodeAppendRequest(req))
                  .ok());
  auto ack = wire::ReadFrame(client_end.get());
  ASSERT_TRUE(ack.ok());
  ASSERT_EQ(ack.value().type, wire::FrameType::kAppendOk);
  EXPECT_EQ(wire::DecodeAppendReply(ack.value().payload).value().visible_rows,
            2002u);
  wire::QueryRequest query;
  query.text = "count(Cat);";
  ASSERT_TRUE(wire::WriteFrame(client_end.get(), wire::FrameType::kQuery,
                               wire::EncodeQueryRequest(query))
                  .ok());
  auto result = wire::ReadFrame(client_end.get());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().type, wire::FrameType::kResult);
  server.Shutdown();
}

TEST(QueryServerTest, ReadOnlyServerRejectsWrites) {
  QueryServer server(static_cast<const db::MirrorDb*>(SharedDb()));
  auto [client_end, server_end] = wire::CreateChannelPair();
  server.Serve(std::move(server_end));
  wire::WireClient client(std::move(client_end));
  ASSERT_TRUE(client.Hello("intruder").ok());

  auto append = client.Append("Cat.rating", monet::Column::MakeInts({1}));
  ASSERT_FALSE(append.ok());
  EXPECT_EQ(append.status().code(), base::StatusCode::kInvalidArgument);
  auto del = client.Delete("Cat.rating", {0});
  ASSERT_FALSE(del.ok());
  EXPECT_EQ(del.status().code(), base::StatusCode::kInvalidArgument);

  // Nothing was mutated and the session still serves queries.
  EXPECT_FALSE(SharedDb()->catalog()->HasDeltas("Cat.rating"));
  moa::QueryContext ctx;
  EXPECT_TRUE(client.Query("count(Cat);", ctx).ok());
  ASSERT_TRUE(client.Close().ok());
  server.Shutdown();
}

TEST(QueryServerTest, WalCountersSurfaceInStats) {
  std::string dir =
      (std::filesystem::temp_directory_path() /
       ("mirror_server_walstats_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  db::MirrorDb database;
  BuildDb(&database, /*seed=*/13, /*catalog_rows=*/500);
  ASSERT_TRUE(database.AttachWal(dir + "/wal.log").ok());
  QueryServer server(&database);
  auto [client_end, server_end] = wire::CreateChannelPair();
  server.Serve(std::move(server_end));
  wire::WireClient client(std::move(client_end));
  ASSERT_TRUE(client.Hello("walstats").ok());

  auto a1 = client.Append("Cat.rating", monet::Column::MakeInts({1, 2}));
  ASSERT_TRUE(a1.ok());
  EXPECT_GT(a1.value().lsn, 0u);  // WAL-backed acks carry real LSNs
  auto a2 = client.Append("Cat.rating", monet::Column::MakeInts({3}));
  ASSERT_TRUE(a2.ok());
  EXPECT_GT(a2.value().lsn, a1.value().lsn);

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().server.wal_appends, 2u);
  EXPECT_EQ(stats.value().server.wal_replayed_records, 0u);
  EXPECT_EQ(stats.value().server.wal_truncated_bytes, 0u);
  EXPECT_EQ(stats.value().server.recovery_lazy_loads, 0u);
  EXPECT_EQ(stats.value().server.recovery_pending, 0u);
  ASSERT_TRUE(client.Close().ok());
  server.Shutdown();
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// The per-session query deadline.

TEST(QueryServerTest, QueryDeadlineKnobValidatesAndEchoes) {
  QueryServer server(SharedDb());
  auto [client_end, server_end] = wire::CreateChannelPair();
  server.Serve(std::move(server_end));
  wire::WireClient client(std::move(client_end));
  ASSERT_TRUE(client.Hello("deadline-echo").ok());

  auto set = client.Set({{"query_deadline_ms", 5000}});
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  EXPECT_EQ(Knobs(set.value().options).at("query_deadline_ms"), 5000);

  // Out-of-range values reject the whole batch atomically.
  auto bad = client.Set({{"query_deadline_ms", -1}});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), base::StatusCode::kInvalidArgument);
  auto too_big = client.Set({{"num_threads", 2}, {"query_deadline_ms", 86'400'001}});
  ASSERT_FALSE(too_big.ok());
  auto echo = client.Set({{"topk_prune", 1}});
  ASSERT_TRUE(echo.ok());
  EXPECT_EQ(Knobs(echo.value().options).at("query_deadline_ms"), 5000);
  EXPECT_EQ(Knobs(echo.value().options).at("num_threads"), 0)
      << "rejected SET partially applied";

  // STATS echoes the knob per session.
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats.value().sessions.size(), 1u);
  EXPECT_EQ(Knobs(stats.value().sessions[0].options).at("query_deadline_ms"),
            5000);

  // A generous deadline does not perturb results.
  const std::string query = "count(select[THIS.year >= 2000](Cat));";
  moa::QueryContext ctx;
  auto direct = SharedDb()->Query(query, ctx);
  ASSERT_TRUE(direct.ok());
  auto result = client.Query(query, ctx);
  ASSERT_TRUE(result.ok());
  ExpectResultIdentical(result.value(), direct.value());
  ASSERT_TRUE(client.Close().ok());
  server.Shutdown();
}

TEST(QueryServerTest, ExpiredDeadlineReturnsErrorFrameAndSessionSurvives) {
  // A big enough catalog that a multi-instruction query reliably outlives
  // a 1 ms deadline (the engine checks at instruction and morsel
  // boundaries, so the first boundary after the stamp trips it).
  db::MirrorDb database;
  BuildDb(&database, /*seed=*/3, /*catalog_rows=*/1000000);
  QueryServer server(&database);
  auto [client_end, server_end] = wire::CreateChannelPair();
  server.Serve(std::move(server_end));
  wire::WireClient client(std::move(client_end));
  ASSERT_TRUE(client.Hello("deadline").ok());
  ASSERT_TRUE(client.Set({{"query_deadline_ms", 1}, {"num_threads", 1}}).ok());

  const std::string heavy =
      "map[THIS * 3 + 1](map[THIS * 2](map[THIS.rating + "
      "7](select[THIS.year >= 1970](Cat))));";
  moa::QueryContext ctx;
  bool expired = false;
  for (int attempt = 0; attempt < 50 && !expired; ++attempt) {
    auto result = client.Query(heavy, ctx);
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), base::StatusCode::kDeadlineExceeded)
          << result.status().ToString();
      expired = true;
    }
  }
  EXPECT_TRUE(expired) << "1 ms deadline never tripped on a 1M-row query";

  // The ERROR frame was clean: the same session serves after lifting the
  // deadline, with an undisturbed result.
  ASSERT_TRUE(client.Set({{"query_deadline_ms", 0}}).ok());
  auto direct = database.Query(heavy, ctx);
  ASSERT_TRUE(direct.ok());
  auto result = client.Query(heavy, ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectResultIdentical(result.value(), direct.value());
  ASSERT_TRUE(client.Close().ok());
  server.Shutdown();
}

}  // namespace
}  // namespace mirror::daemon
