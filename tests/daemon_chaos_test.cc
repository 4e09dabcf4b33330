// Overload and chaos tests of the query-serving daemon: a 64-client
// mixed hostile/healthy storm over TCP, per-query memory budgets,
// streamed results and the result-size cap, the slow-client policy,
// quiesced reloads under live traffic, and the retry/backoff client.
// The invariants throughout: the server never crashes, every shed is a
// typed kOverloaded ERROR, healthy clients' results stay bit-identical
// to direct execution, and no acknowledged write is ever lost.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
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
#include "monet/fault_injector.h"

namespace mirror::daemon {
namespace {

namespace wire = mirror::daemon::wire;

/// A SET_OK echo or STATS session entry's knobs, by key.
std::map<std::string, int64_t> Knobs(const wire::KnobValues& knobs) {
  return {knobs.begin(), knobs.end()};
}

constexpr const char* kWords[] = {"sun",  "sea",  "sky",   "rock", "tree",
                                  "bird", "sand", "wave",  "moss", "dune",
                                  "reef", "palm", "surf",  "cliff", "cloud"};

void BuildCatalog(db::MirrorDb* database, uint64_t seed, int rows) {
  base::Rng rng(seed);
  ASSERT_TRUE(database
                  ->Define("define Cat as SET<TUPLE<Atomic<URL>: u, "
                           "Atomic<int>: year, Atomic<int>: rating, "
                           "Atomic<int>: ref>>;")
                  .ok());
  std::vector<moa::MoaValue> tuples;
  tuples.reserve(static_cast<size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    tuples.push_back(moa::MoaValue::Tuple(
        {moa::MoaValue::Str("u" + std::to_string(i)),
         moa::MoaValue::Int(rng.UniformInt(1970, 2025)),
         moa::MoaValue::Int(rng.UniformInt(0, 1000)),
         moa::MoaValue::Int(rng.UniformInt(0, rows - 1))}));
  }
  ASSERT_TRUE(database->Load("Cat", std::move(tuples)).ok());
}

bool SameBits(double a, double b) {
  uint64_t ua = 0;
  uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof(double));
  std::memcpy(&ub, &b, sizeof(double));
  return ua == ub;
}

/// Bit-exact comparison, usable off the main thread (returns instead of
/// ASSERTing so storm workers can count failures).
bool ResultsIdentical(const wire::ResultReply& got,
                      const moa::EvalOutput& want) {
  if (got.is_scalar != want.is_scalar) return false;
  if (want.is_scalar) {
    if (want.scalar.type() == monet::ValueType::kDbl) {
      return SameBits(got.scalar.d(), want.scalar.d());
    }
    return got.scalar == want.scalar;
  }
  if (got.bat == nullptr || want.bat == nullptr) return false;
  if (got.bat->size() != want.bat->size()) return false;
  for (size_t i = 0; i < want.bat->size(); ++i) {
    auto [gh, gt] = got.bat->Row(i);
    auto [wh, wt] = want.bat->Row(i);
    if (!(gh == wh)) return false;
    bool tails_equal = wt.type() == monet::ValueType::kDbl
                           ? SameBits(gt.d(), wt.d())
                           : gt == wt;
    if (!tails_equal) return false;
  }
  return true;
}

template <typename Pred>
bool EventuallyTrue(Pred pred) {
  for (int i = 0; i < 4000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

// ---------------------------------------------------------------------------
// Chaos injectors (client-side, via wire::WrapChaos).

/// Passes writes through until the Nth one, which is cut short and the
/// connection hard-closed — a mid-frame disconnect.
class MidFrameDisconnector : public monet::NetFaultInjector {
 public:
  explicit MidFrameDisconnector(int writes_until_cut)
      : remaining_(writes_until_cut) {}

  WriteFault BeforeWrite(size_t n) override {
    WriteFault f;
    if (--remaining_ <= 0) {
      f.max_bytes = n > 3 ? 3 : 0;  // a few bytes of the frame escape
      f.disconnect_after = true;
    }
    return f;
  }

 private:
  int remaining_;
};

/// Every write lands one byte at a time: a maximally fragmented but
/// well-behaved peer. The server's incremental reassembly must not care.
class OneBytePerWrite : public monet::NetFaultInjector {
 public:
  WriteFault BeforeWrite(size_t) override {
    WriteFault f;
    f.max_bytes = 1;
    return f;
  }
};

/// Dawdles before every read — the server's outbound buffer absorbs the
/// latency (and its slow-client policy must NOT trip at this mild pace).
class SlowReader : public monet::NetFaultInjector {
 public:
  explicit SlowReader(uint64_t delay_micros) : delay_(delay_micros) {}

  ReadFault BeforeRead(size_t) override {
    ReadFault f;
    f.delay_micros = delay_;
    return f;
  }

 private:
  uint64_t delay_;
};

// ---------------------------------------------------------------------------
// The storm: 64 mixed clients against one small, shed-happy server.

TEST(ChaosStormTest, SixtyFourMixedClientsNoCrashNoCorruptionNoLostAcks) {
  db::MirrorDb database;
  BuildCatalog(&database, /*seed=*/21, /*rows=*/20000);
  ASSERT_TRUE(database
                  .Define("define Pad as SET<TUPLE<Atomic<URL>: u, "
                          "Atomic<int>: val>>;")
                  .ok());
  {
    std::vector<moa::MoaValue> seedrows;
    for (int i = 0; i < 8; ++i) {
      seedrows.push_back(moa::MoaValue::Tuple(
          {moa::MoaValue::Str("p" + std::to_string(i)),
           moa::MoaValue::Int(i)}));
    }
    ASSERT_TRUE(database.Load("Pad", std::move(seedrows)).ok());
  }

  // Deliberately undersized: 3 workers and an 8-deep queue force real
  // sheds under 64 clients.
  QueryServer::Options opt;
  opt.worker_threads = 3;
  opt.request_queue_limit = 8;
  opt.retry_after_ms = 2;
  QueryServer server(&database, opt);
  auto port = server.ListenTcp(0);
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  // The healthy readers' ground truth, computed before the storm.
  std::vector<std::string> read_queries;
  std::vector<moa::EvalOutput> expected;
  moa::QueryContext ctx;
  for (int q = 0; q < 4; ++q) {
    int lo = 1975 + 6 * q;
    read_queries.push_back("count(select[THIS.year >= " + std::to_string(lo) +
                           "](Cat));");
    read_queries.push_back("map[THIS.rating * " + std::to_string(q + 2) +
                           "](select[THIS.year >= " + std::to_string(lo + 20) +
                           "](Cat));");
  }
  for (const std::string& q : read_queries) {
    auto direct = database.Query(q, ctx);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    expected.push_back(direct.TakeValue());
  }

  auto dial = [&]() { return wire::TcpConnect("127.0.0.1", port.value()); };

  std::atomic<int> read_failures{0};
  std::atomic<int> write_failures{0};
  std::atomic<long long> acked_values{0};
  std::vector<std::thread> clients;

  // 16 healthy readers behind the retrying client: sheds and transient
  // disconnects are absorbed, results must be bit-identical.
  for (int c = 0; c < 16; ++c) {
    clients.emplace_back([&, c] {
      wire::RetryPolicy policy;
      policy.max_attempts = 64;
      policy.initial_backoff_ms = 1;
      policy.max_backoff_ms = 16;
      policy.jitter_seed = static_cast<uint32_t>(c + 1);
      wire::ReconnectingClient client(dial, "healthy" + std::to_string(c),
                                      policy);
      for (int round = 0; round < 6; ++round) {
        size_t qi = static_cast<size_t>(c + round) % read_queries.size();
        auto result = client.Query(read_queries[qi], ctx);
        if (!result.ok() || !ResultsIdentical(result.value(), expected[qi])) {
          ++read_failures;
          return;
        }
      }
      client.Close().ok();
    });
  }

  // 8 writers appending distinct values to the Pad BAT. A value counts
  // as acked only when APPEND_OK came back; overload sheds retry.
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&, c] {
      auto conn = dial();
      if (!conn.ok()) {
        ++write_failures;
        return;
      }
      wire::WireClient client(conn.TakeValue());
      if (!client.Hello("writer" + std::to_string(c)).ok()) {
        ++write_failures;
        return;
      }
      for (int i = 0; i < 8; ++i) {
        int value = 1000 * c + i;
        bool acked = false;
        for (int attempt = 0; attempt < 200 && !acked; ++attempt) {
          auto ack = client.Append("Pad.val",
                                   monet::Column::MakeInts({value}));
          if (ack.ok()) {
            acked = true;
          } else if (ack.status().code() == base::StatusCode::kOverloaded) {
            std::this_thread::sleep_for(std::chrono::milliseconds(
                std::max<uint32_t>(1, client.last_retry_after_ms())));
          } else {
            ++write_failures;  // anything else is a real bug
            return;
          }
        }
        if (acked) {
          acked_values.fetch_add(1);
        } else {
          ++write_failures;
          return;
        }
      }
      client.Close().ok();
    });
  }

  // 10 mid-frame disconnectors: die partway through their QUERY frame.
  std::vector<std::unique_ptr<MidFrameDisconnector>> cutters;
  for (int c = 0; c < 10; ++c) {
    cutters.push_back(std::make_unique<MidFrameDisconnector>(3 + c % 3));
  }
  for (int c = 0; c < 10; ++c) {
    clients.emplace_back([&, c] {
      auto conn = dial();
      if (!conn.ok()) return;
      wire::WireClient client(
          wire::WrapChaos(conn.TakeValue(), cutters[c].get()));
      client.Hello("cutter" + std::to_string(c)).ok();
      // Some die inside HELLO already; the rest die inside this QUERY.
      client.Query(read_queries[0], ctx).ok();
    });
  }

  // 10 malformed flooders: garbage bytes, unknown frame types. The
  // server answers what it can and drops them; it must not wobble.
  for (int c = 0; c < 10; ++c) {
    clients.emplace_back([&, c] {
      auto conn = dial();
      if (!conn.ok()) return;
      base::Rng rng(static_cast<uint64_t>(777 + c));
      std::vector<uint8_t> noise(64 + rng.Uniform(128));
      for (uint8_t& b : noise) {
        b = static_cast<uint8_t>(rng.Uniform(256));
      }
      // Writes fail once the server hangs up on the unknown type; both
      // outcomes are fine, crashing the server is not.
      conn.value()->Write(noise.data(), noise.size()).ok();
      conn.value()->Close();
    });
  }

  // 10 one-byte-per-write clients: slow, fragmented, but correct — they
  // must get real, bit-identical results (possibly after shed retries).
  std::vector<std::unique_ptr<OneBytePerWrite>> dribblers;
  for (int c = 0; c < 10; ++c) {
    dribblers.push_back(std::make_unique<OneBytePerWrite>());
  }
  for (int c = 0; c < 10; ++c) {
    clients.emplace_back([&, c] {
      auto conn = dial();
      if (!conn.ok()) {
        ++read_failures;
        return;
      }
      wire::WireClient client(
          wire::WrapChaos(conn.TakeValue(), dribblers[c].get()));
      if (!client.Hello("dribble" + std::to_string(c)).ok()) {
        ++read_failures;
        return;
      }
      size_t qi = static_cast<size_t>(c) % read_queries.size();
      bool done = false;
      for (int attempt = 0; attempt < 200 && !done; ++attempt) {
        auto result = client.Query(read_queries[qi], ctx);
        if (result.ok()) {
          if (!ResultsIdentical(result.value(), expected[qi])) {
            ++read_failures;
          }
          done = true;
        } else if (result.status().code() != base::StatusCode::kOverloaded) {
          ++read_failures;
          return;
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      if (!done) ++read_failures;
    });
  }

  // 10 slow readers: 2 ms of dawdling before every read.
  std::vector<std::unique_ptr<SlowReader>> sleepers;
  for (int c = 0; c < 10; ++c) {
    sleepers.push_back(std::make_unique<SlowReader>(2000));
  }
  for (int c = 0; c < 10; ++c) {
    clients.emplace_back([&, c] {
      auto conn = dial();
      if (!conn.ok()) {
        ++read_failures;
        return;
      }
      wire::WireClient client(
          wire::WrapChaos(conn.TakeValue(), sleepers[c].get()));
      if (!client.Hello("sleepy" + std::to_string(c)).ok()) {
        ++read_failures;
        return;
      }
      size_t qi = static_cast<size_t>(c + 1) % read_queries.size();
      for (int attempt = 0; attempt < 200; ++attempt) {
        auto result = client.Query(read_queries[qi], ctx);
        if (result.ok()) {
          if (!ResultsIdentical(result.value(), expected[qi])) {
            ++read_failures;
          }
          return;
        }
        if (result.status().code() != base::StatusCode::kOverloaded) {
          ++read_failures;
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      ++read_failures;  // never got through
    });
  }

  for (std::thread& t : clients) t.join();

  EXPECT_EQ(read_failures.load(), 0);
  EXPECT_EQ(write_failures.load(), 0);
  EXPECT_EQ(acked_values.load(), 64);  // 8 writers x 8 values, all acked

  // The undersized server genuinely shed load, and survived: a fresh
  // client still gets correct answers.
  wire::ServerWireStats stats = server.stats();
  EXPECT_GT(stats.requests_shed, 0u) << "storm never tripped admission";
  EXPECT_GT(stats.queue_depth_high_water, 0u);
  {
    auto conn = dial();
    ASSERT_TRUE(conn.ok());
    wire::WireClient probe(conn.TakeValue());
    ASSERT_TRUE(probe.Hello("aftermath").ok());
    auto result = probe.Query(read_queries[0], ctx);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(ResultsIdentical(result.value(), expected[0]));
    probe.Close().ok();
  }
  server.Shutdown();

  // Zero acked writes lost: every acknowledged append landed in the
  // Pad.val append domain (8 seed rows + 64 acked values, exactly —
  // sheds happened strictly before application).
  auto pad_rows = database.catalog()->AppendDomainRows("Pad.val");
  ASSERT_TRUE(pad_rows.ok()) << pad_rows.status().ToString();
  EXPECT_EQ(pad_rows.value(), 8u + 64u);
}

// ---------------------------------------------------------------------------
// Per-query memory budgets.

TEST(QueryServerChaosTest, MemoryBudgetTripsCleanlyAndSessionSurvives) {
  db::MirrorDb database;
  BuildCatalog(&database, /*seed=*/5, /*rows=*/200000);
  QueryServer server(&database);
  auto [client_end, server_end] = wire::CreateChannelPair();
  server.Serve(std::move(server_end));
  wire::WireClient client(std::move(client_end));
  ASSERT_TRUE(client.Hello("budgeted").ok());

  // A 16 KiB budget cannot hold the materialized selection + maps.
  ASSERT_TRUE(client.Set({{"memory_budget_bytes", 16384}}).ok());
  const std::string heavy =
      "map[THIS * 2 + 1](map[THIS.rating + 7](select[THIS.year >= "
      "1970](Cat)));";
  moa::QueryContext ctx;
  auto starved = client.Query(heavy, ctx);
  ASSERT_FALSE(starved.ok());
  EXPECT_EQ(starved.status().code(), base::StatusCode::kResourceExhausted)
      << starved.status().ToString();

  // The ERROR was clean: lifting the budget on the SAME session yields
  // the full, undisturbed result.
  ASSERT_TRUE(client.Set({{"memory_budget_bytes", 0}}).ok());
  auto direct = database.Query(heavy, ctx);
  ASSERT_TRUE(direct.ok());
  auto result = client.Query(heavy, ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(ResultsIdentical(result.value(), direct.value()));

  // The budget knob echoes through SET and STATS, and the profiler saw
  // the query's high-water mark.
  auto echo = client.Set({{"memory_budget_bytes", 1 << 20}});
  ASSERT_TRUE(echo.ok());
  EXPECT_EQ(Knobs(echo.value().options).at("memory_budget_bytes"), 1 << 20);
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats.value().sessions.size(), 1u);
  EXPECT_EQ(stats.value().sessions[0].options, echo.value().options);
  EXPECT_GT(stats.value().server.peak_query_bytes, 0u);
  ASSERT_TRUE(client.Close().ok());
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Streamed results and the result-size cap.

TEST(QueryServerChaosTest, LargeResultStreamsInChunksBitIdentically) {
  db::MirrorDb database;
  BuildCatalog(&database, /*seed=*/9, /*rows=*/100000);
  QueryServer::Options opt;
  opt.result_chunk_bytes = 4096;  // force dozens of chunks
  QueryServer server(&database, opt);
  auto [client_end, server_end] = wire::CreateChannelPair();
  server.Serve(std::move(server_end));
  wire::WireClient client(std::move(client_end));
  ASSERT_TRUE(client.Hello("streamer").ok());

  const std::string wide =
      "map[THIS.rating + 1](select[THIS.year >= 1970](Cat));";
  moa::QueryContext ctx;
  auto direct = database.Query(wide, ctx);
  ASSERT_TRUE(direct.ok());
  auto result = client.Query(wide, ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(client.last_result_chunks(), 1u)
      << "a ~1 MB result should not fit one 4 KiB chunk";
  EXPECT_TRUE(ResultsIdentical(result.value(), direct.value()));

  // A scalar reply still rides a single RESULT frame.
  auto small = client.Query("count(Cat);", ctx);
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(client.last_result_chunks(), 0u);

  wire::ServerWireStats stats = server.stats();
  EXPECT_GT(stats.result_chunks_streamed, 1u);
  ASSERT_TRUE(client.Close().ok());
  server.Shutdown();
}

TEST(QueryServerChaosTest, ResultCapRejectsOversizedResultsTyped) {
  db::MirrorDb database;
  BuildCatalog(&database, /*seed=*/9, /*rows=*/100000);
  QueryServer::Options opt;
  opt.max_result_bytes = 1024;
  QueryServer server(&database, opt);
  auto [client_end, server_end] = wire::CreateChannelPair();
  server.Serve(std::move(server_end));
  wire::WireClient client(std::move(client_end));
  ASSERT_TRUE(client.Hello("capped").ok());

  moa::QueryContext ctx;
  auto refused =
      client.Query("map[THIS.rating](select[THIS.year >= 1970](Cat));", ctx);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), base::StatusCode::kResourceExhausted);

  // Small results on the same session are unaffected.
  auto count = client.Query("count(Cat);", ctx);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count.value().scalar.AsDouble(), 100000.0);
  ASSERT_TRUE(client.Close().ok());
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Hostile framing over real TCP: oversized headers and truncation.

TEST(QueryServerChaosTest, OversizedFrameGetsTypedErrorThenDropOverTcp) {
  db::MirrorDb database;
  BuildCatalog(&database, /*seed=*/3, /*rows=*/2000);
  QueryServer server(&database);
  auto port = server.ListenTcp(0);
  ASSERT_TRUE(port.ok());

  // Header promising a payload beyond the frame limit: the server must
  // answer with one best-effort typed ERROR, then hang up (the stream
  // cannot be resynchronized).
  auto conn = wire::TcpConnect("127.0.0.1", port.value());
  ASSERT_TRUE(conn.ok());
  uint32_t huge = wire::kMaxFramePayload + 1;
  uint8_t header[5] = {static_cast<uint8_t>(wire::FrameType::kQuery),
                       static_cast<uint8_t>(huge & 0xff),
                       static_cast<uint8_t>((huge >> 8) & 0xff),
                       static_cast<uint8_t>((huge >> 16) & 0xff),
                       static_cast<uint8_t>((huge >> 24) & 0xff)};
  ASSERT_TRUE(conn.value()->Write(header, sizeof(header)).ok());
  auto err = wire::ReadFrame(conn.value().get());
  ASSERT_TRUE(err.ok()) << err.status().ToString();
  ASSERT_EQ(err.value().type, wire::FrameType::kError);
  base::Status decoded = wire::DecodeError(err.value().payload);
  EXPECT_EQ(decoded.code(), base::StatusCode::kParseError);
  auto eof = wire::ReadFrame(conn.value().get());
  EXPECT_FALSE(eof.ok());

  // Truncation sweep: valid QUERY frames cut at various byte boundaries,
  // then closed. Each drop is silent; the server survives all of them.
  wire::QueryRequest req;
  req.text = "count(select[THIS.year >= 1990](Cat));";
  std::vector<uint8_t> payload = wire::EncodeQueryRequest(req);
  std::vector<uint8_t> frame;
  frame.push_back(static_cast<uint8_t>(wire::FrameType::kQuery));
  uint32_t n = static_cast<uint32_t>(payload.size());
  for (int b = 0; b < 4; ++b) {
    frame.push_back(static_cast<uint8_t>((n >> (8 * b)) & 0xff));
  }
  frame.insert(frame.end(), payload.begin(), payload.end());
  for (size_t cut = 1; cut < frame.size(); cut += 7) {
    auto torn = wire::TcpConnect("127.0.0.1", port.value());
    ASSERT_TRUE(torn.ok()) << "cut at " << cut;
    ASSERT_TRUE(torn.value()->Write(frame.data(), cut).ok());
    torn.value()->Close();
  }
  EXPECT_TRUE(EventuallyTrue([&] { return server.active_connections() == 0; }));

  // And a healthy client still gets served.
  auto fresh = wire::TcpConnect("127.0.0.1", port.value());
  ASSERT_TRUE(fresh.ok());
  wire::WireClient client(fresh.TakeValue());
  ASSERT_TRUE(client.Hello("post-sweep").ok());
  moa::QueryContext ctx;
  EXPECT_TRUE(client.Query(req.text, ctx).ok());
  ASSERT_TRUE(client.Close().ok());
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// The slow-client policy: a reader that stops reading is disconnected.

TEST(QueryServerChaosTest, StalledReaderIsDisconnectedAndCounted) {
  db::MirrorDb database;
  BuildCatalog(&database, /*seed=*/9, /*rows=*/400000);
  QueryServer::Options opt;
  opt.outbound_buffer_limit = 256 * 1024;
  opt.result_chunk_bytes = 32 * 1024;
  opt.write_stall_timeout_ms = 150;
  QueryServer server(&database, opt);
  auto port = server.ListenTcp(0);
  ASSERT_TRUE(port.ok());

  // Ask for a multi-megabyte result and never read a byte: the kernel
  // socket buffer fills, the server's outbound buffer parks at its cap,
  // and the stall timeout must cut the connection loose.
  auto conn = wire::TcpConnect("127.0.0.1", port.value());
  ASSERT_TRUE(conn.ok());
  wire::WireClient client(conn.TakeValue());
  ASSERT_TRUE(client.Hello("stalled").ok());
  wire::QueryRequest req;
  // The URL strings ship as their raw heap (~3 MB); the int columns
  // would bit-pack to a few hundred KB, which the loopback socket
  // buffers can absorb without ever stalling the writer.
  req.text = "map[THIS.u](select[THIS.year >= 1970](Cat));";
  // Raw write so we can refuse to read the reply (Query would read it).
  // The WireClient's transport is gone, so write via a second session
  // opened on a raw transport instead.
  ASSERT_TRUE(client.Close().ok());
  auto raw = wire::TcpConnect("127.0.0.1", port.value());
  ASSERT_TRUE(raw.ok());
  wire::HelloRequest hello;
  hello.client_name = "stalled-raw";
  ASSERT_TRUE(wire::WriteFrame(raw.value().get(), wire::FrameType::kHello,
                               wire::EncodeHelloRequest(hello))
                  .ok());
  auto hello_ok = wire::ReadFrame(raw.value().get());
  ASSERT_TRUE(hello_ok.ok());
  ASSERT_TRUE(wire::WriteFrame(raw.value().get(), wire::FrameType::kQuery,
                               wire::EncodeQueryRequest(req))
                  .ok());
  // ... and now never read.
  EXPECT_TRUE(EventuallyTrue(
      [&] { return server.stats().slow_client_disconnects > 0; }))
      << "stalled reader was never cut loose";
  EXPECT_TRUE(EventuallyTrue([&] { return server.active_connections() == 0; }));
  raw.value()->Close();

  // The server still serves an attentive client afterwards.
  auto fresh = wire::TcpConnect("127.0.0.1", port.value());
  ASSERT_TRUE(fresh.ok());
  wire::WireClient healthy(fresh.TakeValue());
  ASSERT_TRUE(healthy.Hello("attentive").ok());
  moa::QueryContext ctx;
  auto result = healthy.Query(req.text, ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(healthy.Close().ok());
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Deadlines inside the sharded scatter/gather fanout.

TEST(QueryServerChaosTest, DeadlineTripsInsideShardFanoutSessionSurvives) {
  db::MirrorDb database;
  {
    base::Rng rng(17);
    std::vector<moa::MoaValue> tuples;
    ASSERT_TRUE(database
                    .Define("define Cat as SET<TUPLE<Atomic<URL>: u, "
                            "Atomic<int>: year, Atomic<int>: rating, "
                            "Atomic<int>: ref>>;")
                    .ok());
    for (int i = 0; i < 800000; ++i) {
      tuples.push_back(moa::MoaValue::Tuple(
          {moa::MoaValue::Str("u" + std::to_string(i)),
           moa::MoaValue::Int(rng.UniformInt(1970, 2025)),
           moa::MoaValue::Int(rng.UniformInt(0, 1000)),
           moa::MoaValue::Int(rng.UniformInt(0, 799999))}));
    }
    ASSERT_TRUE(database.LoadSharded("Cat", std::move(tuples), 8).ok());
  }
  QueryServer server(&database);
  auto [client_end, server_end] = wire::CreateChannelPair();
  server.Serve(std::move(server_end));
  wire::WireClient client(std::move(client_end));
  ASSERT_TRUE(client.Hello("shard-deadline").ok());
  ASSERT_TRUE(client
                  .Set({{"query_deadline_ms", 1},
                        {"num_shards", 8},
                        {"num_threads", 2}})
                  .ok());

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
  EXPECT_TRUE(expired)
      << "1 ms deadline never tripped inside the 8-way shard fanout";

  // The scatter/gather abort left no torn state: lifting the deadline on
  // the same session reproduces direct execution bit for bit.
  ASSERT_TRUE(client.Set({{"query_deadline_ms", 0}}).ok());
  auto direct = database.Query(heavy, ctx);
  ASSERT_TRUE(direct.ok());
  auto result = client.Query(heavy, ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(ResultsIdentical(result.value(), direct.value()));
  ASSERT_TRUE(client.Close().ok());
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Shutdown racing the TCP accept loop.

TEST(QueryServerChaosTest, ShutdownRacesTcpAcceptWithoutCrashOrHang) {
  db::MirrorDb database;
  BuildCatalog(&database, /*seed=*/31, /*rows=*/2000);
  for (int iteration = 0; iteration < 12; ++iteration) {
    auto server = std::make_unique<QueryServer>(&database);
    auto port = server->ListenTcp(0);
    ASSERT_TRUE(port.ok());

    std::atomic<bool> stop{false};
    std::atomic<int> bad{0};
    std::vector<std::thread> hammers;
    for (int t = 0; t < 4; ++t) {
      hammers.emplace_back([&] {
        moa::QueryContext ctx;
        while (!stop.load()) {
          auto conn = wire::TcpConnect("127.0.0.1", port.value());
          if (!conn.ok()) continue;  // listener already gone
          wire::WireClient client(conn.TakeValue());
          if (!client.Hello("racer").ok()) continue;
          auto result = client.Query("count(Cat);", ctx);
          if (result.ok()) {
            if (result.value().scalar.AsDouble() != 2000.0) ++bad;
          } else {
            // Mid-shutdown failures must be clean transport errors or
            // the typed shutting-down refusal, never garbage.
            auto code = result.status().code();
            if (code != base::StatusCode::kIoError &&
                code != base::StatusCode::kNotFound &&
                code != base::StatusCode::kOverloaded) {
              ++bad;
            }
          }
        }
      });
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(1 + iteration % 5));
    server->Shutdown();
    stop = true;
    for (std::thread& t : hammers) t.join();
    EXPECT_EQ(bad.load(), 0) << "iteration " << iteration;
    EXPECT_EQ(server->active_connections(), 0u);
    server.reset();
  }
}

// ---------------------------------------------------------------------------
// Quiesced reloads under live traffic: readers never see a torn mix.

TEST(QueryServerChaosTest, LoadUnderTrafficNeverTearsReads) {
  db::MirrorDb database;
  BuildCatalog(&database, /*seed=*/41, /*rows=*/4000);
  QueryServer server(&database);

  constexpr int kReaders = 6;
  std::vector<std::unique_ptr<wire::WireClient>> clients;
  for (int c = 0; c < kReaders; ++c) {
    auto [client_end, server_end] = wire::CreateChannelPair();
    server.Serve(std::move(server_end));
    clients.push_back(
        std::make_unique<wire::WireClient>(std::move(client_end)));
    ASSERT_TRUE(clients.back()->Hello("qr" + std::to_string(c)).ok());
  }

  // Every reload swaps between exactly 4000 and 2000 rows; a count can
  // only ever be one of those two values. Anything else is a torn read
  // straight through a half-applied Load.
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> readers;
  for (int c = 0; c < kReaders; ++c) {
    readers.emplace_back([&, c] {
      moa::QueryContext ctx;
      while (!stop.load()) {
        auto result =
            clients[c]->Query("count(select[THIS.year >= 1970](Cat));", ctx);
        if (!result.ok()) {
          ++torn;
          return;
        }
        double count = result.value().scalar.AsDouble();
        if (count != 4000.0 && count != 2000.0) {
          ++torn;
          return;
        }
      }
    });
  }

  for (int reload = 0; reload < 6; ++reload) {
    int rows = (reload % 2 == 0) ? 2000 : 4000;
    base::Rng rng(static_cast<uint64_t>(100 + reload));
    std::vector<moa::MoaValue> tuples;
    for (int i = 0; i < rows; ++i) {
      tuples.push_back(moa::MoaValue::Tuple(
          {moa::MoaValue::Str("r" + std::to_string(i)),
           moa::MoaValue::Int(rng.UniformInt(1970, 2025)),
           moa::MoaValue::Int(rng.UniformInt(0, 1000)),
           moa::MoaValue::Int(rng.UniformInt(0, rows - 1))}));
    }
    // The quiesce barrier: Load blocks until in-flight queries drain,
    // then swaps atomically while new queries wait at the gate.
    ASSERT_TRUE(database.Load("Cat", std::move(tuples)).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop = true;
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0);
  for (auto& client : clients) client->Close().ok();
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// The retry/backoff client, deterministically.

/// A hand-scripted single-connection server: HELLO_OK, then `sheds`
/// kOverloaded ERRORs (with a retry-after hint), then a real result.
void RunScriptedServer(wire::Transport* conn, int sheds, uint32_t hint_ms,
                       const std::vector<uint8_t>& result_payload,
                       bool die_after_hello) {
  auto frame = wire::ReadFrame(conn);
  if (!frame.ok() || frame.value().type != wire::FrameType::kHello) return;
  wire::HelloReply hello;
  hello.session_id = 7;
  hello.server_name = "scripted";
  wire::WriteFrame(conn, wire::FrameType::kHelloOk,
                   wire::EncodeHelloReply(hello))
      .ok();
  if (die_after_hello) {
    conn->Close();
    return;
  }
  int remaining = sheds;
  for (;;) {
    auto request = wire::ReadFrame(conn);
    if (!request.ok()) return;
    if (request.value().type != wire::FrameType::kQuery) return;
    if (remaining > 0) {
      --remaining;
      wire::WriteFrame(conn, wire::FrameType::kError,
                       wire::EncodeError(
                           base::Status::Overloaded("scripted shed"),
                           hint_ms))
          .ok();
      continue;
    }
    wire::WriteFrame(conn, wire::FrameType::kResult, result_payload).ok();
    return;
  }
}

/// Replicates ReconnectingClient's documented jitter so the test can
/// predict the exact backoff sequence.
uint64_t ExpectedBackoff(uint32_t* rng_state, uint64_t initial, uint64_t cap,
                         int round) {
  uint64_t backoff = initial;
  for (int i = 0; i < round && backoff < cap; ++i) backoff *= 2;
  backoff = std::min(backoff, cap);
  *rng_state ^= *rng_state << 13;
  *rng_state ^= *rng_state >> 17;
  *rng_state ^= *rng_state << 5;
  return backoff + (backoff * (*rng_state & 0xff)) / 1024;
}

TEST(ReconnectingClientTest, OverloadBackoffPacingIsDeterministic) {
  // A tiny real database provides one genuine encoded result payload.
  db::MirrorDb database;
  BuildCatalog(&database, /*seed=*/2, /*rows=*/100);
  moa::QueryContext ctx;
  auto direct = database.Query("count(Cat);", ctx);
  ASSERT_TRUE(direct.ok());
  std::vector<uint8_t> result_payload =
      wire::EncodeResultReply(direct.value());

  auto [client_end, server_end] = wire::CreateChannelPair();
  constexpr int kSheds = 3;
  constexpr uint32_t kHint = 7;
  std::thread server_thread(
      [conn = std::move(server_end), &result_payload]() mutable {
    RunScriptedServer(conn.get(), kSheds, kHint, result_payload,
                      /*die_after_hello=*/false);
  });

  std::vector<uint64_t> sleeps;
  wire::RetryPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff_ms = 10;
  policy.max_backoff_ms = 2000;
  policy.jitter_seed = 42;
  policy.sleep_fn = [&sleeps](uint64_t ms) { sleeps.push_back(ms); };

  int dials = 0;
  wire::Dialer dial = [&]() -> base::Result<std::unique_ptr<wire::Transport>> {
    ++dials;
    if (client_end == nullptr) {
      return base::Status::IoError("scripted server accepts one connection");
    }
    return std::move(client_end);
  };
  wire::ReconnectingClient client(std::move(dial), "backoff-test", policy);
  auto result = client.Query("count(Cat);", ctx);
  server_thread.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(ResultsIdentical(result.value(), direct.value()));
  EXPECT_EQ(dials, 1);  // overload retries reuse the connection
  EXPECT_EQ(client.overload_retries(), 3u);

  // Exact pacing: each shed sleeps the server's 7 ms hint immediately,
  // and each new attempt is preceded by the jittered backoff.
  uint32_t rng = 42;
  std::vector<uint64_t> expected = {
      kHint,
      ExpectedBackoff(&rng, 10, 2000, 0),
      kHint,
      ExpectedBackoff(&rng, 10, 2000, 1),
      kHint,
      ExpectedBackoff(&rng, 10, 2000, 2),
  };
  EXPECT_EQ(sleeps, expected);
}

TEST(ReconnectingClientTest, ReconnectsAfterMidSessionDisconnect) {
  db::MirrorDb database;
  BuildCatalog(&database, /*seed=*/2, /*rows=*/100);
  moa::QueryContext ctx;
  auto direct = database.Query("count(Cat);", ctx);
  ASSERT_TRUE(direct.ok());
  std::vector<uint8_t> result_payload =
      wire::EncodeResultReply(direct.value());

  // Dial #1 reaches a server that hangs up right after HELLO; dial #2
  // reaches one that serves for real.
  std::deque<std::unique_ptr<wire::Transport>> accepts;
  std::vector<std::thread> servers;
  for (int i = 0; i < 2; ++i) {
    auto [ce, se] = wire::CreateChannelPair();
    accepts.push_back(std::move(ce));
    servers.emplace_back(
        [conn = std::move(se), &result_payload, i]() mutable {
          RunScriptedServer(conn.get(), /*sheds=*/0, /*hint_ms=*/0,
                            result_payload, /*die_after_hello=*/i == 0);
        });
  }

  std::vector<uint64_t> sleeps;
  wire::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_ms = 1;
  policy.sleep_fn = [&sleeps](uint64_t ms) { sleeps.push_back(ms); };
  wire::Dialer dial = [&]() -> base::Result<std::unique_ptr<wire::Transport>> {
    if (accepts.empty()) {
      return base::Status::IoError("no more scripted connections");
    }
    auto conn = std::move(accepts.front());
    accepts.pop_front();
    return conn;
  };
  wire::ReconnectingClient client(std::move(dial), "reconnect-test", policy);
  auto result = client.Query("count(Cat);", ctx);
  for (std::thread& t : servers) t.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(ResultsIdentical(result.value(), direct.value()));
  EXPECT_EQ(client.reconnects(), 2u);
  EXPECT_EQ(client.overload_retries(), 0u);
  EXPECT_FALSE(sleeps.empty()) << "reconnect skipped the backoff";
}

}  // namespace
}  // namespace mirror::daemon
