// Server-side observability: the TRACE frame round trip (per-session
// query traces as BAT tables), the latency-histogram bucket layout and
// percentile math, the STATS reset variant, the slow-query ring, and the
// Prometheus text rendering — daemon/wire.h, daemon/latency_histogram.h,
// daemon/query_server.h.

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "daemon/latency_histogram.h"
#include "daemon/query_server.h"
#include "daemon/wire.h"
#include "daemon/wire_client.h"
#include "mirror/mirror_db.h"
#include "moa/moa_value.h"
#include "moa/query_context.h"

namespace mirror::daemon {
namespace {

namespace wire = mirror::daemon::wire;

constexpr const char* kWords[] = {"sun",  "sea",  "sky",  "rock", "tree",
                                  "bird", "sand", "wave", "moss", "dune"};

/// A catalog set for selection/aggregation queries plus an annotated
/// library big enough that a ranking query takes well over a
/// millisecond (the slow-query tests key off a 1 ms threshold).
void BuildDb(db::MirrorDb* database, int catalog_rows, int lib_docs) {
  base::Rng rng(7);
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
  docs.reserve(static_cast<size_t>(lib_docs));
  for (int i = 0; i < lib_docs; ++i) {
    std::vector<std::string> terms;
    int len = 6 + static_cast<int>(rng.Uniform(8));
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

db::MirrorDb* SharedDb() {
  static db::MirrorDb* database = [] {
    auto* d = new db::MirrorDb();
    BuildDb(d, /*catalog_rows=*/30000, /*lib_docs=*/3000);
    return d;
  }();
  return database;
}

// ---------------------------------------------------------------------------
// Histogram bucket layout and percentile math.

TEST(LatencyHistogramTest, BucketBoundsAreStrictlyIncreasing) {
  EXPECT_EQ(wire::HistogramBucketBound(0), 0u);
  EXPECT_EQ(wire::HistogramBucketBound(1), 1u);
  EXPECT_EQ(wire::HistogramBucketBound(2), 2u);
  EXPECT_EQ(wire::HistogramBucketBound(3), 3u);
  EXPECT_EQ(wire::HistogramBucketBound(4), 4u);
  EXPECT_EQ(wire::HistogramBucketBound(5), 6u);
  EXPECT_EQ(wire::HistogramBucketBound(6), 8u);
  EXPECT_EQ(wire::HistogramBucketBound(7), 12u);
  for (size_t i = 1; i + 1 < wire::kHistogramBuckets; ++i) {
    EXPECT_GT(wire::HistogramBucketBound(i), wire::HistogramBucketBound(i - 1))
        << "bucket " << i;
  }
  EXPECT_EQ(wire::HistogramBucketBound(wire::kHistogramBuckets - 1),
            UINT64_MAX);
}

TEST(LatencyHistogramTest, BucketIndexInvertsTheBounds) {
  for (size_t i = 0; i + 1 < wire::kHistogramBuckets; ++i) {
    const uint64_t bound = wire::HistogramBucketBound(i);
    EXPECT_EQ(wire::HistogramBucketIndex(bound), i) << "at bound " << bound;
    if (i > 0) {
      EXPECT_EQ(wire::HistogramBucketIndex(bound - 1),
                bound - 1 <= wire::HistogramBucketBound(i - 1) ? i - 1 : i);
    }
  }
  // Past the last finite bound everything lands in the overflow bucket.
  const uint64_t last =
      wire::HistogramBucketBound(wire::kHistogramBuckets - 2);
  EXPECT_EQ(wire::HistogramBucketIndex(last + 1),
            wire::kHistogramBuckets - 1);
  EXPECT_EQ(wire::HistogramBucketIndex(UINT64_MAX),
            wire::kHistogramBuckets - 1);
}

TEST(LatencyHistogramTest, RecordSnapshotPercentiles) {
  LatencyHistogram h;
  // 100 samples at 10 us, 10 at 1000 us: p50 sits in the 10 us bucket,
  // p99 in the 1000 us one, and max is exact.
  for (int i = 0; i < 100; ++i) h.Record(10);
  for (int i = 0; i < 10; ++i) h.Record(1000);
  wire::HistogramSummary s = h.Snapshot();
  EXPECT_EQ(s.count, 110u);
  EXPECT_EQ(s.sum_micros, 100u * 10 + 10u * 1000);
  EXPECT_EQ(s.max_micros, 1000u);
  EXPECT_GT(s.p50_micros, 0u);
  EXPECT_LE(s.p50_micros, 12u);
  EXPECT_GT(s.p99_micros, 500u);
  EXPECT_LE(s.p99_micros, 1000u);
  EXPECT_GE(s.p90_micros, s.p50_micros);
  EXPECT_GE(s.p99_micros, s.p90_micros);

  h.Reset();
  s = h.Snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p99_micros, 0u);
  EXPECT_EQ(s.max_micros, 0u);
}

TEST(LatencyHistogramTest, EmptyHistogramPercentileIsZero) {
  wire::HistogramSummary empty;
  EXPECT_EQ(wire::HistogramPercentile(empty, 0.5), 0u);
}

// ---------------------------------------------------------------------------
// Codec round trips for the new payloads.

TEST(ObservabilityCodecTest, StatsRequestRoundTrip) {
  // The empty payload (every pre-reset client) means "no reset".
  auto empty = wire::DecodeStatsRequest({});
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty.value().reset);
  wire::StatsRequest req;
  req.reset = true;
  auto decoded = wire::DecodeStatsRequest(wire::EncodeStatsRequest(req));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().reset);
}

TEST(ObservabilityCodecTest, StatsReplyCarriesHistogramsAndSlowQueries) {
  wire::StatsReply reply;
  reply.server.requests = 5;
  reply.server.latency_query.total.count = 3;
  reply.server.latency_query.total.p99_micros = 777;
  reply.server.latency_query.total.buckets[7] = 3;
  reply.server.latency_delete.queue_wait.count = 1;
  wire::SlowQueryEntry slow;
  slow.session_id = 9;
  slow.total_micros = 120000;
  slow.exec_micros = 110000;
  slow.query = "count(Cat);";
  slow.bindings_key = "q=sun";
  slow.counters = "tuples_in=42";
  reply.server.slow_queries.push_back(slow);
  wire::SessionStatsEntry session;
  session.session_id = 4;
  session.client_name = "c";
  session.options = {{"trace", 1}, {"num_shards", 4}};
  reply.sessions.push_back(session);

  auto decoded = wire::DecodeStatsReply(wire::EncodeStatsReply(reply));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().server.latency_query.total.count, 3u);
  EXPECT_EQ(decoded.value().server.latency_query.total.p99_micros, 777u);
  EXPECT_EQ(decoded.value().server.latency_query.total.buckets[7], 3u);
  EXPECT_EQ(decoded.value().server.latency_delete.queue_wait.count, 1u);
  ASSERT_EQ(decoded.value().server.slow_queries.size(), 1u);
  EXPECT_EQ(decoded.value().server.slow_queries[0].query, "count(Cat);");
  EXPECT_EQ(decoded.value().server.slow_queries[0].bindings_key, "q=sun");
  EXPECT_EQ(decoded.value().server.slow_queries[0].total_micros, 120000u);
  ASSERT_EQ(decoded.value().sessions.size(), 1u);
  EXPECT_EQ(decoded.value().sessions[0].options, session.options);
}

TEST(ObservabilityCodecTest, TraceReplyRoundTrip) {
  wire::TraceReply reply;
  reply.query_seq = 12;
  reply.rows = 2;
  reply.names = {"instr", "opcode"};
  reply.cols.push_back(monet::Bat::DenseInts({0, 1}));
  reply.cols.push_back(monet::Bat::DenseStrs({"select.eq", "sum"}));
  auto decoded = wire::DecodeTraceReply(wire::EncodeTraceReply(reply));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().query_seq, 12u);
  EXPECT_EQ(decoded.value().rows, 2u);
  ASSERT_EQ(decoded.value().names.size(), 2u);
  ASSERT_EQ(decoded.value().cols.size(), 2u);
  EXPECT_EQ(decoded.value().cols[0].tail().IntAt(1), 1);
  EXPECT_EQ(decoded.value().cols[1].tail().StrAt(0), "select.eq");
}

TEST(ObservabilityCodecTest, PrometheusRenderingCoversClassesAndStages) {
  wire::StatsReply reply;
  reply.server.requests = 2;
  reply.server.latency_query.total.count = 2;
  reply.server.latency_query.total.sum_micros = 30;
  reply.server.latency_query.total.buckets[5] = 2;
  std::string text = wire::RenderPrometheusText(reply);
  EXPECT_NE(text.find("mirror_requests_total 2"), std::string::npos);
  EXPECT_NE(text.find("mirror_request_latency_microseconds_count"
                      "{class=\"query\",stage=\"total\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("{class=\"delete\",stage=\"queue_wait\"}"),
            std::string::npos);

  // Every counter-table row renders exactly once, under a # TYPE line of
  // its kind; only counters carry the _total suffix.
  auto count = [&text](const std::string& needle) {
    size_t n = 0;
    for (size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  for (const wire::ServerCounter& c : wire::kServerCounters) {
    const bool gauge = c.kind == wire::CounterKind::kGauge;
    const std::string metric =
        std::string("mirror_") + c.name + (gauge ? "" : "_total");
    EXPECT_EQ(count("\n" + metric + " "), 1u) << metric;
    EXPECT_EQ(count("# TYPE " + metric + (gauge ? " gauge\n" : " counter\n")),
              1u)
        << metric;
    if (gauge) {
      EXPECT_EQ(count("mirror_" + std::string(c.name) + "_total"), 0u);
    }
  }
  // The names rendered before the counter table existed keep their
  // spelling.
  for (const char* legacy :
       {"mirror_requests_total", "mirror_errors_total",
        "mirror_requests_shed_total", "mirror_coalesced_requests_total",
        "mirror_sessions_opened_total", "mirror_frames_in_total",
        "mirror_frames_out_total", "mirror_bytes_in_total",
        "mirror_bytes_out_total", "mirror_zone_blocks_skipped_total",
        "mirror_result_cache_hits_total"}) {
    EXPECT_NE(text.find(std::string("\n") + legacy + " "), std::string::npos)
        << legacy;
  }
}

// ---------------------------------------------------------------------------
// TRACE over the wire.

/// Finds a named column in a TRACE reply; null when absent.
const monet::Bat* TraceCol(const wire::TraceReply& t, const std::string& n) {
  for (size_t i = 0; i < t.names.size(); ++i) {
    if (t.names[i] == n) return &t.cols[i];
  }
  return nullptr;
}

TEST(TraceWireTest, ShardedTracedQueryReturnsFullInstructionCoverage) {
  QueryServer server(SharedDb());
  auto [client_end, server_end] = wire::CreateChannelPair();
  server.Serve(std::move(server_end));
  wire::WireClient client(std::move(client_end));
  ASSERT_TRUE(client.Hello("tracer").ok());

  // Before any traced query: full schema, zero rows.
  auto before = client.Trace();
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before.value().rows, 0u);
  EXPECT_GE(before.value().names.size(), 13u);

  auto set = client.Set({{"exec.trace", 1}, {"exec.recycle", 0},
                         {"num_shards", 2}, {"num_threads", 2}});
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  const wire::KnobValues& echo = set.value().options;
  EXPECT_EQ((std::map<std::string, int64_t>(echo.begin(), echo.end())
                 .at("trace")),
            1);

  moa::QueryContext ctx;
  auto result =
      client.Query("count(select[THIS.rating >= 500](Cat));", ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto trace = client.Trace();
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  const wire::TraceReply& t = trace.value();
  ASSERT_GT(t.rows, 0u);
  ASSERT_EQ(t.names.size(), t.cols.size());
  for (const monet::Bat& col : t.cols) {
    ASSERT_EQ(col.size(), t.rows) << "ragged trace table";
  }
  const monet::Bat* instr = TraceCol(t, "instr");
  const monet::Bat* kind = TraceCol(t, "kind");
  const monet::Bat* shard = TraceCol(t, "shard");
  const monet::Bat* thread = TraceCol(t, "thread");
  const monet::Bat* dur = TraceCol(t, "dur_ns");
  ASSERT_NE(instr, nullptr);
  ASSERT_NE(kind, nullptr);
  ASSERT_NE(shard, nullptr);
  ASSERT_NE(thread, nullptr);
  ASSERT_NE(dur, nullptr);

  // Instruction spans must cover a contiguous instruction range exactly
  // once per (instruction, shard) execution site, with shard ids from
  // the session's 2-way sharding only.
  std::set<std::pair<int64_t, int64_t>> sites;
  std::set<int64_t> instrs_seen;
  std::set<int64_t> shards_seen;
  std::set<int64_t> threads_seen;
  int64_t max_instr = -1;
  for (size_t i = 0; i < t.rows; ++i) {
    EXPECT_GE(dur->tail().IntAt(i), 0);
    threads_seen.insert(thread->tail().IntAt(i));
    if (kind->tail().IntAt(i) != 0) continue;  // morsel span
    const int64_t ins = instr->tail().IntAt(i);
    const int64_t sh = shard->tail().IntAt(i);
    ASSERT_GE(ins, 0) << "instruction span without an index";
    EXPECT_TRUE(sites.insert({ins, sh}).second)
        << "duplicate span for instr " << ins << " shard " << sh;
    instrs_seen.insert(ins);
    shards_seen.insert(sh);
    max_instr = std::max(max_instr, ins);
  }
  ASSERT_GE(max_instr, 0);
  // Every instruction of the compiled plan left at least one span: the
  // indexes form the contiguous range [0, max_instr].
  EXPECT_EQ(instrs_seen.size(), static_cast<size_t>(max_instr + 1));
  // 2-way sharding: shard-local work on shards 0 and 1, fan-in global.
  EXPECT_TRUE(shards_seen.count(0) > 0 && shards_seen.count(1) > 0)
      << "sharded execution left no per-shard spans";
  for (int64_t sh : shards_seen) {
    EXPECT_TRUE(sh == -1 || sh == 0 || sh == 1) << "phantom shard " << sh;
  }
  EXPECT_GE(threads_seen.size(), 1u);

  // The trace sticks until the next traced query replaces it.
  auto again = client.Trace();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().rows, t.rows);
  EXPECT_EQ(again.value().query_seq, t.query_seq);
  EXPECT_TRUE(client.Close().ok());
}

TEST(TraceWireTest, UntracedSessionKeepsPreviousTrace) {
  QueryServer server(SharedDb());
  auto [client_end, server_end] = wire::CreateChannelPair();
  server.Serve(std::move(server_end));
  wire::WireClient client(std::move(client_end));
  ASSERT_TRUE(client.Hello("toggler").ok());
  ASSERT_TRUE(client.Set({{"exec.trace", 1}, {"exec.recycle", 0}}).ok());
  moa::QueryContext ctx;
  ASSERT_TRUE(client.Query("count(Cat);", ctx).ok());
  auto first = client.Trace();
  ASSERT_TRUE(first.ok());
  ASSERT_GT(first.value().rows, 0u);

  // Knob off: the stored trace survives later untraced queries.
  ASSERT_TRUE(client.Set({{"exec.trace", 0}}).ok());
  ASSERT_TRUE(client.Query("count(select[THIS.year >= 1990](Cat));", ctx)
                  .ok());
  auto after = client.Trace();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().rows, first.value().rows);
  EXPECT_EQ(after.value().query_seq, first.value().query_seq);
  EXPECT_TRUE(client.Close().ok());
}

// ---------------------------------------------------------------------------
// Latency histograms and STATS reset over the wire.

TEST(LatencyWireTest, QueryLatencyShowsUpInStats) {
  QueryServer server(SharedDb());
  auto [client_end, server_end] = wire::CreateChannelPair();
  server.Serve(std::move(server_end));
  wire::WireClient client(std::move(client_end));
  ASSERT_TRUE(client.Hello("latency").ok());
  // Recycling off: inline cache hits record near-zero latencies that
  // would drag p50 to 0 and make the assertions below vacuous.
  ASSERT_TRUE(client.Set({{"exec.recycle", 0}}).ok());
  moa::QueryContext ctx;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        client.Query("count(select[THIS.rating >= 500](Cat));", ctx).ok());
  }
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const wire::RequestClassLatency& q = stats.value().server.latency_query;
  EXPECT_GE(q.total.count, 5u);
  EXPECT_GT(q.total.sum_micros, 0u);
  EXPECT_GT(q.total.p50_micros, 0u);
  EXPECT_GT(q.total.p99_micros, 0u);
  EXPECT_GE(q.total.p99_micros, q.total.p50_micros);
  EXPECT_GE(q.exec.count, q.total.count - 1);
  // No appends ran: that class stays empty.
  EXPECT_EQ(stats.value().server.latency_append.total.count, 0u);

  // Reset: the reply carries pre-reset numbers, the next snapshot is
  // a fresh epoch.
  auto pre = client.Stats(/*reset=*/true);
  ASSERT_TRUE(pre.ok());
  EXPECT_GE(pre.value().server.latency_query.total.count, 5u);
  auto post = client.Stats();
  ASSERT_TRUE(post.ok());
  // The reset STATS itself is inline (never queued), so the query-class
  // histograms stay at zero until the next query executes.
  EXPECT_EQ(post.value().server.latency_query.total.count, 0u);
  EXPECT_EQ(post.value().server.latency_query.total.p99_micros, 0u);
  EXPECT_TRUE(client.Close().ok());
}

// ---------------------------------------------------------------------------
// Slow-query ring.

TEST(SlowQueryTest, RingCapturesAndEvictsSlowQueries) {
  QueryServer::Options options;
  options.slow_query_ms = 1;   // a ranking query takes well over 1 ms
  options.slow_query_ring = 2;
  QueryServer server(SharedDb(), options);
  auto [client_end, server_end] = wire::CreateChannelPair();
  server.Serve(std::move(server_end));
  wire::WireClient client(std::move(client_end));
  ASSERT_TRUE(client.Hello("slow").ok());
  // Recycling off so every send re-executes (a cache hit would be fast
  // and never trip the threshold).
  ASSERT_TRUE(client.Set({{"exec.recycle", 0}, {"num_threads", 1}}).ok());

  const char* kRank =
      "map[sum(THIS)](map[getBL(THIS.doc, q, stats)](Lib));";
  const char* kTerms[] = {"sun", "sea", "sky", "rock"};
  std::vector<std::string> sent_keys;
  for (const char* term : kTerms) {
    moa::QueryContext ctx;
    ctx.Bind("q", {{term, 1.0}});
    sent_keys.push_back(ctx.CacheKey());
    ASSERT_TRUE(client.Query(kRank, ctx).ok());
  }
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  const auto& slow = stats.value().server.slow_queries;
  ASSERT_GE(slow.size(), 1u) << "no query crossed the 1 ms threshold";
  ASSERT_LE(slow.size(), 2u) << "ring exceeded its capacity";
  for (const wire::SlowQueryEntry& e : slow) {
    EXPECT_EQ(e.session_id, client.session_id());
    EXPECT_GE(e.total_micros, 1000u);
    EXPECT_GT(e.exec_micros, 0u);
    EXPECT_NE(e.query.find("getBL"), std::string::npos);
    EXPECT_NE(e.counters.find("tuples_in="), std::string::npos);
    bool known = false;
    for (const std::string& k : sent_keys) known = known || k == e.bindings_key;
    EXPECT_TRUE(known) << "unexpected bindings key " << e.bindings_key;
  }
  // If all four were slow, the ring kept the newest two (newest last).
  if (slow.size() == 2 && slow[0].bindings_key != slow[1].bindings_key) {
    EXPECT_NE(slow[1].bindings_key, sent_keys[0]);
  }
  // STATS reset drains the ring.
  ASSERT_TRUE(client.Stats(/*reset=*/true).ok());
  auto post = client.Stats();
  ASSERT_TRUE(post.ok());
  EXPECT_TRUE(post.value().server.slow_queries.empty());
  EXPECT_TRUE(client.Close().ok());
}

}  // namespace
}  // namespace mirror::daemon
