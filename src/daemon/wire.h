#ifndef MIRROR_DAEMON_WIRE_H_
#define MIRROR_DAEMON_WIRE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/status.h"
#include "moa/naive_eval.h"
#include "moa/query_context.h"
#include "monet/bat.h"
#include "monet/column.h"

namespace mirror::daemon::wire {

// ---------------------------------------------------------------------------
// Transport: a blocking, bidirectional byte stream. The query server and
// the wire client are written against this interface only, so the same
// request loop serves the deterministic in-process ByteChannel pair used
// by tests and the POSIX TCP listener used by real deployments.

/// Outcome of one non-blocking I/O attempt (ReadSome/WriteSome below).
enum class IoStatus : uint8_t {
  kOk = 0,      // made progress; `bytes` transferred
  kWouldBlock,  // no progress possible right now; poll and retry
  kEof,         // peer closed (reads only)
  kError,       // stream broken; the connection is dead
};

struct IoResult {
  IoStatus status = IoStatus::kError;
  size_t bytes = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Blocking read of up to `n` bytes into `buf`. Returns the number of
  /// bytes read; 0 means the peer closed cleanly (EOF). Errors (reset,
  /// local Close() during a blocked read) come back as a Status.
  virtual base::Result<size_t> Read(uint8_t* buf, size_t n) = 0;

  /// Writes all `n` bytes or fails.
  virtual base::Status Write(const uint8_t* buf, size_t n) = 0;

  /// Shuts the stream down in both directions. Safe to call from another
  /// thread while a Read() blocks (the read unblocks with EOF), and safe
  /// to call twice.
  virtual void Close() = 0;

  // Non-blocking extension, used by the server's readiness loop. A
  // transport that supports it returns a pollable fd from PollFd();
  // the default implementation (-1, kError) keeps third-party blocking
  // transports source-compatible.

  /// A file descriptor whose readability tracks pending inbound bytes
  /// (and, for sockets, whose writability tracks outbound space). -1 if
  /// the transport cannot be polled.
  virtual int PollFd() const { return -1; }

  /// Reads up to `n` bytes without blocking.
  virtual IoResult ReadSome(uint8_t* buf, size_t n) {
    (void)buf;
    (void)n;
    return IoResult{IoStatus::kError, 0};
  }

  /// Writes up to `n` bytes without blocking.
  virtual IoResult WriteSome(const uint8_t* buf, size_t n) {
    (void)buf;
    (void)n;
    return IoResult{IoStatus::kError, 0};
  }
};

/// An in-process duplex pipe: two Transport endpoints connected back to
/// back through a pair of byte queues. Deterministic (no sockets, no
/// ports) — the transport under the daemon tests and benchmarks. Either
/// endpoint may outlive the other; closing one side EOFs the peer.
std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
CreateChannelPair();

/// POSIX TCP client connection to `host:port`.
base::Result<std::unique_ptr<Transport>> TcpConnect(const std::string& host,
                                                    int port);

/// POSIX TCP listening socket (loopback by default). Port 0 binds an
/// ephemeral port; `port()` reports the bound one.
class TcpListener {
 public:
  virtual ~TcpListener() = default;

  /// Blocks until a client connects; Close() unblocks with an error.
  virtual base::Result<std::unique_ptr<Transport>> Accept() = 0;

  /// Stops listening; a blocked Accept() fails.
  virtual void Close() = 0;

  virtual int port() const = 0;
};

base::Result<std::unique_ptr<TcpListener>> TcpListen(int port);

// ---------------------------------------------------------------------------
// Frames. Every message on the wire is one length-prefixed frame:
//
//   +------+----------------+-----------------------+
//   | type | payload length |   payload bytes       |
//   | u8   | u32 LE         |   (length bytes)      |
//   +------+----------------+-----------------------+
//
// Requests (client -> server): HELLO opens the session, QUERY runs one
// Moa query, SET overrides per-session ExecOptions, STATS snapshots the
// server counters, CLOSE ends the session. Replies (server -> client):
// each request type has an ack/result frame; failures of any request
// produce an ERROR frame carrying the Status, and the connection stays
// usable (only transport-level corruption — an unreadable header or a
// truncated payload — drops the connection).

enum class FrameType : uint8_t {
  // Requests.
  kHello = 0x01,
  kQuery = 0x02,
  kSet = 0x03,
  kStats = 0x04,
  kClose = 0x05,
  kAppend = 0x06,
  kDelete = 0x07,
  /// TRACE fetches the session's last traced query as a BAT table (one
  /// span per executed MIL instruction / morsel; see monet/trace.h).
  /// Empty unless the session ran a query with `SET exec.trace 1`.
  kTrace = 0x08,
  // Replies.
  kHelloOk = 0x11,
  kResult = 0x12,
  kSetOk = 0x13,
  kStatsResult = 0x14,
  kCloseOk = 0x15,
  kAppendOk = 0x16,
  kDeleteOk = 0x17,
  /// Streaming result delivery: a large result's encoded ResultReply
  /// payload is sliced into kResultChunk frames (raw byte ranges, in
  /// order) terminated by one kResultEnd frame carrying the total byte
  /// count and chunk count. Small results still arrive as one kResult.
  kResultChunk = 0x18,
  kResultEnd = 0x19,
  kTraceResult = 0x1a,
  kError = 0x1f,
};

/// Frames larger than this are rejected as malformed before any
/// allocation happens (a corrupted length prefix must not look like a
/// 4 GB request).
constexpr uint32_t kMaxFramePayload = 1u << 28;  // 256 MiB

/// Protocol revision, negotiated in HELLO. Revision 2 carries SET_OK and
/// the STATS session entries as knob lists; revision 3 ships columns in
/// bat_io's bit-packed encoding.
constexpr uint32_t kProtocolVersion = 3;

struct Frame {
  FrameType type = FrameType::kError;
  std::vector<uint8_t> payload;
};

/// True for type bytes that name a frame in the grammar above (the
/// server's incremental parser rejects anything else before trusting the
/// length field that follows).
bool IsKnownFrameType(uint8_t t);

/// Writes one frame (header + payload) to the transport.
base::Status WriteFrame(Transport* t, FrameType type,
                        const std::vector<uint8_t>& payload);

/// Reads one frame. Clean EOF before the first header byte returns
/// NotFound (the request loop's normal end); EOF mid-frame returns
/// IoError ("truncated frame"), an oversized or unknown-type header
/// returns ParseError.
base::Result<Frame> ReadFrame(Transport* t);

// ---------------------------------------------------------------------------
// Payload codecs. Primitive encodings: u8/u32/u64/i64 little-endian,
// f64 as raw IEEE bits, strings as u32 length + bytes. Result tables and
// APPEND/DELETE columns use monet/bat_io.h (representation-exact,
// bit-packed BAT marshalling); the server decodes a request column only if
// it unpacks to at most kMaxFramePayload bytes, so no frame makes it
// allocate more than the largest frame it accepts.

struct HelloRequest {
  std::string client_name;
  uint32_t protocol_version = kProtocolVersion;
};

struct HelloReply {
  uint64_t session_id = 0;
  std::string server_name;
  uint32_t protocol_version = kProtocolVersion;
};

struct QueryRequest {
  std::string text;              // Moa surface syntax
  moa::QueryContext bindings;    // #wsum term bindings
};

/// APPEND: durably appends typed values to one named BAT's insert tail.
/// The server WALs and fsyncs the record before kAppendOk returns, so an
/// acknowledged append survives any crash-kill.
struct AppendRequest {
  std::string bat_name;
  monet::Column values = monet::Column::MakeVoid(0, 0);
};

struct AppendReply {
  uint64_t lsn = 0;           // WAL position covering this write
  uint64_t visible_rows = 0;  // BAT rows visible after the append
};

/// DELETE: durably marks rows (by oid) deleted in one named BAT.
struct DeleteRequest {
  std::string bat_name;
  std::vector<monet::Oid> oids;
};

struct DeleteReply {
  uint64_t lsn = 0;
  uint64_t visible_rows = 0;
  uint64_t deleted = 0;  // rows newly deleted (idempotent re-deletes: 0)
};

/// Per-session execution knobs as (key, value) pairs; booleans are 0/1.
using KnobValues = std::vector<std::pair<std::string, int64_t>>;

/// SET: integer-valued per-session execution overrides, applied to the
/// session's ExecOptions. The server's knob table (daemon/query_server.cc)
/// defines the keys and their ranges; every key also accepts an "exec."
/// prefix, and booleans turn on for any nonzero value. A SET frame is
/// validated as a whole before any key applies — one bad key leaves the
/// session's options untouched.
struct SetRequest {
  KnobValues options;
};

/// SET ack: every knob's effective value for the session, in knob-table
/// order and encoded exactly like a SetRequest, so clients (and the
/// isolation tests) observe what their session runs with.
using SetReply = SetRequest;

/// A query result: a serialized result table (element oid -> value) or a
/// scalar, exactly mirroring moa::EvalOutput.
struct ResultReply {
  bool is_scalar = false;
  monet::Value scalar;
  monet::BatPtr bat;  // set iff !is_scalar
};

/// TRACE reply: the session's last traced query as a table of aligned
/// void-headed BATs (the columns of monet::TraceToBats, one row per
/// recorded span). `query_seq` is the session's request ordinal of the
/// traced query, so a client polling TRACE can tell a fresh trace from a
/// re-fetch. An untraced session gets rows == 0 with the full schema.
struct TraceReply {
  uint64_t query_seq = 0;
  uint64_t rows = 0;
  std::vector<std::string> names;  // column names, schema order
  std::vector<monet::Bat> cols;    // aligned with `names`
};

/// STATS request options. An empty kStats payload (every pre-existing
/// client) decodes as `reset == false`; the reset form zeroes the
/// server's latency histograms, the slow-query ring and the process-wide
/// kernel counters AFTER snapshotting, so the reply carries the
/// pre-reset numbers (read-and-clear).
struct StatsRequest {
  bool reset = false;
};

/// One fixed-layout latency histogram: 64 buckets with upper bounds (in
/// microseconds) growing by alternating x2 / x1.5 steps (~sqrt(2) per
/// bucket: 0, 1, 2, 3, 4, 6, 8, 12, ... — see HistogramBucketBound),
/// bucket 63 catching everything beyond. Percentiles are computed from
/// the buckets by linear interpolation, server-side at snapshot time.
struct HistogramSummary {
  uint64_t count = 0;
  uint64_t sum_micros = 0;
  uint64_t max_micros = 0;
  uint64_t p50_micros = 0;
  uint64_t p90_micros = 0;
  uint64_t p99_micros = 0;
  uint64_t buckets[64] = {};
};

/// Number of buckets in every wire histogram.
constexpr size_t kHistogramBuckets = 64;

/// Upper bound (inclusive, microseconds) of histogram bucket `i`;
/// UINT64_MAX for the overflow bucket 63.
uint64_t HistogramBucketBound(size_t i);

/// The smallest bucket index whose bound holds `micros` (the bucket
/// LatencyHistogram::Record increments).
size_t HistogramBucketIndex(uint64_t micros);

/// Quantile `q` in [0,1] from the bucket counts, linearly interpolated
/// within the winning bucket; 0 when the histogram is empty.
uint64_t HistogramPercentile(const HistogramSummary& h, double q);

/// Queue-wait / execution / end-to-end latency for one request class.
struct RequestClassLatency {
  HistogramSummary queue_wait;  // admission -> worker dequeue
  HistogramSummary exec;        // worker dequeue -> result ready
  HistogramSummary total;       // admission -> result ready
};

/// One slow-query log entry (queries over the server's slow_query_ms
/// threshold, newest-last ring of Options::slow_query_ring entries).
struct SlowQueryEntry {
  uint64_t session_id = 0;
  uint64_t total_micros = 0;  // admission -> result ready
  uint64_t exec_micros = 0;   // engine execution only
  std::string query;          // normalized query text
  std::string bindings_key;   // canonical binding fingerprint
  std::string counters;       // kernel-counter delta summary
};

/// Kind of a STATS counter: a counter only grows (between restarts or,
/// for the kernel group, `STATS reset=1`); a gauge is a level or
/// high-water mark read at STATS time.
enum class CounterKind : uint8_t { kCounter, kGauge };

/// The subsystem a STATS counter reports on (one client printout line
/// each, in this order).
enum class CounterGroup : uint8_t { kKernel, kServing, kDurability, kRecycler };
inline constexpr const char* kCounterGroupNames[] = {"kernel", "serving",
                                                     "durability", "recycler"};

/// The server-wide STATS counters, one row each: X(name, kind, group).
/// Row order is the wire order of the u64 counter prefix of STATS_RESULT,
/// so a new row changes the layout (bump kProtocolVersion with it). The
/// table generates the ServerWireStats fields, that prefix's encoder and
/// decoder, the Prometheus lines and the client printout; a new counter
/// is one row here plus its source line in QueryServer::stats() (or its
/// increment in the serving loop).
///
/// Sources: serving rows are the server's own wire accounting (every
/// frame in either direction counted, its marshalled bytes accumulated)
/// and overload control; kernel rows come from the monet profiler
/// snapshot; durability rows from MirrorDb::recovery_stats (plus the
/// reload generation); recycler rows from the MirrorDb recycler.
#define MIRROR_SERVER_COUNTERS(X)                                             \
  X(frames_in, kCounter, kServing)                                            \
  X(frames_out, kCounter, kServing)                                           \
  X(bytes_in, kCounter, kServing)                                             \
  X(bytes_out, kCounter, kServing)                                            \
  X(requests, kCounter, kServing) /* QUERY frames served */                   \
  X(errors, kCounter, kServing)   /* ERROR frames sent */                     \
  X(coalesced_requests, kCounter, kServing) /* joined in-flight twin */       \
  X(sessions_opened, kCounter, kServing)                                      \
  X(sessions_closed, kCounter, kServing)                                      \
  X(load_generation, kGauge, kDurability) /* MirrorDb reloads seen */         \
  /* Pruning: zone-map blocks skipped, morsels and whole shards dropped       \
     by the top-k threshold, probe partitions for partition-wise joins. */    \
  X(zone_blocks_skipped, kCounter, kKernel)                                   \
  X(topk_morsels_pruned, kCounter, kKernel)                                   \
  X(topk_shards_pruned, kCounter, kKernel)                                    \
  X(probe_partitions, kCounter, kKernel)                                      \
  X(wal_appends, kCounter, kDurability)                                       \
  X(wal_replayed_records, kCounter, kDurability)                              \
  X(wal_truncated_bytes, kCounter, kDurability)                               \
  X(recovery_lazy_loads, kCounter, kDurability)                               \
  X(recovery_pending, kGauge, kDurability) /* 1 while fragments wait */       \
  X(requests_shed, kCounter, kServing) /* admissions refused */               \
  X(queue_depth_high_water, kGauge, kServing)                                 \
  X(active_workers, kGauge, kServing) /* executing at STATS time */           \
  X(result_chunks_streamed, kCounter, kServing) /* kResultChunk frames */     \
  X(slow_client_disconnects, kCounter, kServing) /* stalled outbound */       \
  X(peak_query_bytes, kGauge, kKernel) /* largest query charge seen */        \
  /* Encoded-result replays and misses, inserts refused by the cost x         \
     frequency admission policy, entries displaced for room, the bytes        \
     held, and candidate-list reuse (exact / subsuming). */                   \
  X(result_cache_hits, kCounter, kRecycler)                                   \
  X(result_cache_misses, kCounter, kRecycler)                                 \
  X(recycler_admissions_rejected, kCounter, kRecycler)                        \
  X(recycler_evictions, kCounter, kRecycler)                                  \
  X(recycler_bytes_held, kGauge, kRecycler)                                   \
  X(candidate_cache_hits, kCounter, kRecycler)                                \
  X(candidate_subsumption_hits, kCounter, kRecycler)

/// The STATS snapshot: one field per MIRROR_SERVER_COUNTERS row, then the
/// server-side latency histograms per request class (queries, appends,
/// deletes) and the slow-query ring (empty unless the server runs with
/// slow_query_ms > 0). Both are encoded after the per-session entries so
/// pre-histogram decoders see them as tolerated trailing bytes.
struct ServerWireStats {
#define MIRROR_STATS_FIELD(name, kind, group) uint64_t name = 0;
  MIRROR_SERVER_COUNTERS(MIRROR_STATS_FIELD)
#undef MIRROR_STATS_FIELD
  RequestClassLatency latency_query;
  RequestClassLatency latency_append;
  RequestClassLatency latency_delete;
  std::vector<SlowQueryEntry> slow_queries;
};

/// One MIRROR_SERVER_COUNTERS row, for code that walks every counter.
struct ServerCounter {
  const char* name;
  CounterKind kind;
  CounterGroup group;
  uint64_t ServerWireStats::*field;
};

inline constexpr ServerCounter kServerCounters[] = {
#define MIRROR_STATS_ROW(name, kind, group) \
  {#name, CounterKind::kind, CounterGroup::group, &ServerWireStats::name},
    MIRROR_SERVER_COUNTERS(MIRROR_STATS_ROW)
#undef MIRROR_STATS_ROW
};

/// Per-session slice of the STATS reply.
struct SessionStatsEntry {
  uint64_t session_id = 0;
  std::string client_name;
  uint64_t requests = 0;
  uint64_t errors = 0;
  uint64_t plan_cache_size = 0;
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_lookups = 0;
  KnobValues options;  // the session's effective knobs, as in SET_OK
};

struct StatsReply {
  ServerWireStats server;
  std::vector<SessionStatsEntry> sessions;
};

// Encoders produce a frame payload; decoders parse one and fail with
// ParseError on any malformation (short buffer, trailing garbage is
// tolerated for forward compatibility).
std::vector<uint8_t> EncodeHelloRequest(const HelloRequest& m);
base::Result<HelloRequest> DecodeHelloRequest(const std::vector<uint8_t>& p);

std::vector<uint8_t> EncodeHelloReply(const HelloReply& m);
base::Result<HelloReply> DecodeHelloReply(const std::vector<uint8_t>& p);

std::vector<uint8_t> EncodeQueryRequest(const QueryRequest& m);
base::Result<QueryRequest> DecodeQueryRequest(const std::vector<uint8_t>& p);

// SET and SET_OK (a SetReply) share one payload layout.
std::vector<uint8_t> EncodeSetRequest(const SetRequest& m);
base::Result<SetRequest> DecodeSetRequest(const std::vector<uint8_t>& p);

std::vector<uint8_t> EncodeAppendRequest(const AppendRequest& m);
base::Result<AppendRequest> DecodeAppendRequest(const std::vector<uint8_t>& p);

std::vector<uint8_t> EncodeAppendReply(const AppendReply& m);
base::Result<AppendReply> DecodeAppendReply(const std::vector<uint8_t>& p);

std::vector<uint8_t> EncodeDeleteRequest(const DeleteRequest& m);
base::Result<DeleteRequest> DecodeDeleteRequest(const std::vector<uint8_t>& p);

std::vector<uint8_t> EncodeDeleteReply(const DeleteReply& m);
base::Result<DeleteReply> DecodeDeleteReply(const std::vector<uint8_t>& p);

std::vector<uint8_t> EncodeResultReply(const moa::EvalOutput& out);
base::Result<ResultReply> DecodeResultReply(const std::vector<uint8_t>& p);

/// The final frame of a streamed result: byte/chunk totals the client
/// checks after reassembling the kResultChunk slices.
struct ResultEnd {
  uint64_t total_bytes = 0;
  uint32_t chunks = 0;
};

std::vector<uint8_t> EncodeResultEnd(const ResultEnd& m);
base::Result<ResultEnd> DecodeResultEnd(const std::vector<uint8_t>& p);

std::vector<uint8_t> EncodeError(const base::Status& status);
/// ERROR with a retry-after hint (milliseconds), used by kOverloaded
/// sheds. The hint rides as an optional trailing field: old decoders
/// tolerate it as trailing garbage.
std::vector<uint8_t> EncodeError(const base::Status& status,
                                 uint32_t retry_after_ms);
/// Returns the carried (always non-OK) Status; an undecodable payload
/// yields ParseError.
base::Status DecodeError(const std::vector<uint8_t>& p);
/// Like DecodeError, additionally surfacing the retry-after hint
/// (0 when the frame carries none).
base::Status DecodeErrorDetail(const std::vector<uint8_t>& p,
                               uint32_t* retry_after_ms);

std::vector<uint8_t> EncodeStatsRequest(const StatsRequest& m);
/// An empty payload (pre-reset clients) decodes as reset == false.
base::Result<StatsRequest> DecodeStatsRequest(const std::vector<uint8_t>& p);

std::vector<uint8_t> EncodeStatsReply(const StatsReply& m);
base::Result<StatsReply> DecodeStatsReply(const std::vector<uint8_t>& p);

std::vector<uint8_t> EncodeTraceReply(const TraceReply& m);
base::Result<TraceReply> DecodeTraceReply(const std::vector<uint8_t>& p);

/// Renders a STATS snapshot as Prometheus text-exposition lines: every
/// MIRROR_SERVER_COUNTERS row (`mirror_<name>_total` for counters,
/// `mirror_<name>` for gauges), then one `*_latency_microseconds`
/// histogram per request class (cumulative `le` buckets in microsecond
/// bounds).
std::string RenderPrometheusText(const StatsReply& m);

}  // namespace mirror::daemon::wire

namespace mirror::monet {
struct NetFaultInjector;  // monet/fault_injector.h
}

namespace mirror::daemon::wire {

/// Wraps a transport with a client-side network fault injector (the
/// chaos harness): the injector can truncate writes into short/partial
/// sends, disconnect mid-frame, and delay reads to emulate a slow
/// consumer. The injector must outlive the returned transport.
std::unique_ptr<Transport> WrapChaos(std::unique_ptr<Transport> inner,
                                     monet::NetFaultInjector* injector);

}  // namespace mirror::daemon::wire

#endif  // MIRROR_DAEMON_WIRE_H_
