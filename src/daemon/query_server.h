#ifndef MIRROR_DAEMON_QUERY_SERVER_H_
#define MIRROR_DAEMON_QUERY_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "daemon/latency_histogram.h"
#include "daemon/wire.h"
#include "mirror/mirror_db.h"
#include "monet/trace.h"

namespace mirror::daemon {

/// One connected client's server-side state: the session-scoped
/// ExecutionContext (register file + plan cache, registered with MirrorDb
/// so Load invalidates it; it owns no threads — every session's queries
/// share the engine's one process-wide worker pool), the session's
/// effective QueryOptions (the server's base options plus SET
/// overrides), and request counters.
///
/// A session belongs to exactly one connection; the protocol is strict
/// request/reply per connection, so at most one worker executes queries
/// on it at a time. The mutex guards the fields the STATS command reads
/// from other connections.
class ServerSession {
 public:
  ServerSession(uint64_t id, std::string client_name,
                db::QueryOptions base_options)
      : id_(id),
        client_name_(std::move(client_name)),
        options_(base_options) {}

  uint64_t id() const { return id_; }
  const std::string& client_name() const { return client_name_; }
  monet::mil::ExecutionContext* exec_context() { return &exec_; }

  /// The options the next query runs with (copied under the lock: the
  /// owning connection may be applying a SET concurrently with STATS).
  db::QueryOptions options() const {
    std::lock_guard<std::mutex> lock(mu_);
    return options_;
  }

  /// Checks a SET override without applying it: InvalidArgument for
  /// unknown keys or out-of-range values.
  static base::Status ValidateOverride(const std::string& key,
                                       int64_t value);

  /// Validates and applies one SET override.
  base::Status ApplyOverride(const std::string& key, int64_t value);

  void CountRequest() { requests_.fetch_add(1, std::memory_order_relaxed); }
  void CountError() { errors_.fetch_add(1, std::memory_order_relaxed); }

  /// The session's STATS slice (options echo + counters + plan cache).
  wire::SessionStatsEntry StatsEntry() const;

  /// The per-session span sink handed to the engine while exec.trace is
  /// on. Safe without a lock during execution: the protocol is strict
  /// request/reply, so one query at a time runs on a session.
  monet::QueryTrace* trace_sink() { return &trace_; }

  /// Publishes / fetches the marshalled trace table of the session's
  /// most recent traced query (the TRACE frame's reply). The worker
  /// publishes, the poll loop fetches — hence the shared_ptr handoff.
  void StoreTrace(std::shared_ptr<const wire::TraceReply> trace);
  std::shared_ptr<const wire::TraceReply> LastTrace() const;

 private:
  const uint64_t id_;
  const std::string client_name_;
  mutable std::mutex mu_;
  db::QueryOptions options_;
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> errors_{0};
  monet::mil::ExecutionContext exec_;
  monet::QueryTrace trace_;
  std::shared_ptr<const wire::TraceReply> last_trace_;  // guarded by mu_
};

/// Owns the live sessions of a QueryServer: allocates ids, registers
/// every session's ExecutionContext with the MirrorDb (Load invalidates
/// all live plan caches), and snapshots per-session statistics. All
/// methods are thread-safe; Session pointers stay valid while the
/// shared_ptr is held even after Close().
class SessionManager {
 public:
  explicit SessionManager(const db::MirrorDb* db) : db_(db) {}
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  std::shared_ptr<ServerSession> Open(std::string client_name,
                                      const db::QueryOptions& base_options);

  /// Unregisters from the database and drops the manager's reference.
  void Close(uint64_t session_id);

  std::vector<wire::SessionStatsEntry> Snapshot() const;

  size_t open_count() const;

 private:
  const db::MirrorDb* db_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::map<uint64_t, std::shared_ptr<ServerSession>> sessions_;
};

/// The query-serving daemon: an event-driven connection layer over the
/// framed wire protocol (daemon/wire.h), all sessions executing against
/// one shared (optionally sharded) MirrorDb catalog.
///
/// Threading model: one poll(2) readiness loop owns every connection —
/// incremental frame reassembly on the inbound side, bounded buffered
/// writes on the outbound side — and feeds a bounded server-wide request
/// queue drained by a fixed worker pool. QUERY/APPEND/DELETE execute on
/// workers; HELLO/SET/STATS/CLOSE are answered inline by the loop. A
/// request arriving while the queue is full is shed with a typed
/// kOverloaded ERROR carrying a retry-after hint instead of being
/// accepted and starved. Within a connection requests stay strictly
/// sequential (the loop stops parsing while a request is in flight), so
/// each session's ExecutionContext sees one query at a time while
/// different sessions execute genuinely concurrently. Intra-query
/// parallelism runs on the engine's one process-wide worker pool
/// (monet::SharedWorkerPool), so the engine's threads are these workers
/// plus that pool — sized by the largest `exec.num_threads` any session
/// sets, whatever the connection count.
///
/// Identical queries (same normalized text + bindings) submitted by
/// different sessions while one is already executing are coalesced: the
/// first becomes the leader, followers wait and share the leader's
/// marshalled result bytes (results are engine-config-invariant, so a
/// leader with different SET overrides still returns bit-identical
/// bytes). A follower always has its leader already running on another
/// worker, so waiting can never deadlock the pool.
///
/// Large results stream as a sequence of RESULT_CHUNK frames closed by
/// RESULT_END — the loop slices byte ranges out of the single encoded
/// reply as the client drains its outbound buffer, so a slow reader
/// holds O(outbound_buffer_limit) server memory, not O(result). Clients
/// that stop reading past the buffer cap or stall a write past the
/// timeout are disconnected and counted.
///
/// Shutdown() stops intake, drains in-flight requests (their replies are
/// still flushed), then closes every connection and joins the loop and
/// the workers.
class QueryServer {
 public:
  struct Options {
    std::string server_name = "mirrord";
    /// Base QueryOptions every new session starts from; SET overrides
    /// the exec knobs per session.
    db::QueryOptions query;
    /// Share one execution + one marshalled result between identical
    /// in-flight QUERY requests from different sessions.
    bool coalesce_queries = true;
    /// Fixed pool of threads executing QUERY/APPEND/DELETE requests.
    /// 0 = auto: max(2, min(8, hardware_concurrency)).
    int worker_threads = 0;
    /// Bound on the server-wide queue of admitted-but-not-yet-executing
    /// requests. A request arriving while the queue is full is shed with
    /// a typed kOverloaded ERROR + retry_after_ms instead of queuing
    /// without bound.
    size_t request_queue_limit = 256;
    /// Per-connection cap on buffered outbound bytes. A client that
    /// lets replies pile past this is disconnected (slow-client policy)
    /// and counted in slow_client_disconnects.
    size_t outbound_buffer_limit = 8u << 20;
    /// A connection with pending outbound bytes that makes no write
    /// progress for this long is disconnected as a slow client.
    int64_t write_stall_timeout_ms = 5000;
    /// Encoded results larger than this stream as RESULT_CHUNK frames of
    /// this size, terminated by RESULT_END; smaller results keep the
    /// single RESULT frame. Clamped to outbound_buffer_limit / 4.
    size_t result_chunk_bytes = 1u << 20;
    /// Encoded results larger than this fail the query with a typed
    /// kResourceExhausted ERROR instead of being streamed.
    uint64_t max_result_bytes = 1ull << 30;
    /// Retry-after hint (milliseconds) carried on kOverloaded sheds.
    uint32_t retry_after_ms = 25;
    /// Queries whose end-to-end time (admission to result ready) exceeds
    /// this many milliseconds land in the slow-query ring (normalized
    /// text, bindings key, kernel-counter deltas), drained over STATS.
    /// 0 disables the log entirely.
    uint64_t slow_query_ms = 0;
    /// Capacity of the slow-query ring; the oldest entry is evicted
    /// once it fills (newest-last order in the STATS reply).
    size_t slow_query_ring = 32;
  };

  /// Read-only server: queries only, APPEND/DELETE frames are rejected
  /// with an ERROR.
  explicit QueryServer(const db::MirrorDb* db);
  QueryServer(const db::MirrorDb* db, Options options);
  /// Mutable server: additionally serves the durable APPEND/DELETE write
  /// path (WAL-backed when the database has one attached).
  explicit QueryServer(db::MirrorDb* db);
  QueryServer(db::MirrorDb* db, Options options);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Adopts a server-side transport endpoint (e.g. one half of
  /// wire::CreateChannelPair()) and registers it with the event loop.
  /// The transport must support readiness polling (PollFd() >= 0). No-op
  /// (transport closed) after Shutdown().
  void Serve(std::unique_ptr<wire::Transport> conn);

  /// Starts a loopback TCP listener (port 0 = ephemeral) and an accept
  /// loop registering every connection. Returns the bound port.
  base::Result<int> ListenTcp(int port);

  /// Stops intake, waits up to `drain_millis` for in-flight requests to
  /// finish and their replies to flush, then closes all connections and
  /// joins the loop and worker threads. Idempotent.
  void Shutdown(int64_t drain_millis = 10000);

  wire::ServerWireStats stats() const;
  std::vector<wire::SessionStatsEntry> session_stats() const {
    return sessions_.Snapshot();
  }
  size_t open_session_count() const { return sessions_.open_count(); }
  size_t active_connections() const;

 private:
  /// One registered connection, owned by the event loop (all fields
  /// guarded by loop_mu_). `busy` is set while a queued/executing
  /// request or a draining result stream owns the reply slot — parsing
  /// pauses so requests within a connection stay strictly ordered.
  struct Conn {
    uint64_t id = 0;
    std::unique_ptr<wire::Transport> transport;
    int fd = -1;
    std::shared_ptr<ServerSession> session;
    /// Inbound partial-frame reassembly buffer.
    std::vector<uint8_t> in_buf;
    /// Outbound frames not yet (fully) written; front frame is sent
    /// starting at out_front_off. out_bytes is the buffered total.
    std::deque<std::vector<uint8_t>> out;
    size_t out_front_off = 0;
    size_t out_bytes = 0;
    /// In-progress chunked result stream: the single encoded RESULT
    /// payload being sliced into kResultChunk frames as out drains.
    std::shared_ptr<const std::vector<uint8_t>> stream_payload;
    size_t stream_off = 0;
    uint32_t stream_chunks = 0;
    bool busy = false;
    bool close_after_flush = false;
    bool eof = false;
    bool dead = false;
    std::chrono::steady_clock::time_point last_write_progress{};
  };

  /// One admitted request waiting for (or held by) a worker.
  struct WorkItem {
    uint64_t conn_id = 0;
    wire::FrameType type = wire::FrameType::kError;
    std::vector<uint8_t> payload;
    std::shared_ptr<ServerSession> session;
    /// Admission time: queue-wait ends at worker dequeue, end-to-end
    /// latency at result-ready (both land in the class histograms).
    std::chrono::steady_clock::time_point admit{};
  };

  /// A marshalled reply: the frame type plus its encoded payload. kResult
  /// payloads above the chunk threshold are streamed at enqueue time.
  struct Reply {
    wire::FrameType type = wire::FrameType::kError;
    std::shared_ptr<const std::vector<uint8_t>> payload;
  };

  /// A leader-computed reply shared between coalesced twin requests.
  struct InFlightQuery {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Reply reply;
  };

  void EnsureStarted();
  void Wake();
  void LoopMain();
  void WorkerMain();
  void AcceptLoop();

  void ReadIntoBufferLocked(Conn* c);
  void FlushOutboundLocked(Conn* c);
  /// Consumes complete frames from in_buf: queues QUERY/APPEND/DELETE
  /// (or sheds them), answers everything else inline.
  void ParseAndDispatchLocked(Conn* c);
  void HandleInlineLocked(Conn* c, wire::FrameType type,
                          std::vector<uint8_t> payload);
  void EnqueueFrameLocked(Conn* c, wire::FrameType type,
                          const uint8_t* payload, size_t n);
  void EnqueueErrorLocked(Conn* c, const base::Status& status);
  void EnqueueReplyLocked(Conn* c, const Reply& reply);
  /// Emits further kResultChunk frames while outbound space allows;
  /// emits kResultEnd and clears `busy` when the stream completes.
  void PumpStreamLocked(Conn* c);
  bool HasCompleteFrame(const Conn* c) const;
  void CloseConnLocked(Conn* c);

  /// Executes one queued request on a worker thread (no locks held).
  Reply ProcessItem(const WorkItem& item);

  /// Serves one QUERY payload — through the recycler's result cache
  /// first, then the coalescing map when enabled.
  Reply ServeQuery(ServerSession* session,
                   const std::vector<uint8_t>& payload,
                   std::chrono::steady_clock::time_point admit);

  /// Executes for real (no coalescing) and marshals the reply. A
  /// successful RESULT is offered to the recycler under `cache_key`
  /// (empty = don't cache) with the generation captured before
  /// execution. `admit` is the request's admission time (slow-query
  /// threshold checks run against admission-to-result-ready).
  Reply ExecuteQuery(ServerSession* session,
                     const wire::QueryRequest& request,
                     const std::string& cache_key,
                     std::chrono::steady_clock::time_point admit);

  /// The latency-histogram triple for one queued frame type.
  ClassLatency* LatencyFor(wire::FrameType type);

  /// Appends one slow-query entry, evicting the oldest past the ring
  /// capacity.
  void RecordSlowQuery(wire::SlowQueryEntry entry);

  void CountIn(size_t frame_bytes);
  void CountOut(wire::FrameType type, size_t frame_bytes);

  const db::MirrorDb* db_;
  /// Non-null iff constructed with a mutable database; gates the
  /// APPEND/DELETE write path.
  db::MirrorDb* mutable_db_ = nullptr;
  Options options_;
  /// Effective chunk size (result_chunk_bytes clamped so a single chunk
  /// can never trip the outbound cap).
  size_t chunk_bytes_ = 0;
  SessionManager sessions_;

  mutable std::mutex mu_;  // listener + stats
  std::unique_ptr<wire::TcpListener> listener_;
  std::thread accept_thread_;
  wire::ServerWireStats stats_;
  std::atomic<bool> stopping_{false};
  /// Serializes Shutdown() end to end (destructor vs explicit call).
  std::mutex shutdown_mu_;

  /// Event core. loop_mu_ guards conns_, queue_, busy_requests_ and the
  /// thread lifecycle flags. Lock order is loop_mu_ -> mu_, never the
  /// reverse.
  mutable std::mutex loop_mu_;
  std::condition_variable queue_cv_;  // workers wait for queue_
  std::condition_variable drain_cv_;  // Shutdown waits for quiescence
  std::map<uint64_t, std::unique_ptr<Conn>> conns_;
  std::deque<WorkItem> queue_;
  uint64_t next_conn_id_ = 1;
  /// Admitted requests not yet fully replied (queued + executing).
  int64_t busy_requests_ = 0;
  bool started_ = false;
  bool workers_stop_ = false;
  bool loop_stop_ = false;
  int wake_fd_ = -1;
  std::thread loop_thread_;
  std::vector<std::thread> workers_;

  /// Overload observability, atomic so STATS — which may run inline on
  /// the loop thread — reads them without retaking loop_mu_.
  std::atomic<uint64_t> requests_shed_{0};
  std::atomic<uint64_t> queue_depth_high_water_{0};
  std::atomic<uint64_t> active_workers_{0};
  std::atomic<uint64_t> result_chunks_streamed_{0};
  std::atomic<uint64_t> slow_client_disconnects_{0};

  /// Server-side latency accounting: one queue-wait/exec/total triple
  /// per request class. Record() is lock-free (relaxed atomics), so the
  /// worker hot path never serializes on latency bookkeeping.
  ClassLatency latency_query_;
  ClassLatency latency_append_;
  ClassLatency latency_delete_;

  /// Slow-query ring (Options::slow_query_ms threshold), newest last.
  mutable std::mutex slow_mu_;
  std::deque<wire::SlowQueryEntry> slow_queries_;

  std::mutex inflight_mu_;
  std::unordered_map<std::string, std::shared_ptr<InFlightQuery>> inflight_;
};

}  // namespace mirror::daemon

#endif  // MIRROR_DAEMON_QUERY_SERVER_H_
