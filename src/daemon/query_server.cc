#include "daemon/query_server.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <string_view>
#include <type_traits>

#include "base/str_util.h"
#include "monet/profiler.h"

namespace mirror::daemon {

namespace mil = monet::mil;

namespace {

/// Reads / writes one ExecOptions field as a SET value. Booleans read as
/// 0/1 and turn on for any nonzero value.
template <auto kField>
int64_t GetKnob(const mil::ExecOptions& options) {
  return static_cast<int64_t>(options.*kField);
}

template <auto kField>
void SetKnob(mil::ExecOptions& options, int64_t value) {
  using Field = std::remove_reference_t<decltype(options.*kField)>;
  if constexpr (std::is_same_v<Field, bool>) {
    options.*kField = value != 0;
  } else {
    options.*kField = static_cast<Field>(value);
  }
}

/// One per-session SET knob: its key, the values it accepts, and how it
/// reads and writes the session's ExecOptions.
struct Knob {
  const char* name;
  int64_t min;
  int64_t max;
  int64_t (*get)(const mil::ExecOptions&);
  void (*set)(mil::ExecOptions&, int64_t);
};

template <auto kField>
constexpr Knob MakeKnob(const char* name, int64_t min, int64_t max) {
  return Knob{name, min, max, &GetKnob<kField>, &SetKnob<kField>};
}

constexpr int64_t kAnyMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kAnyMax = std::numeric_limits<int64_t>::max();

/// Every per-session SET knob, in echo order. Validation, application
/// and the SET_OK / STATS echo all loop over this table, so a knob is
/// one row.
constexpr Knob kKnobs[] = {
    MakeKnob<&mil::ExecOptions::num_shards>("num_shards", 0, 1 << 20),
    MakeKnob<&mil::ExecOptions::num_threads>("num_threads", 0, 1024),
    MakeKnob<&mil::ExecOptions::zone_maps>("zone_maps", kAnyMin, kAnyMax),
    MakeKnob<&mil::ExecOptions::topk_prune>("topk_prune", kAnyMin, kAnyMax),
    MakeKnob<&mil::ExecOptions::recycle>("recycle", kAnyMin, kAnyMax),
    MakeKnob<&mil::ExecOptions::trace>("trace", kAnyMin, kAnyMax),
    MakeKnob<&mil::ExecOptions::query_deadline_ms>(  // a day is plenty
        "query_deadline_ms", 0, 86'400'000),
    MakeKnob<&mil::ExecOptions::memory_budget_bytes>("memory_budget_bytes",
                                                     0, kAnyMax),
};

/// The knob a SET key names, or null; keys may carry an "exec." prefix.
const Knob* FindKnob(std::string_view key) {
  constexpr std::string_view kPrefix = "exec.";
  if (key.substr(0, kPrefix.size()) == kPrefix) {
    key.remove_prefix(kPrefix.size());
  }
  for (const Knob& knob : kKnobs) {
    if (key == knob.name) return &knob;
  }
  return nullptr;
}

/// The shared recycler/coalescing key of one query request: the same
/// normalization the session plan cache uses — whitespace-insensitive
/// query text plus the exact bindings. The text is length-prefixed so
/// no query spelling can collide with another (text, bindings) pair's
/// rendering. Results are engine-config-invariant (the fuzz suite's
/// core guarantee), so per-session SET differences don't enter the key.
std::string QueryCacheKey(const wire::QueryRequest& request) {
  std::string normalized = mil::ExecutionContext::NormalizeText(request.text);
  std::string key = base::StrFormat("%zu:", normalized.size());
  key += normalized;
  key += "|";
  key += request.bindings.CacheKey();
  return key;
}

/// Cached replies come from flattened engine executions; only hand
/// them to sessions whose config would have produced the same bytes
/// (true for every engine config by the equivalence guarantee, but the
/// naive interpreter path is kept out of the cache on both ends).
bool SessionUsesRecycler(const db::QueryOptions& options) {
  return options.exec.recycle && options.flattened;
}

}  // namespace

// ---------------------------------------------------------------------------
// ServerSession.

base::Status ServerSession::ValidateOverride(const std::string& key,
                                             int64_t value) {
  const Knob* knob = FindKnob(key);
  if (knob == nullptr) {
    return base::Status::InvalidArgument(
        base::StrFormat("unknown SET key \"%s\"", key.c_str()));
  }
  if (value < knob->min || value > knob->max) {
    return base::Status::InvalidArgument(base::StrFormat(
        "%s %lld out of range", knob->name, static_cast<long long>(value)));
  }
  return base::Status::Ok();
}

base::Status ServerSession::ApplyOverride(const std::string& key,
                                          int64_t value) {
  base::Status valid = ValidateOverride(key, value);
  if (!valid.ok()) return valid;
  std::lock_guard<std::mutex> lock(mu_);
  FindKnob(key)->set(options_.exec, value);
  return base::Status::Ok();
}

wire::SessionStatsEntry ServerSession::StatsEntry() const {
  wire::SessionStatsEntry entry;
  entry.session_id = id_;
  entry.client_name = client_name_;
  entry.requests = requests_.load(std::memory_order_relaxed);
  entry.errors = errors_.load(std::memory_order_relaxed);
  entry.plan_cache_size = exec_.plan_cache_size();
  entry.plan_cache_hits = exec_.plan_cache_hits();
  entry.plan_cache_lookups = exec_.plan_cache_lookups();
  std::lock_guard<std::mutex> lock(mu_);
  for (const Knob& knob : kKnobs) {
    entry.options.emplace_back(knob.name, knob.get(options_.exec));
  }
  return entry;
}

void ServerSession::StoreTrace(std::shared_ptr<const wire::TraceReply> trace) {
  std::lock_guard<std::mutex> lock(mu_);
  last_trace_ = std::move(trace);
}

std::shared_ptr<const wire::TraceReply> ServerSession::LastTrace() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_trace_;
}

// ---------------------------------------------------------------------------
// SessionManager.

SessionManager::~SessionManager() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, session] : sessions_) {
    db_->UnregisterSession(session->exec_context());
  }
  sessions_.clear();
}

std::shared_ptr<ServerSession> SessionManager::Open(
    std::string client_name, const db::QueryOptions& base_options) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t id = next_id_++;
  auto session = std::make_shared<ServerSession>(id, std::move(client_name),
                                                 base_options);
  // Registration wires the session's plan cache into MirrorDb::Load
  // invalidation for the whole session lifetime.
  db_->RegisterSession(session->exec_context());
  sessions_[id] = session;
  return session;
}

void SessionManager::Close(uint64_t session_id) {
  std::shared_ptr<ServerSession> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) return;
    session = it->second;
  }
  // Unregister before dropping the manager entry so an observer seeing
  // open_count() == 0 can rely on the database registration being gone.
  db_->UnregisterSession(session->exec_context());
  std::lock_guard<std::mutex> lock(mu_);
  sessions_.erase(session_id);
}

std::vector<wire::SessionStatsEntry> SessionManager::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<wire::SessionStatsEntry> out;
  out.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) {
    out.push_back(session->StatsEntry());
  }
  return out;
}

size_t SessionManager::open_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

// ---------------------------------------------------------------------------
// QueryServer.

QueryServer::QueryServer(const db::MirrorDb* db)
    : QueryServer(db, Options()) {}

QueryServer::QueryServer(const db::MirrorDb* db, Options options)
    : db_(db), options_(std::move(options)), sessions_(db) {
  chunk_bytes_ = std::max<size_t>(
      4096, std::min(options_.result_chunk_bytes,
                     std::max<size_t>(4096, options_.outbound_buffer_limit / 4)));
}

QueryServer::QueryServer(db::MirrorDb* db) : QueryServer(db, Options()) {}

QueryServer::QueryServer(db::MirrorDb* db, Options options)
    : db_(db), mutable_db_(db), options_(std::move(options)), sessions_(db) {
  chunk_bytes_ = std::max<size_t>(
      4096, std::min(options_.result_chunk_bytes,
                     std::max<size_t>(4096, options_.outbound_buffer_limit / 4)));
}

QueryServer::~QueryServer() {
  Shutdown();
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

void QueryServer::CountIn(size_t frame_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.frames_in;
  stats_.bytes_in += frame_bytes;
}

void QueryServer::CountOut(wire::FrameType type, size_t frame_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.frames_out;
  stats_.bytes_out += frame_bytes;
  if (type == wire::FrameType::kError) ++stats_.errors;
}

wire::ServerWireStats QueryServer::stats() const {
  // Kernel counters are process-wide profiler state, snapshotted outside
  // the server lock (the fold reads relaxed atomics, no lock).
  monet::KernelStats kernels = monet::SnapshotKernelStats();
  db::RecoveryStats recovery = db_->recovery_stats();
  monet::RecyclerStats recycler = db_->recycler()->stats();
  std::lock_guard<std::mutex> lock(mu_);
  wire::ServerWireStats out = stats_;
  out.load_generation = db_->load_generation();
  out.zone_blocks_skipped = kernels.zone_blocks_skipped;
  out.topk_morsels_pruned = kernels.topk_morsels_pruned;
  out.topk_shards_pruned = kernels.topk_shards_pruned;
  out.probe_partitions = kernels.probe_partitions;
  out.peak_query_bytes = kernels.peak_query_bytes;
  out.wal_appends = recovery.wal_appends;
  out.wal_replayed_records = recovery.wal_replayed_records;
  out.wal_truncated_bytes = recovery.wal_truncated_bytes;
  out.recovery_lazy_loads = recovery.recovery_lazy_loads;
  out.recovery_pending = recovery.recovery_pending ? 1 : 0;
  out.requests_shed = requests_shed_.load(std::memory_order_relaxed);
  out.queue_depth_high_water =
      queue_depth_high_water_.load(std::memory_order_relaxed);
  out.active_workers = active_workers_.load(std::memory_order_relaxed);
  out.result_chunks_streamed =
      result_chunks_streamed_.load(std::memory_order_relaxed);
  out.slow_client_disconnects =
      slow_client_disconnects_.load(std::memory_order_relaxed);
  out.result_cache_hits = recycler.result_hits;
  out.result_cache_misses = recycler.result_misses;
  out.recycler_admissions_rejected = recycler.admissions_rejected;
  out.recycler_evictions = recycler.evictions;
  out.recycler_bytes_held = recycler.bytes_held;
  out.candidate_cache_hits = recycler.candidate_hits;
  out.candidate_subsumption_hits = recycler.candidate_subsumption_hits;
  out.latency_query = latency_query_.Snapshot();
  out.latency_append = latency_append_.Snapshot();
  out.latency_delete = latency_delete_.Snapshot();
  {
    std::lock_guard<std::mutex> slock(slow_mu_);
    out.slow_queries.assign(slow_queries_.begin(), slow_queries_.end());
  }
  return out;
}

ClassLatency* QueryServer::LatencyFor(wire::FrameType type) {
  switch (type) {
    case wire::FrameType::kAppend:
      return &latency_append_;
    case wire::FrameType::kDelete:
      return &latency_delete_;
    default:
      return &latency_query_;
  }
}

void QueryServer::RecordSlowQuery(wire::SlowQueryEntry entry) {
  std::lock_guard<std::mutex> lock(slow_mu_);
  slow_queries_.push_back(std::move(entry));
  while (slow_queries_.size() > std::max<size_t>(1, options_.slow_query_ring)) {
    slow_queries_.pop_front();
  }
}

size_t QueryServer::active_connections() const {
  std::lock_guard<std::mutex> lock(loop_mu_);
  size_t n = 0;
  for (const auto& [id, conn] : conns_) {
    if (!conn->dead) ++n;
  }
  return n;
}

void QueryServer::EnsureStarted() {
  std::lock_guard<std::mutex> lock(loop_mu_);
  if (started_) return;
  started_ = true;
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  int n = options_.worker_threads;
  if (n <= 0) {
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    n = std::max(2, std::min(8, hw));
  }
  loop_thread_ = std::thread([this] { LoopMain(); });
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
}

void QueryServer::Wake() {
  if (wake_fd_ < 0) return;
  uint64_t one = 1;
  [[maybe_unused]] ssize_t r = ::write(wake_fd_, &one, sizeof(one));
}

void QueryServer::Serve(std::unique_ptr<wire::Transport> conn) {
  if (stopping_.load()) {
    conn->Close();
    return;
  }
  EnsureStarted();
  int fd = conn->PollFd();
  if (fd < 0) {
    // The readiness loop can only drive pollable transports; a custom
    // blocking-only transport is refused rather than silently wedged.
    conn->Close();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(loop_mu_);
    if (stopping_.load() || loop_stop_) {
      conn->Close();
      return;
    }
    auto c = std::make_unique<Conn>();
    c->id = next_conn_id_++;
    c->fd = fd;
    c->transport = std::move(conn);
    c->last_write_progress = std::chrono::steady_clock::now();
    conns_[c->id] = std::move(c);
  }
  Wake();
}

base::Result<int> QueryServer::ListenTcp(int port) {
  EnsureStarted();
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_.load()) {
    return base::Status::IoError("server is shut down");
  }
  if (listener_ != nullptr) {
    return base::Status::AlreadyExists("server is already listening");
  }
  auto listener = wire::TcpListen(port);
  if (!listener.ok()) return listener.status();
  listener_ = listener.TakeValue();
  int bound = listener_->port();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return bound;
}

void QueryServer::AcceptLoop() {
  for (;;) {
    base::Result<std::unique_ptr<wire::Transport>> conn =
        base::Status::Internal("no listener");
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (listener_ == nullptr || stopping_.load()) return;
    }
    // Accept blocks outside the lock; Shutdown() closes the listener to
    // unblock it.
    conn = listener_->Accept();
    if (!conn.ok()) {
      if (stopping_.load()) return;  // listener closed by Shutdown
      // Transient accept failure (e.g. fd exhaustion under load): keep
      // the daemon listening rather than silently stopping intake.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    Serve(conn.TakeValue());
  }
}

void QueryServer::Shutdown(int64_t drain_millis) {
  // Serialized end to end: a second caller (e.g. the destructor racing
  // an explicit Shutdown) blocks here until the first has joined every
  // thread, then returns without touching anything.
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  if (stopping_.load()) return;
  {
    // stopping_ flips inside loop_mu_ so request admission (which checks
    // it under the same mutex) cannot race the drain below.
    std::lock_guard<std::mutex> lock(loop_mu_);
    stopping_.store(true);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (listener_ != nullptr) listener_->Close();
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  Wake();
  // Drain: let admitted requests finish and their replies flush. The
  // loop keeps running (it is what flushes) and notifies drain_cv_ once
  // quiescent.
  {
    std::unique_lock<std::mutex> lock(loop_mu_);
    drain_cv_.wait_for(lock, std::chrono::milliseconds(drain_millis), [&] {
      if (busy_requests_ != 0 || !queue_.empty()) return false;
      for (const auto& [id, c] : conns_) {
        if (!c->dead && (c->out_bytes > 0 || c->stream_payload != nullptr)) {
          return false;
        }
      }
      return true;
    });
  }
  {
    std::lock_guard<std::mutex> lock(loop_mu_);
    workers_stop_ = true;
  }
  queue_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  {
    std::lock_guard<std::mutex> lock(loop_mu_);
    loop_stop_ = true;
  }
  Wake();
  if (loop_thread_.joinable()) loop_thread_.join();
}

// ---------------------------------------------------------------------------
// Event loop.

void QueryServer::ReadIntoBufferLocked(Conn* c) {
  if (c->dead || c->eof) return;
  uint8_t tmp[64 * 1024];
  size_t read_this_wake = 0;
  for (;;) {
    wire::IoResult r = c->transport->ReadSome(tmp, sizeof(tmp));
    switch (r.status) {
      case wire::IoStatus::kOk:
        c->in_buf.insert(c->in_buf.end(), tmp, tmp + r.bytes);
        read_this_wake += r.bytes;
        // Fairness cap: a firehose peer must not monopolize the loop.
        if (read_this_wake >= 256 * 1024) return;
        break;
      case wire::IoStatus::kWouldBlock:
        return;
      case wire::IoStatus::kEof:
        c->eof = true;
        return;
      case wire::IoStatus::kError:
        c->dead = true;
        return;
    }
  }
}

void QueryServer::FlushOutboundLocked(Conn* c) {
  if (c->dead) return;
  while (c->out_bytes > 0) {
    std::vector<uint8_t>& front = c->out.front();
    size_t n = front.size() - c->out_front_off;
    wire::IoResult r = c->transport->WriteSome(front.data() + c->out_front_off, n);
    if (r.status != wire::IoStatus::kOk) {
      if (r.status != wire::IoStatus::kWouldBlock) c->dead = true;
      return;
    }
    if (r.bytes > 0) {
      c->last_write_progress = std::chrono::steady_clock::now();
    }
    c->out_front_off += r.bytes;
    c->out_bytes -= r.bytes;
    if (c->out_front_off == front.size()) {
      c->out.pop_front();
      c->out_front_off = 0;
    }
    if (r.bytes < n) return;  // kernel buffer full; wait for POLLOUT
  }
}

void QueryServer::EnqueueFrameLocked(Conn* c, wire::FrameType type,
                                     const uint8_t* payload, size_t n) {
  if (c->dead) return;
  if (n > wire::kMaxFramePayload) {
    // Unstreamed reply over the frame cap: nothing was written, the
    // stream is still synchronized — the client must get an ERROR, not
    // silence (a dropped reply would block it forever).
    std::vector<uint8_t> err = wire::EncodeError(base::Status::OutOfRange(
        base::StrFormat("reply of %zu bytes exceeds the frame limit; "
                        "narrow the query",
                        n)));
    EnqueueFrameLocked(c, wire::FrameType::kError, err.data(), err.size());
    return;
  }
  std::vector<uint8_t> frame;
  frame.reserve(5 + n);
  frame.push_back(static_cast<uint8_t>(type));
  uint32_t len = static_cast<uint32_t>(n);
  const uint8_t* lp = reinterpret_cast<const uint8_t*>(&len);
  frame.insert(frame.end(), lp, lp + sizeof(len));
  if (n > 0) frame.insert(frame.end(), payload, payload + n);
  if (c->out.empty()) {
    c->last_write_progress = std::chrono::steady_clock::now();
  }
  c->out_bytes += frame.size();
  c->out.push_back(std::move(frame));
  CountOut(type, 5 + n);
  if (type == wire::FrameType::kResultChunk) {
    result_chunks_streamed_.fetch_add(1, std::memory_order_relaxed);
  }
  if (c->out_bytes > options_.outbound_buffer_limit) {
    // Slow-client policy: the peer let replies pile past the cap, so the
    // server sheds the connection instead of buffering without bound.
    c->dead = true;
    slow_client_disconnects_.fetch_add(1, std::memory_order_relaxed);
  }
}

void QueryServer::EnqueueErrorLocked(Conn* c, const base::Status& status) {
  std::vector<uint8_t> payload = wire::EncodeError(status);
  EnqueueFrameLocked(c, wire::FrameType::kError, payload.data(),
                     payload.size());
}

void QueryServer::PumpStreamLocked(Conn* c) {
  if (c->stream_payload == nullptr) return;
  if (c->dead) {
    c->stream_payload = nullptr;
    c->busy = false;
    return;
  }
  const std::vector<uint8_t>& body = *c->stream_payload;
  // Refill only up to half the cap: the stream throttles itself to the
  // client's drain rate instead of tripping the slow-client guillotine.
  const size_t budget = std::max<size_t>(1, options_.outbound_buffer_limit / 2);
  while (!c->dead && c->out_bytes < budget) {
    size_t remaining = body.size() - c->stream_off;
    if (remaining == 0) {
      wire::ResultEnd end;
      end.total_bytes = body.size();
      end.chunks = c->stream_chunks;
      std::vector<uint8_t> ep = wire::EncodeResultEnd(end);
      EnqueueFrameLocked(c, wire::FrameType::kResultEnd, ep.data(), ep.size());
      c->stream_payload = nullptr;
      c->stream_off = 0;
      c->stream_chunks = 0;
      c->busy = false;  // reply fully enqueued; parsing may resume
      return;
    }
    size_t take = std::min(remaining, chunk_bytes_);
    EnqueueFrameLocked(c, wire::FrameType::kResultChunk,
                       body.data() + c->stream_off, take);
    c->stream_off += take;
    ++c->stream_chunks;
  }
}

void QueryServer::EnqueueReplyLocked(Conn* c, const Reply& reply) {
  if (c->dead) {
    c->busy = false;
    return;
  }
  if (reply.type == wire::FrameType::kResult &&
      reply.payload->size() > chunk_bytes_) {
    // Stream: slice byte ranges out of the one encoded payload — never
    // re-encode, so coalesced followers stay bit-identical.
    c->stream_payload = reply.payload;
    c->stream_off = 0;
    c->stream_chunks = 0;
    PumpStreamLocked(c);
    return;
  }
  EnqueueFrameLocked(c, reply.type, reply.payload->data(),
                     reply.payload->size());
  c->busy = false;
}

bool QueryServer::HasCompleteFrame(const Conn* c) const {
  if (c->in_buf.size() < 5) return false;
  uint32_t len = 0;
  std::memcpy(&len, c->in_buf.data() + 1, sizeof(len));
  if (len > wire::kMaxFramePayload) return true;  // parse will reject it
  return c->in_buf.size() >= size_t{5} + len;
}

void QueryServer::CloseConnLocked(Conn* c) {
  if (c->session != nullptr) {
    sessions_.Close(c->session->id());
    c->session.reset();
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.sessions_closed;
  }
  c->transport->Close();
}

void QueryServer::HandleInlineLocked(Conn* c, wire::FrameType type,
                                     std::vector<uint8_t> payload) {
  switch (type) {
    case wire::FrameType::kHello: {
      auto hello = wire::DecodeHelloRequest(payload);
      if (!hello.ok()) {
        EnqueueErrorLocked(c, hello.status());
      } else if (hello.value().protocol_version != wire::kProtocolVersion) {
        EnqueueErrorLocked(c, base::Status::InvalidArgument(base::StrFormat(
            "protocol version %u not supported (server speaks %u)",
            hello.value().protocol_version, wire::kProtocolVersion)));
      } else if (c->session != nullptr) {
        EnqueueErrorLocked(c,
                           base::Status::AlreadyExists("session already open"));
      } else {
        c->session = sessions_.Open(hello.value().client_name, options_.query);
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.sessions_opened;
        }
        wire::HelloReply reply;
        reply.session_id = c->session->id();
        reply.server_name = options_.server_name;
        std::vector<uint8_t> rp = wire::EncodeHelloReply(reply);
        EnqueueFrameLocked(c, wire::FrameType::kHelloOk, rp.data(), rp.size());
      }
      break;
    }
    case wire::FrameType::kSet: {
      if (c->session == nullptr) {
        EnqueueErrorLocked(c, base::Status::InvalidArgument(
                                  "SET before HELLO: no session"));
        break;
      }
      auto set = wire::DecodeSetRequest(payload);
      base::Status applied = set.ok() ? base::Status::Ok() : set.status();
      if (applied.ok()) {
        // Validate everything before applying anything, so a bad key
        // can't leave a half-applied override set.
        for (const auto& [key, value] : set.value().options) {
          applied = ServerSession::ValidateOverride(key, value);
          if (!applied.ok()) break;
        }
      }
      if (applied.ok()) {
        for (const auto& [key, value] : set.value().options) {
          applied = c->session->ApplyOverride(key, value);
          if (!applied.ok()) break;  // unreachable after validation
        }
      }
      if (!applied.ok()) {
        EnqueueErrorLocked(c, applied);
      } else {
        wire::SetReply reply{c->session->StatsEntry().options};
        std::vector<uint8_t> rp = wire::EncodeSetRequest(reply);
        EnqueueFrameLocked(c, wire::FrameType::kSetOk, rp.data(), rp.size());
      }
      break;
    }
    case wire::FrameType::kStats: {
      auto req = wire::DecodeStatsRequest(payload);
      if (!req.ok()) {
        EnqueueErrorLocked(c, req.status());
        break;
      }
      wire::StatsReply reply;
      reply.server = stats();
      reply.sessions = sessions_.Snapshot();
      if (req.value().reset) {
        // Read-and-clear: the reply above carries the pre-reset numbers;
        // the latency histograms, the slow-query ring and the
        // process-wide kernel counters (the kernel group) start a fresh
        // epoch here. Wire frame/byte counters are monotonic by design
        // and stay, and so does the whole recycler group: it reads the
        // recycler's own stats, which only a restart clears.
        latency_query_.Reset();
        latency_append_.Reset();
        latency_delete_.Reset();
        {
          std::lock_guard<std::mutex> slock(slow_mu_);
          slow_queries_.clear();
        }
        monet::ResetKernelStats();
      }
      std::vector<uint8_t> rp = wire::EncodeStatsReply(reply);
      EnqueueFrameLocked(c, wire::FrameType::kStatsResult, rp.data(),
                         rp.size());
      break;
    }
    case wire::FrameType::kTrace: {
      if (c->session == nullptr) {
        EnqueueErrorLocked(c, base::Status::InvalidArgument(
                                  "TRACE before HELLO: no session"));
        break;
      }
      std::shared_ptr<const wire::TraceReply> last = c->session->LastTrace();
      std::vector<uint8_t> rp;
      if (last != nullptr) {
        rp = wire::EncodeTraceReply(*last);
      } else {
        // Nothing traced yet: full schema, zero rows, so clients can
        // print headers without special-casing.
        monet::TraceTable empty = monet::TraceToBats({});
        wire::TraceReply reply;
        reply.names = std::move(empty.names);
        reply.cols = std::move(empty.cols);
        rp = wire::EncodeTraceReply(reply);
      }
      EnqueueFrameLocked(c, wire::FrameType::kTraceResult, rp.data(),
                         rp.size());
      break;
    }
    case wire::FrameType::kClose: {
      EnqueueFrameLocked(c, wire::FrameType::kCloseOk, nullptr, 0);
      c->close_after_flush = true;
      break;
    }
    default:
      // Reply frame types arriving at the server are a peer bug, but
      // the stream is still framed: answer and keep serving.
      EnqueueErrorLocked(c, base::Status::InvalidArgument(base::StrFormat(
          "unexpected frame type 0x%02x on a server connection",
          static_cast<unsigned>(type))));
      break;
  }
}

void QueryServer::ParseAndDispatchLocked(Conn* c) {
  while (!c->busy && !c->dead && !c->close_after_flush) {
    if (c->in_buf.size() < 5) return;
    uint8_t type_byte = c->in_buf[0];
    uint32_t len = 0;
    std::memcpy(&len, c->in_buf.data() + 1, sizeof(len));
    if (!wire::IsKnownFrameType(type_byte)) {
      // A corrupted header cannot be resynchronized: report and drop.
      EnqueueErrorLocked(c, base::Status::ParseError(base::StrFormat(
          "unknown frame type 0x%02x", type_byte)));
      c->close_after_flush = true;
      return;
    }
    if (len > wire::kMaxFramePayload) {
      // Oversized declared length: best-effort typed ERROR before the
      // drop — the peer learns why instead of seeing a bare reset.
      EnqueueErrorLocked(c, base::Status::ParseError(base::StrFormat(
          "frame payload of %u bytes exceeds the %u limit", len,
          wire::kMaxFramePayload)));
      c->close_after_flush = true;
      return;
    }
    if (c->in_buf.size() < size_t{5} + len) return;  // partial frame
    auto type = static_cast<wire::FrameType>(type_byte);
    std::vector<uint8_t> payload(c->in_buf.begin() + 5,
                                 c->in_buf.begin() + 5 + len);
    c->in_buf.erase(c->in_buf.begin(), c->in_buf.begin() + 5 + len);
    CountIn(size_t{5} + len);
    if (stopping_.load()) {
      EnqueueErrorLocked(c, base::Status::IoError("server shutting down"));
      c->close_after_flush = true;
      return;
    }
    switch (type) {
      case wire::FrameType::kQuery:
      case wire::FrameType::kAppend:
      case wire::FrameType::kDelete: {
        const char* verb = type == wire::FrameType::kQuery    ? "QUERY"
                           : type == wire::FrameType::kAppend ? "APPEND"
                                                              : "DELETE";
        if (c->session == nullptr) {
          EnqueueErrorLocked(c, base::Status::InvalidArgument(base::StrFormat(
              "%s before HELLO: no session", verb)));
          break;
        }
        if (type != wire::FrameType::kQuery && mutable_db_ == nullptr) {
          EnqueueErrorLocked(c, base::Status::InvalidArgument(base::StrFormat(
              "server is read-only: %s rejected", verb)));
          break;
        }
        const auto admit = std::chrono::steady_clock::now();
        if (type == wire::FrameType::kQuery &&
            SessionUsesRecycler(c->session->options())) {
          // Recycler fast path: a query whose encoded RESULT is already
          // cached for the current data version is answered inline by
          // the poll loop — no queue slot, no worker wakeup. Misses
          // (and undecodable requests) fall through to the normal
          // queue, where the worker reports any decode error.
          auto request = wire::DecodeQueryRequest(payload);
          if (request.ok()) {
            monet::Recycler* recycler = db_->recycler();
            auto hit = recycler->LookupResult(recycler->generation(),
                                              QueryCacheKey(request.value()));
            if (hit != nullptr) {
              c->session->CountRequest();
              {
                std::lock_guard<std::mutex> lock(mu_);
                ++stats_.requests;
              }
              // The cache hit never queued: zero queue wait, and the
              // lookup itself is the whole service time.
              const uint64_t micros = static_cast<uint64_t>(
                  std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - admit)
                      .count());
              latency_query_.queue_wait.Record(0);
              latency_query_.exec.Record(micros);
              latency_query_.total.Record(micros);
              Reply reply;
              reply.type = wire::FrameType::kResult;
              reply.payload = std::move(hit);
              c->busy = true;
              EnqueueReplyLocked(c, reply);
              break;
            }
          }
        }
        if (queue_.size() >= options_.request_queue_limit) {
          // Admission control: shed with a typed, retryable error. The
          // connection is NOT marked busy — it keeps its place and may
          // retry after the hint.
          requests_shed_.fetch_add(1, std::memory_order_relaxed);
          std::vector<uint8_t> err = wire::EncodeError(
              base::Status::Overloaded("server overloaded: request queue is full"),
              options_.retry_after_ms);
          EnqueueFrameLocked(c, wire::FrameType::kError, err.data(),
                             err.size());
          break;
        }
        c->busy = true;
        WorkItem item;
        item.conn_id = c->id;
        item.type = type;
        item.payload = std::move(payload);
        item.session = c->session;
        item.admit = admit;
        queue_.push_back(std::move(item));
        ++busy_requests_;
        uint64_t depth = queue_.size();
        if (depth > queue_depth_high_water_.load(std::memory_order_relaxed)) {
          queue_depth_high_water_.store(depth, std::memory_order_relaxed);
        }
        queue_cv_.notify_one();
        break;  // busy: the while condition stops further parsing
      }
      default:
        HandleInlineLocked(c, type, std::move(payload));
        break;
    }
  }
}

void QueryServer::LoopMain() {
  std::vector<pollfd> pfds;
  std::vector<uint64_t> ids;
  for (;;) {
    pfds.clear();
    ids.clear();
    {
      std::lock_guard<std::mutex> lock(loop_mu_);
      if (loop_stop_) break;
      pfds.push_back(pollfd{wake_fd_, POLLIN, 0});
      ids.push_back(0);
      for (const auto& [id, cptr] : conns_) {
        const Conn* c = cptr.get();
        if (c->dead) continue;
        short events = 0;
        if (!c->busy && !c->close_after_flush && !c->eof) events |= POLLIN;
        if (c->out_bytes > 0) events |= POLLOUT;
        if (events == 0) continue;
        pfds.push_back(pollfd{c->fd, events, 0});
        ids.push_back(id);
      }
    }
    ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 25);
    if (pfds[0].revents & POLLIN) {
      uint64_t drained = 0;
      [[maybe_unused]] ssize_t r = ::read(wake_fd_, &drained, sizeof(drained));
    }
    std::lock_guard<std::mutex> lock(loop_mu_);
    for (size_t i = 1; i < pfds.size(); ++i) {
      auto it = conns_.find(ids[i]);
      if (it == conns_.end()) continue;
      Conn* c = it->second.get();
      if (pfds[i].revents & POLLNVAL) {
        c->dead = true;
        continue;
      }
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        ReadIntoBufferLocked(c);
      }
      if (pfds[i].revents & POLLOUT) FlushOutboundLocked(c);
    }
    auto now = std::chrono::steady_clock::now();
    for (auto it = conns_.begin(); it != conns_.end();) {
      Conn* c = it->second.get();
      if (!c->dead) {
        PumpStreamLocked(c);
        if (!c->busy) ParseAndDispatchLocked(c);
        if (c->out_bytes > 0) FlushOutboundLocked(c);
        if (!c->dead && c->out_bytes > 0 &&
            now - c->last_write_progress >
                std::chrono::milliseconds(options_.write_stall_timeout_ms)) {
          // Write stalled past the timeout: slow-client disconnect.
          c->dead = true;
          slow_client_disconnects_.fetch_add(1, std::memory_order_relaxed);
        }
        if (!c->dead && !c->busy && c->close_after_flush &&
            c->out_bytes == 0) {
          c->dead = true;  // goodbye flushed; retire the connection
        }
        if (!c->dead && !c->busy && c->eof && c->out_bytes == 0 &&
            c->stream_payload == nullptr && !HasCompleteFrame(c)) {
          c->dead = true;  // peer gone, nothing pending in either direction
        }
      }
      if (c->dead && !c->busy && c->stream_payload == nullptr) {
        CloseConnLocked(c);
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
    if (stopping_.load() && busy_requests_ == 0 && queue_.empty()) {
      bool flushed = true;
      for (const auto& [id, c] : conns_) {
        if (!c->dead && (c->out_bytes > 0 || c->stream_payload != nullptr)) {
          flushed = false;
          break;
        }
      }
      if (flushed) drain_cv_.notify_all();
    }
  }
  // loop_stop_: final best-effort flush, then close everything.
  std::lock_guard<std::mutex> lock(loop_mu_);
  for (auto& [id, cptr] : conns_) {
    Conn* c = cptr.get();
    if (!c->dead) {
      PumpStreamLocked(c);
      FlushOutboundLocked(c);
    }
    CloseConnLocked(c);
  }
  conns_.clear();
}

// ---------------------------------------------------------------------------
// Worker pool.

void QueryServer::WorkerMain() {
  for (;;) {
    WorkItem item;
    {
      std::unique_lock<std::mutex> lock(loop_mu_);
      queue_cv_.wait(lock, [&] { return workers_stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // workers_stop_ and nothing left
      item = std::move(queue_.front());
      queue_.pop_front();
      active_workers_.fetch_add(1, std::memory_order_relaxed);
    }
    ClassLatency* lat = LatencyFor(item.type);
    const auto dequeued = std::chrono::steady_clock::now();
    auto micros_between = [](std::chrono::steady_clock::time_point a,
                             std::chrono::steady_clock::time_point b) {
      return static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(b - a)
              .count());
    };
    lat->queue_wait.Record(micros_between(item.admit, dequeued));
    Reply reply = ProcessItem(item);
    const auto done = std::chrono::steady_clock::now();
    lat->exec.Record(micros_between(dequeued, done));
    lat->total.Record(micros_between(item.admit, done));
    {
      std::lock_guard<std::mutex> lock(loop_mu_);
      active_workers_.fetch_sub(1, std::memory_order_relaxed);
      --busy_requests_;
      auto it = conns_.find(item.conn_id);
      if (it != conns_.end()) {
        Conn* c = it->second.get();
        EnqueueReplyLocked(c, reply);
        FlushOutboundLocked(c);
      }
    }
    drain_cv_.notify_all();
    Wake();
  }
}

QueryServer::Reply QueryServer::ProcessItem(const WorkItem& item) {
  ServerSession* session = item.session.get();
  auto error_reply = [](const base::Status& status) {
    Reply r;
    r.type = wire::FrameType::kError;
    r.payload = std::make_shared<const std::vector<uint8_t>>(
        wire::EncodeError(status));
    return r;
  };
  switch (item.type) {
    case wire::FrameType::kQuery:
      return ServeQuery(session, item.payload, item.admit);
    case wire::FrameType::kAppend: {
      auto request = wire::DecodeAppendRequest(item.payload);
      if (!request.ok()) return error_reply(request.status());
      session->CountRequest();
      wire::AppendRequest req = request.TakeValue();
      auto ack = mutable_db_->Append(req.bat_name, std::move(req.values));
      if (!ack.ok()) {
        session->CountError();
        return error_reply(ack.status());
      }
      wire::AppendReply reply;
      reply.lsn = ack.value().lsn;
      reply.visible_rows = ack.value().visible_rows;
      Reply r;
      r.type = wire::FrameType::kAppendOk;
      r.payload = std::make_shared<const std::vector<uint8_t>>(
          wire::EncodeAppendReply(reply));
      return r;
    }
    case wire::FrameType::kDelete: {
      auto request = wire::DecodeDeleteRequest(item.payload);
      if (!request.ok()) return error_reply(request.status());
      session->CountRequest();
      wire::DeleteRequest req = request.TakeValue();
      auto ack = mutable_db_->DeleteRows(req.bat_name, std::move(req.oids));
      if (!ack.ok()) {
        session->CountError();
        return error_reply(ack.status());
      }
      wire::DeleteReply reply;
      reply.lsn = ack.value().lsn;
      reply.visible_rows = ack.value().visible_rows;
      reply.deleted = ack.value().deleted;
      Reply r;
      r.type = wire::FrameType::kDeleteOk;
      r.payload = std::make_shared<const std::vector<uint8_t>>(
          wire::EncodeDeleteReply(reply));
      return r;
    }
    default:
      return error_reply(base::Status::Internal("unqueueable frame type"));
  }
}

QueryServer::Reply QueryServer::ExecuteQuery(
    ServerSession* session, const wire::QueryRequest& request,
    const std::string& cache_key,
    std::chrono::steady_clock::time_point admit) {
  db::QueryOptions opts = session->options();
  // Arm the per-session trace sink on the worker's local options copy:
  // the knob and the sink pointer ride ExecOptions untouched through
  // MirrorDb into the engine, which Clear()s the sink at Run() entry.
  if (opts.exec.trace) opts.exec.trace_sink = session->trace_sink();
  monet::Recycler* recycler = db_->recycler();
  // Captured BEFORE execution: a mutation racing this query advances
  // the generation (twice, around its apply window), so the insert
  // below is refused and no stale bytes are ever published.
  const uint64_t generation = recycler->generation();
  const monet::TraceCounterSnapshot kernels_before =
      options_.slow_query_ms > 0 ? monet::SnapshotTraceCounters()
                                 : monet::TraceCounterSnapshot{};
  const auto exec_start = std::chrono::steady_clock::now();
  auto result = db_->Query(request.text, request.bindings, opts,
                           session->exec_context());
  const auto exec_end = std::chrono::steady_clock::now();
  if (opts.exec.trace && opts.exec.trace_sink != nullptr) {
    // Publish the merged span table as this session's TRACE reply. The
    // request ordinal doubles as the trace's sequence number, so a
    // client can tell a fresh trace from a re-fetch.
    monet::TraceTable table =
        monet::TraceToBats(opts.exec.trace_sink->Merge());
    auto reply = std::make_shared<wire::TraceReply>();
    reply->query_seq = session->StatsEntry().requests;
    reply->rows = table.rows;
    reply->names = std::move(table.names);
    reply->cols = std::move(table.cols);
    session->StoreTrace(std::move(reply));
  }
  if (options_.slow_query_ms > 0) {
    const uint64_t total_micros = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(exec_end -
                                                              admit)
            .count());
    if (total_micros >= options_.slow_query_ms * 1000) {
      const monet::TraceCounterSnapshot after =
          monet::SnapshotTraceCounters();
      wire::SlowQueryEntry entry;
      entry.session_id = session->id();
      entry.total_micros = total_micros;
      entry.exec_micros = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(exec_end -
                                                                exec_start)
              .count());
      entry.query = mil::ExecutionContext::NormalizeText(request.text);
      entry.bindings_key = request.bindings.CacheKey();
      // Process-wide counter deltas over the execution window: exact
      // when the query ran alone, an attribution hint under concurrency.
      entry.counters = base::StrFormat(
          "tuples_in=%llu tuples_out=%llu morsels=%llu zone_skips=%llu "
          "topk_prunes=%llu bloom_hits=%llu",
          static_cast<unsigned long long>(after.tuples_in -
                                          kernels_before.tuples_in),
          static_cast<unsigned long long>(after.tuples_out -
                                          kernels_before.tuples_out),
          static_cast<unsigned long long>(after.morsel_tasks -
                                          kernels_before.morsel_tasks),
          static_cast<unsigned long long>(after.zone_blocks_skipped -
                                          kernels_before.zone_blocks_skipped),
          static_cast<unsigned long long>(after.topk_pruned -
                                          kernels_before.topk_pruned),
          static_cast<unsigned long long>(after.bloom_hits -
                                          kernels_before.bloom_hits));
      RecordSlowQuery(std::move(entry));
    }
  }
  if (!result.ok()) {
    session->CountError();
    Reply r;
    r.type = wire::FrameType::kError;
    r.payload = std::make_shared<const std::vector<uint8_t>>(
        wire::EncodeError(result.status()));
    return r;
  }
  auto payload = std::make_shared<const std::vector<uint8_t>>(
      wire::EncodeResultReply(result.value()));
  if (payload->size() > options_.max_result_bytes) {
    // Result-size cap: a typed, retryable-by-narrowing failure instead
    // of an unbounded stream.
    session->CountError();
    Reply r;
    r.type = wire::FrameType::kError;
    r.payload = std::make_shared<const std::vector<uint8_t>>(
        wire::EncodeError(base::Status::ResourceExhausted(base::StrFormat(
            "result of %zu bytes exceeds the %llu-byte result cap; "
            "narrow the query",
            payload->size(),
            static_cast<unsigned long long>(options_.max_result_bytes)))));
    return r;
  }
  if (!cache_key.empty() && SessionUsesRecycler(opts)) {
    const uint64_t micros = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - exec_start)
            .count());
    recycler->InsertResult(generation, cache_key, payload, micros);
  }
  Reply r;
  r.type = wire::FrameType::kResult;
  r.payload = std::move(payload);
  return r;
}

QueryServer::Reply QueryServer::ServeQuery(
    ServerSession* session, const std::vector<uint8_t>& payload,
    std::chrono::steady_clock::time_point admit) {
  auto request = wire::DecodeQueryRequest(payload);
  if (!request.ok()) {
    session->CountError();
    Reply r;
    r.type = wire::FrameType::kError;
    r.payload = std::make_shared<const std::vector<uint8_t>>(
        wire::EncodeError(request.status()));
    return r;
  }
  session->CountRequest();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.requests;
  }
  const std::string key = QueryCacheKey(request.value());
  // Worker-side recycler re-check: catches results that landed while
  // this item waited in the queue (the poll loop already answered
  // anything that was cached at dispatch time). It counts nothing: the
  // poll loop's lookup counted this request, and admission reads that
  // count as the number of requests.
  if (SessionUsesRecycler(session->options())) {
    monet::Recycler* recycler = db_->recycler();
    if (auto hit = recycler->PeekResult(recycler->generation(), key)) {
      Reply r;
      r.type = wire::FrameType::kResult;
      r.payload = std::move(hit);
      return r;
    }
  }
  if (!options_.coalesce_queries) {
    return ExecuteQuery(session, request.value(), key, admit);
  }
  std::shared_ptr<InFlightQuery> entry;
  bool is_leader = false;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      entry = it->second;
    } else {
      entry = std::make_shared<InFlightQuery>();
      inflight_[key] = entry;
      is_leader = true;
    }
  }
  if (!is_leader) {
    // A follower's leader is, by construction, already executing on
    // another worker (leadership is taken at execution time), so this
    // wait always has a running thread to make progress — the fixed
    // pool cannot deadlock on itself.
    Reply shared;
    {
      std::unique_lock<std::mutex> lock(entry->mu);
      entry->cv.wait(lock, [&] { return entry->done; });
      shared = entry->reply;
    }
    // Only successful results are shared: a leader's failure may be an
    // artifact of ITS session (a pathological SET, an allocation
    // failure under its config), so a follower re-executes under its
    // own options rather than inheriting another tenant's error.
    if (shared.type != wire::FrameType::kResult) {
      return ExecuteQuery(session, request.value(), key, admit);
    }
    {
      std::lock_guard<std::mutex> slock(mu_);
      ++stats_.coalesced_requests;
    }
    return shared;
  }
  // The leader MUST complete the entry and retire the key on every exit
  // path — an exception escaping execution or marshalling (e.g.
  // bad_alloc on a huge result) would otherwise leave followers (and
  // all future identical queries) waiting on it forever.
  struct Completer {
    QueryServer* server;
    const std::string& key;
    const std::shared_ptr<InFlightQuery>& entry;
    Reply reply = {wire::FrameType::kError,
                   std::make_shared<const std::vector<uint8_t>>(
                       wire::EncodeError(base::Status::Internal(
                           "query leader aborted before completing")))};

    ~Completer() {
      {
        std::lock_guard<std::mutex> lock(entry->mu);
        entry->reply = reply;
        entry->done = true;
        entry->cv.notify_all();
      }
      std::lock_guard<std::mutex> lock(server->inflight_mu_);
      server->inflight_.erase(key);
    }
  } completer{this, key, entry};
  completer.reply = ExecuteQuery(session, request.value(), key, admit);
  return completer.reply;
}

}  // namespace mirror::daemon
