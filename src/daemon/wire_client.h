#ifndef MIRROR_DAEMON_WIRE_CLIENT_H_
#define MIRROR_DAEMON_WIRE_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "daemon/wire.h"

namespace mirror::daemon::wire {

/// A synchronous client of the query-serving daemon: one connection, one
/// session, one request in flight at a time (the protocol is strictly
/// request/reply per connection; open more clients for concurrency —
/// that is exactly what the multi-client tests and the E4 bench do).
///
/// Every call sends one request frame and blocks for the matching reply.
/// Large results arriving as a RESULT_CHUNK/RESULT_END stream are
/// reassembled transparently (and checked against the trailer's totals).
/// An ERROR reply surfaces as the carried Status; transport failures
/// surface as IoError. The destructor closes the transport without the
/// CLOSE handshake; call Close() for a clean goodbye.
class WireClient {
 public:
  explicit WireClient(std::unique_ptr<Transport> conn)
      : conn_(std::move(conn)) {}

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Opens the session. Must be the first call.
  base::Result<HelloReply> Hello(const std::string& client_name);

  /// Runs one Moa query with the given bindings; returns the decoded
  /// result table or scalar (reassembled if the server streamed it).
  base::Result<ResultReply> Query(const std::string& text,
                                  const moa::QueryContext& bindings);

  /// Applies per-session execution overrides; returns every knob's
  /// effective value after the change.
  base::Result<SetReply> Set(const KnobValues& options);

  /// Durably appends values to one named BAT (kAppendOk arrives only
  /// after the server's WAL fsync).
  base::Result<AppendReply> Append(const std::string& bat_name,
                                   monet::Column values);

  /// Durably marks rows deleted in one named BAT.
  base::Result<DeleteReply> Delete(const std::string& bat_name,
                                   std::vector<monet::Oid> oids);

  /// Snapshots server + per-session statistics. With `reset`, the
  /// server zeroes its latency histograms, slow-query ring and kernel
  /// counters after the snapshot (the reply carries pre-reset numbers).
  base::Result<StatsReply> Stats(bool reset = false);

  /// Fetches the session's last traced query as a BAT table (run a
  /// query with `SET exec.trace 1` first; see monet/trace.h for the
  /// column schema). rows == 0 when nothing was traced yet.
  base::Result<TraceReply> Trace();

  /// Clean shutdown: CLOSE handshake, then transport close.
  base::Status Close();

  uint64_t session_id() const { return session_id_; }

  /// Retry-after hint (ms) carried by the most recent ERROR reply — 0
  /// when the last reply succeeded or carried no hint. kOverloaded sheds
  /// set this; ReconnectingClient honors it when pacing retries.
  uint32_t last_retry_after_ms() const { return last_retry_after_ms_; }

  /// Number of RESULT_CHUNK frames the most recent Query() reassembled
  /// (0 when the result arrived as a single RESULT frame).
  uint32_t last_result_chunks() const { return last_result_chunks_; }

 private:
  /// Sends `type` with `payload`, reads one reply frame, maps ERROR
  /// replies to their Status, and checks the reply type.
  base::Result<Frame> RoundTrip(FrameType type,
                                const std::vector<uint8_t>& payload,
                                FrameType expected_reply);

  /// Decodes an ERROR payload, capturing the retry-after hint.
  base::Status TrackError(const std::vector<uint8_t>& payload);

  std::unique_ptr<Transport> conn_;
  uint64_t session_id_ = 0;
  uint32_t last_retry_after_ms_ = 0;
  uint32_t last_result_chunks_ = 0;
};

/// Produces a fresh connected transport on demand — TcpConnect bound to
/// a host/port in production, a channel-pair injector in tests.
using Dialer =
    std::function<base::Result<std::unique_ptr<Transport>>()>;

/// Retry pacing for ReconnectingClient: capped exponential backoff with
/// deterministic jitter. The sleep hook exists so tests can record the
/// exact pacing instead of actually sleeping.
struct RetryPolicy {
  /// Total attempts per request (first try included).
  int max_attempts = 8;
  uint64_t initial_backoff_ms = 10;
  uint64_t max_backoff_ms = 2000;
  /// Deterministic jitter source (xorshift32 seed); two clients with
  /// different seeds desynchronize their retry storms.
  uint32_t jitter_seed = 1;
  /// Injected sleep (ms). Null = std::this_thread::sleep_for.
  std::function<void(uint64_t)> sleep_fn;
};

/// A WireClient wrapper that survives overload sheds and connection
/// loss: kOverloaded errors are retried on the SAME connection after the
/// server's retry-after hint (falling back to capped exponential backoff
/// + jitter when the hint is absent), and transport failures trigger a
/// full reconnect + HELLO before the retry. Errors that re-trying cannot
/// fix (bad queries, deadline/budget exhaustion) pass through untouched.
class ReconnectingClient {
 public:
  ReconnectingClient(Dialer dialer, std::string client_name,
                     RetryPolicy policy = RetryPolicy());

  ReconnectingClient(const ReconnectingClient&) = delete;
  ReconnectingClient& operator=(const ReconnectingClient&) = delete;

  /// Runs one query with retries per the policy. Fails with the last
  /// error once max_attempts is exhausted.
  base::Result<ResultReply> Query(const std::string& text,
                                  const moa::QueryContext& bindings);

  /// Clean goodbye on the current connection, if any.
  base::Status Close();

  uint64_t reconnects() const { return reconnects_; }
  uint64_t overload_retries() const { return overload_retries_; }

 private:
  base::Status EnsureConnected();
  void Sleep(uint64_t millis);
  /// Backoff for the given 0-based retry round, jittered.
  uint64_t BackoffMs(int round);

  Dialer dialer_;
  std::string client_name_;
  RetryPolicy policy_;
  std::unique_ptr<WireClient> client_;
  uint64_t reconnects_ = 0;
  uint64_t overload_retries_ = 0;
  uint32_t rng_state_;
};

}  // namespace mirror::daemon::wire

#endif  // MIRROR_DAEMON_WIRE_CLIENT_H_
