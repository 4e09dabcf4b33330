#include "daemon/wire_client.h"

#include <chrono>
#include <thread>

#include "base/str_util.h"

namespace mirror::daemon::wire {

base::Status WireClient::TrackError(const std::vector<uint8_t>& payload) {
  return DecodeErrorDetail(payload, &last_retry_after_ms_);
}

base::Result<Frame> WireClient::RoundTrip(
    FrameType type, const std::vector<uint8_t>& payload,
    FrameType expected_reply) {
  if (conn_ == nullptr) {
    return base::Status::IoError("client connection is closed");
  }
  last_retry_after_ms_ = 0;
  base::Status s = WriteFrame(conn_.get(), type, payload);
  if (!s.ok()) return s;
  auto reply = ReadFrame(conn_.get());
  if (!reply.ok()) return reply.status();
  if (reply.value().type == FrameType::kError) {
    return TrackError(reply.value().payload);
  }
  if (reply.value().type != expected_reply) {
    return base::Status::ParseError(base::StrFormat(
        "unexpected reply frame type 0x%02x",
        static_cast<unsigned>(reply.value().type)));
  }
  return reply;
}

base::Result<HelloReply> WireClient::Hello(const std::string& client_name) {
  HelloRequest req;
  req.client_name = client_name;
  auto reply = RoundTrip(FrameType::kHello, EncodeHelloRequest(req),
                         FrameType::kHelloOk);
  if (!reply.ok()) return reply.status();
  auto decoded = DecodeHelloReply(reply.value().payload);
  if (decoded.ok()) session_id_ = decoded.value().session_id;
  return decoded;
}

base::Result<ResultReply> WireClient::Query(
    const std::string& text, const moa::QueryContext& bindings) {
  if (conn_ == nullptr) {
    return base::Status::IoError("client connection is closed");
  }
  QueryRequest req;
  req.text = text;
  req.bindings = bindings;
  last_retry_after_ms_ = 0;
  last_result_chunks_ = 0;
  base::Status s =
      WriteFrame(conn_.get(), FrameType::kQuery, EncodeQueryRequest(req));
  if (!s.ok()) return s;
  auto first = ReadFrame(conn_.get());
  if (!first.ok()) return first.status();
  if (first.value().type == FrameType::kError) {
    return TrackError(first.value().payload);
  }
  if (first.value().type == FrameType::kResult) {
    return DecodeResultReply(first.value().payload);
  }
  if (first.value().type != FrameType::kResultChunk) {
    return base::Status::ParseError(base::StrFormat(
        "unexpected reply frame type 0x%02x",
        static_cast<unsigned>(first.value().type)));
  }
  // Streamed result: concatenate the chunk byte ranges, then check the
  // trailer's totals before decoding.
  std::vector<uint8_t> body = std::move(first.value().payload);
  uint32_t chunks = 1;
  for (;;) {
    auto next = ReadFrame(conn_.get());
    if (!next.ok()) return next.status();
    if (next.value().type == FrameType::kResultChunk) {
      body.insert(body.end(), next.value().payload.begin(),
                  next.value().payload.end());
      ++chunks;
      continue;
    }
    if (next.value().type == FrameType::kResultEnd) {
      auto end = DecodeResultEnd(next.value().payload);
      if (!end.ok()) return end.status();
      if (end.value().total_bytes != body.size() ||
          end.value().chunks != chunks) {
        return base::Status::ParseError(base::StrFormat(
            "result stream mismatch: reassembled %zu bytes from %u chunks, "
            "RESULT_END declares %llu bytes in %u chunks",
            body.size(), chunks,
            static_cast<unsigned long long>(end.value().total_bytes),
            end.value().chunks));
      }
      last_result_chunks_ = chunks;
      return DecodeResultReply(body);
    }
    return base::Status::ParseError(base::StrFormat(
        "unexpected frame type 0x%02x inside a result stream",
        static_cast<unsigned>(next.value().type)));
  }
}

base::Result<SetReply> WireClient::Set(const KnobValues& options) {
  auto reply = RoundTrip(FrameType::kSet, EncodeSetRequest({options}),
                         FrameType::kSetOk);
  if (!reply.ok()) return reply.status();
  return DecodeSetRequest(reply.value().payload);
}

base::Result<AppendReply> WireClient::Append(const std::string& bat_name,
                                             monet::Column values) {
  AppendRequest req;
  req.bat_name = bat_name;
  req.values = std::move(values);
  auto reply = RoundTrip(FrameType::kAppend, EncodeAppendRequest(req),
                         FrameType::kAppendOk);
  if (!reply.ok()) return reply.status();
  return DecodeAppendReply(reply.value().payload);
}

base::Result<DeleteReply> WireClient::Delete(const std::string& bat_name,
                                             std::vector<monet::Oid> oids) {
  DeleteRequest req;
  req.bat_name = bat_name;
  req.oids = std::move(oids);
  auto reply = RoundTrip(FrameType::kDelete, EncodeDeleteRequest(req),
                         FrameType::kDeleteOk);
  if (!reply.ok()) return reply.status();
  return DecodeDeleteReply(reply.value().payload);
}

base::Result<StatsReply> WireClient::Stats(bool reset) {
  StatsRequest req;
  req.reset = reset;
  // A plain snapshot keeps the empty-payload form every server version
  // understands; only the reset variant needs the flag byte.
  auto reply = RoundTrip(FrameType::kStats,
                         reset ? EncodeStatsRequest(req)
                               : std::vector<uint8_t>{},
                         FrameType::kStatsResult);
  if (!reply.ok()) return reply.status();
  return DecodeStatsReply(reply.value().payload);
}

base::Result<TraceReply> WireClient::Trace() {
  auto reply = RoundTrip(FrameType::kTrace, {}, FrameType::kTraceResult);
  if (!reply.ok()) return reply.status();
  return DecodeTraceReply(reply.value().payload);
}

base::Status WireClient::Close() {
  auto reply = RoundTrip(FrameType::kClose, {}, FrameType::kCloseOk);
  if (conn_ != nullptr) {
    conn_->Close();
    conn_.reset();
  }
  return reply.ok() ? base::Status::Ok() : reply.status();
}

// ---------------------------------------------------------------------------
// ReconnectingClient.

ReconnectingClient::ReconnectingClient(Dialer dialer, std::string client_name,
                                       RetryPolicy policy)
    : dialer_(std::move(dialer)),
      client_name_(std::move(client_name)),
      policy_(std::move(policy)),
      rng_state_(policy_.jitter_seed == 0 ? 1 : policy_.jitter_seed) {}

void ReconnectingClient::Sleep(uint64_t millis) {
  if (millis == 0) return;
  if (policy_.sleep_fn) {
    policy_.sleep_fn(millis);
    return;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(millis));
}

uint64_t ReconnectingClient::BackoffMs(int round) {
  uint64_t backoff = policy_.initial_backoff_ms;
  for (int i = 0; i < round && backoff < policy_.max_backoff_ms; ++i) {
    backoff *= 2;
  }
  backoff = std::min(backoff, policy_.max_backoff_ms);
  // xorshift32: deterministic per-client jitter in [0, 25%] of the
  // backoff, so synchronized clients spread their retries.
  rng_state_ ^= rng_state_ << 13;
  rng_state_ ^= rng_state_ >> 17;
  rng_state_ ^= rng_state_ << 5;
  uint64_t jitter = (backoff * (rng_state_ & 0xff)) / 1024;
  return backoff + jitter;
}

base::Status ReconnectingClient::EnsureConnected() {
  if (client_ != nullptr) return base::Status::Ok();
  auto conn = dialer_();
  if (!conn.ok()) return conn.status();
  auto client = std::make_unique<WireClient>(conn.TakeValue());
  auto hello = client->Hello(client_name_);
  if (!hello.ok()) return hello.status();
  client_ = std::move(client);
  ++reconnects_;
  return base::Status::Ok();
}

base::Result<ResultReply> ReconnectingClient::Query(
    const std::string& text, const moa::QueryContext& bindings) {
  base::Status last = base::Status::IoError("no attempt made");
  for (int attempt = 0; attempt < std::max(1, policy_.max_attempts);
       ++attempt) {
    if (attempt > 0) Sleep(BackoffMs(attempt - 1));
    base::Status connected = EnsureConnected();
    if (!connected.ok()) {
      last = connected;
      continue;
    }
    auto result = client_->Query(text, bindings);
    if (result.ok()) return result;
    last = result.status();
    switch (last.code()) {
      case base::StatusCode::kOverloaded: {
        // Typed shed: the connection is healthy, retry on it after the
        // server's own hint when it gave one (the backoff above paces
        // the NEXT attempt; the hint takes priority by sleeping now).
        ++overload_retries_;
        uint32_t hint = client_->last_retry_after_ms();
        if (hint > 0) Sleep(hint);
        break;
      }
      case base::StatusCode::kIoError:
      case base::StatusCode::kNotFound:
      case base::StatusCode::kParseError:
        // Transport-level damage: this connection is unusable (or the
        // stream is desynchronized). Reconnect before the next attempt.
        client_.reset();
        break;
      default:
        // Deterministic failures (bad query, deadline, budget, result
        // cap) will fail identically on retry: surface them at once.
        return last;
    }
  }
  return last;
}

base::Status ReconnectingClient::Close() {
  if (client_ == nullptr) return base::Status::Ok();
  base::Status s = client_->Close();
  client_.reset();
  return s;
}

}  // namespace mirror::daemon::wire
