#include "daemon/wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

#include "base/str_util.h"
#include "monet/bat_io.h"
#include "monet/fault_injector.h"

namespace mirror::daemon::wire {

// ---------------------------------------------------------------------------
// In-process byte channel.

namespace {

/// One direction of the duplex pair: a bounded-unbounded byte queue with
/// writer-side close. Readers block until data or close. An eventfd
/// mirrors the "readable" condition (bytes pending or closed) so the
/// server's poll loop can wait on channel endpoints exactly like sockets.
struct Pipe {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<uint8_t> bytes;
  bool closed = false;
  int efd;
  bool signaled = false;

  Pipe() : efd(::eventfd(0, EFD_NONBLOCK)) {}
  ~Pipe() {
    if (efd >= 0) ::close(efd);
  }

  /// Reconciles the eventfd with the queue state. Call with `mu` held
  /// after every mutation — the invariant is: efd readable iff
  /// !bytes.empty() || closed.
  void UpdateSignal() {
    bool want = !bytes.empty() || closed;
    if (want == signaled || efd < 0) return;
    if (want) {
      uint64_t one = 1;
      [[maybe_unused]] ssize_t n = ::write(efd, &one, sizeof(one));
    } else {
      uint64_t drained = 0;
      [[maybe_unused]] ssize_t n = ::read(efd, &drained, sizeof(drained));
    }
    signaled = want;
  }

  void Close() {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
    UpdateSignal();
    cv.notify_all();
  }
};

class ChannelEndpoint : public Transport {
 public:
  ChannelEndpoint(std::shared_ptr<Pipe> in, std::shared_ptr<Pipe> out)
      : in_(std::move(in)), out_(std::move(out)) {}

  ~ChannelEndpoint() override { Close(); }

  base::Result<size_t> Read(uint8_t* buf, size_t n) override {
    if (n == 0) return size_t{0};
    std::unique_lock<std::mutex> lock(in_->mu);
    in_->cv.wait(lock, [&] { return !in_->bytes.empty() || in_->closed; });
    if (in_->bytes.empty()) return size_t{0};  // closed: EOF
    size_t take = std::min(n, in_->bytes.size());
    std::copy_n(in_->bytes.begin(), take, buf);
    in_->bytes.erase(in_->bytes.begin(),
                     in_->bytes.begin() + static_cast<ptrdiff_t>(take));
    in_->UpdateSignal();
    return take;
  }

  base::Status Write(const uint8_t* buf, size_t n) override {
    std::lock_guard<std::mutex> lock(out_->mu);
    if (out_->closed) {
      return base::Status::IoError("byte channel closed");
    }
    out_->bytes.insert(out_->bytes.end(), buf, buf + n);
    out_->UpdateSignal();
    out_->cv.notify_all();
    return base::Status::Ok();
  }

  int PollFd() const override { return in_->efd; }

  IoResult ReadSome(uint8_t* buf, size_t n) override {
    if (n == 0) return IoResult{IoStatus::kOk, 0};
    std::lock_guard<std::mutex> lock(in_->mu);
    if (in_->bytes.empty()) {
      return in_->closed ? IoResult{IoStatus::kEof, 0}
                         : IoResult{IoStatus::kWouldBlock, 0};
    }
    size_t take = std::min(n, in_->bytes.size());
    std::copy_n(in_->bytes.begin(), take, buf);
    in_->bytes.erase(in_->bytes.begin(),
                     in_->bytes.begin() + static_cast<ptrdiff_t>(take));
    in_->UpdateSignal();
    return IoResult{IoStatus::kOk, take};
  }

  IoResult WriteSome(const uint8_t* buf, size_t n) override {
    std::lock_guard<std::mutex> lock(out_->mu);
    if (out_->closed) return IoResult{IoStatus::kError, 0};
    out_->bytes.insert(out_->bytes.end(), buf, buf + n);
    out_->UpdateSignal();
    out_->cv.notify_all();
    return IoResult{IoStatus::kOk, n};
  }

  void Close() override {
    // Closing an endpoint EOFs both directions: the peer's reads drain
    // what was already written, then see EOF; our own blocked read wakes.
    in_->Close();
    out_->Close();
  }

 private:
  std::shared_ptr<Pipe> in_;
  std::shared_ptr<Pipe> out_;
};

}  // namespace

std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
CreateChannelPair() {
  auto a_to_b = std::make_shared<Pipe>();
  auto b_to_a = std::make_shared<Pipe>();
  return {std::make_unique<ChannelEndpoint>(b_to_a, a_to_b),
          std::make_unique<ChannelEndpoint>(a_to_b, b_to_a)};
}

// ---------------------------------------------------------------------------
// POSIX TCP transport.

namespace {

class FdTransport : public Transport {
 public:
  explicit FdTransport(int fd) : fd_(fd) {}

  // The fd stays open (though shut down) until destruction: Close() may
  // race a Read() blocked in recv on another thread, and an early
  // ::close would let the kernel reuse the fd number under that reader.
  // The destructor runs only once no thread uses the transport.
  ~FdTransport() override {
    Close();
    ::close(fd_);
  }

  base::Result<size_t> Read(uint8_t* buf, size_t n) override {
    for (;;) {
      ssize_t got = ::recv(fd_, buf, n, 0);
      if (got >= 0) return static_cast<size_t>(got);
      if (errno == EINTR) continue;
      return base::Status::IoError(
          base::StrFormat("recv failed: %s", std::strerror(errno)));
    }
  }

  base::Status Write(const uint8_t* buf, size_t n) override {
    size_t sent = 0;
    while (sent < n) {
      ssize_t w = ::send(fd_, buf + sent, n - sent, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        return base::Status::IoError(
            base::StrFormat("send failed: %s", std::strerror(errno)));
      }
      sent += static_cast<size_t>(w);
    }
    return base::Status::Ok();
  }

  void Close() override {
    std::lock_guard<std::mutex> lock(mu_);
    if (!shut_down_) {
      shut_down_ = true;
      ::shutdown(fd_, SHUT_RDWR);
    }
  }

  int PollFd() const override { return fd_; }

  IoResult ReadSome(uint8_t* buf, size_t n) override {
    for (;;) {
      ssize_t got = ::recv(fd_, buf, n, MSG_DONTWAIT);
      if (got > 0) return IoResult{IoStatus::kOk, static_cast<size_t>(got)};
      if (got == 0) return IoResult{IoStatus::kEof, 0};
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return IoResult{IoStatus::kWouldBlock, 0};
      }
      return IoResult{IoStatus::kError, 0};
    }
  }

  IoResult WriteSome(const uint8_t* buf, size_t n) override {
    for (;;) {
      ssize_t w = ::send(fd_, buf, n, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (w >= 0) return IoResult{IoStatus::kOk, static_cast<size_t>(w)};
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return IoResult{IoStatus::kWouldBlock, 0};
      }
      return IoResult{IoStatus::kError, 0};
    }
  }

 private:
  std::mutex mu_;
  const int fd_;
  bool shut_down_ = false;
};

class PosixTcpListener : public TcpListener {
 public:
  PosixTcpListener(int fd, int port) : fd_(fd), port_(port) {}

  // Same deferred-::close discipline as FdTransport: Accept() may be
  // blocked on another thread when Close() runs.
  ~PosixTcpListener() override {
    Close();
    ::close(fd_);
  }

  base::Result<std::unique_ptr<Transport>> Accept() override {
    for (;;) {
      int client = ::accept(fd_, nullptr, nullptr);
      if (client >= 0) {
        int one = 1;
        ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        return std::unique_ptr<Transport>(new FdTransport(client));
      }
      // EINTR and a client that hung up between SYN and accept are not
      // listener failures; only real errors (including our own Close's
      // shutdown) surface.
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return base::Status::IoError(
          base::StrFormat("accept failed: %s", std::strerror(errno)));
    }
  }

  void Close() override {
    std::lock_guard<std::mutex> lock(mu_);
    if (!shut_down_) {
      shut_down_ = true;
      ::shutdown(fd_, SHUT_RDWR);
    }
  }

  int port() const override { return port_; }

 private:
  std::mutex mu_;
  const int fd_;
  bool shut_down_ = false;
  int port_ = 0;
};

}  // namespace

base::Result<std::unique_ptr<TcpListener>> TcpListen(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return base::Status::IoError(
        base::StrFormat("socket failed: %s", std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0) {
    base::Status err = base::Status::IoError(
        base::StrFormat("bind/listen failed: %s", std::strerror(errno)));
    ::close(fd);
    return err;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    base::Status err = base::Status::IoError("getsockname failed");
    ::close(fd);
    return err;
  }
  return std::unique_ptr<TcpListener>(
      new PosixTcpListener(fd, ntohs(addr.sin_port)));
}

base::Result<std::unique_ptr<Transport>> TcpConnect(const std::string& host,
                                                    int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return base::Status::IoError(
        base::StrFormat("socket failed: %s", std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return base::Status::InvalidArgument(
        base::StrFormat("not an IPv4 address: %s", host.c_str()));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    base::Status err = base::Status::IoError(
        base::StrFormat("connect failed: %s", std::strerror(errno)));
    ::close(fd);
    return err;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<Transport>(new FdTransport(fd));
}

// ---------------------------------------------------------------------------
// Frame I/O.

namespace {

/// Reads exactly `n` bytes. `saw_any` reports whether at least one byte
/// arrived before EOF, distinguishing a clean close from truncation.
base::Status ReadExact(Transport* t, uint8_t* buf, size_t n,
                       bool* saw_any) {
  size_t got = 0;
  while (got < n) {
    auto r = t->Read(buf + got, n - got);
    if (!r.ok()) return r.status();
    if (r.value() == 0) {
      return got == 0 && !*saw_any
                 ? base::Status::NotFound("connection closed")
                 : base::Status::IoError("truncated frame");
    }
    *saw_any = true;
    got += r.value();
  }
  return base::Status::Ok();
}

}  // namespace

bool IsKnownFrameType(uint8_t t) {
  switch (static_cast<FrameType>(t)) {
    case FrameType::kHello:
    case FrameType::kQuery:
    case FrameType::kSet:
    case FrameType::kStats:
    case FrameType::kClose:
    case FrameType::kAppend:
    case FrameType::kDelete:
    case FrameType::kTrace:
    case FrameType::kHelloOk:
    case FrameType::kResult:
    case FrameType::kSetOk:
    case FrameType::kStatsResult:
    case FrameType::kCloseOk:
    case FrameType::kAppendOk:
    case FrameType::kDeleteOk:
    case FrameType::kResultChunk:
    case FrameType::kResultEnd:
    case FrameType::kTraceResult:
    case FrameType::kError:
      return true;
  }
  return false;
}

base::Status WriteFrame(Transport* t, FrameType type,
                        const std::vector<uint8_t>& payload) {
  if (payload.size() > kMaxFramePayload) {
    return base::Status::InvalidArgument("frame payload too large");
  }
  uint8_t header[5];
  header[0] = static_cast<uint8_t>(type);
  uint32_t len = static_cast<uint32_t>(payload.size());
  std::memcpy(header + 1, &len, sizeof(len));
  base::Status s = t->Write(header, sizeof(header));
  if (!s.ok()) return s;
  if (!payload.empty()) return t->Write(payload.data(), payload.size());
  return base::Status::Ok();
}

base::Result<Frame> ReadFrame(Transport* t) {
  uint8_t header[5];
  bool saw_any = false;
  base::Status s = ReadExact(t, header, sizeof(header), &saw_any);
  if (!s.ok()) return s;
  if (!IsKnownFrameType(header[0])) {
    return base::Status::ParseError(
        base::StrFormat("unknown frame type 0x%02x", header[0]));
  }
  uint32_t len = 0;
  std::memcpy(&len, header + 1, sizeof(len));
  if (len > kMaxFramePayload) {
    return base::Status::ParseError(
        base::StrFormat("frame payload of %u bytes exceeds the %u limit",
                        len, kMaxFramePayload));
  }
  Frame frame;
  frame.type = static_cast<FrameType>(header[0]);
  frame.payload.resize(len);
  if (len > 0) {
    s = ReadExact(t, frame.payload.data(), len, &saw_any);
    if (!s.ok()) return s;
  }
  return frame;
}

// ---------------------------------------------------------------------------
// Primitive payload codec.

namespace {

class Writer {
 public:
  void U8(uint8_t v) { out_.push_back(v); }
  void U32(uint32_t v) { Pod(v); }
  void U64(uint64_t v) { Pod(v); }
  void I64(int64_t v) { Pod(v); }
  void F64(double v) { Pod(v); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    const uint8_t* p = reinterpret_cast<const uint8_t*>(s.data());
    out_.insert(out_.end(), p, p + s.size());
  }

  std::vector<uint8_t>* buffer() { return &out_; }
  std::vector<uint8_t> Take() { return std::move(out_); }

 private:
  template <typename T>
  void Pod(T v) {
    const uint8_t* p = reinterpret_cast<const uint8_t*>(&v);
    out_.insert(out_.end(), p, p + sizeof(T));
  }

  std::vector<uint8_t> out_;
};

class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& buf) : buf_(buf) {}

  bool U8(uint8_t* v) { return Pod(v); }
  bool U32(uint32_t* v) { return Pod(v); }
  bool U64(uint64_t* v) { return Pod(v); }
  bool I64(int64_t* v) { return Pod(v); }
  bool F64(double* v) { return Pod(v); }
  bool Str(std::string* v) {
    uint32_t n = 0;
    if (!U32(&n)) return false;
    if (buf_.size() - pos_ < n) return false;
    v->assign(reinterpret_cast<const char*>(buf_.data() + pos_), n);
    pos_ += n;
    return true;
  }

  size_t* pos() { return &pos_; }
  const std::vector<uint8_t>& buf() const { return buf_; }
  size_t remaining() const { return buf_.size() - pos_; }

 private:
  template <typename T>
  bool Pod(T* v) {
    if (buf_.size() - pos_ < sizeof(T) || pos_ > buf_.size()) return false;
    std::memcpy(v, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  const std::vector<uint8_t>& buf_;
  size_t pos_ = 0;
};

base::Status Malformed(const char* what) {
  return base::Status::ParseError(
      base::StrFormat("malformed %s payload", what));
}

/// The knob list of SET, SET_OK and the STATS session entries: a u32
/// count, then (key, i64) pairs.
void WriteKnobs(Writer* w, const KnobValues& knobs) {
  w->U32(static_cast<uint32_t>(knobs.size()));
  for (const auto& [key, value] : knobs) {
    w->Str(key);
    w->I64(value);
  }
}

bool ReadKnobs(Reader* r, KnobValues* knobs) {
  uint32_t n = 0;
  if (!r->U32(&n)) return false;
  // Reserve only what the remaining payload could hold (>= 12 bytes per
  // pair): a hostile count in a tiny frame must fail below, not allocate.
  knobs->reserve(std::min<size_t>(n, r->remaining() / 12 + 1));
  for (uint32_t i = 0; i < n; ++i) {
    std::string key;
    int64_t value = 0;
    if (!r->Str(&key) || !r->I64(&value)) return false;
    knobs->emplace_back(std::move(key), value);
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Message codecs.

std::vector<uint8_t> EncodeHelloRequest(const HelloRequest& m) {
  Writer w;
  w.U32(m.protocol_version);
  w.Str(m.client_name);
  return w.Take();
}

base::Result<HelloRequest> DecodeHelloRequest(const std::vector<uint8_t>& p) {
  Reader r(p);
  HelloRequest m;
  if (!r.U32(&m.protocol_version) || !r.Str(&m.client_name)) {
    return Malformed("HELLO");
  }
  return m;
}

std::vector<uint8_t> EncodeHelloReply(const HelloReply& m) {
  Writer w;
  w.U32(m.protocol_version);
  w.U64(m.session_id);
  w.Str(m.server_name);
  return w.Take();
}

base::Result<HelloReply> DecodeHelloReply(const std::vector<uint8_t>& p) {
  Reader r(p);
  HelloReply m;
  if (!r.U32(&m.protocol_version) || !r.U64(&m.session_id) ||
      !r.Str(&m.server_name)) {
    return Malformed("HELLO reply");
  }
  return m;
}

std::vector<uint8_t> EncodeQueryRequest(const QueryRequest& m) {
  Writer w;
  w.Str(m.text);
  w.U32(static_cast<uint32_t>(m.bindings.bindings().size()));
  for (const auto& [name, terms] : m.bindings.bindings()) {
    w.Str(name);
    w.U32(static_cast<uint32_t>(terms.size()));
    for (const moa::WeightedTerm& t : terms) {
      w.Str(t.term);
      w.F64(t.weight);
    }
  }
  return w.Take();
}

base::Result<QueryRequest> DecodeQueryRequest(const std::vector<uint8_t>& p) {
  Reader r(p);
  QueryRequest m;
  uint32_t num_bindings = 0;
  if (!r.Str(&m.text) || !r.U32(&num_bindings)) return Malformed("QUERY");
  for (uint32_t b = 0; b < num_bindings; ++b) {
    std::string name;
    uint32_t num_terms = 0;
    if (!r.Str(&name) || !r.U32(&num_terms)) return Malformed("QUERY");
    std::vector<moa::WeightedTerm> terms;
    // Reserve from the wire count only up to what the remaining payload
    // could possibly hold (>= 12 bytes per term): a malicious count in a
    // tiny frame must fail with ParseError below, not allocate gigabytes.
    terms.reserve(std::min<size_t>(num_terms, r.remaining() / 12 + 1));
    for (uint32_t i = 0; i < num_terms; ++i) {
      moa::WeightedTerm t;
      if (!r.Str(&t.term) || !r.F64(&t.weight)) return Malformed("QUERY");
      terms.push_back(std::move(t));
    }
    m.bindings.Bind(name, std::move(terms));
  }
  return m;
}

std::vector<uint8_t> EncodeSetRequest(const SetRequest& m) {
  Writer w;
  WriteKnobs(&w, m.options);
  return w.Take();
}

base::Result<SetRequest> DecodeSetRequest(const std::vector<uint8_t>& p) {
  Reader r(p);
  SetRequest m;
  if (!ReadKnobs(&r, &m.options)) return Malformed("SET");
  return m;
}

std::vector<uint8_t> EncodeAppendRequest(const AppendRequest& m) {
  Writer w;
  w.Str(m.bat_name);
  monet::EncodeColumn(m.values, w.buffer());
  return w.Take();
}

base::Result<AppendRequest> DecodeAppendRequest(
    const std::vector<uint8_t>& p) {
  Reader r(p);
  AppendRequest m;
  if (!r.Str(&m.bat_name)) return Malformed("APPEND");
  auto values = monet::DecodeColumn(r.buf(), r.pos(), kMaxFramePayload);
  if (!values.ok()) return values.status();
  m.values = values.TakeValue();
  return m;
}

std::vector<uint8_t> EncodeAppendReply(const AppendReply& m) {
  Writer w;
  w.U64(m.lsn);
  w.U64(m.visible_rows);
  return w.Take();
}

base::Result<AppendReply> DecodeAppendReply(const std::vector<uint8_t>& p) {
  Reader r(p);
  AppendReply m;
  if (!r.U64(&m.lsn) || !r.U64(&m.visible_rows)) {
    return Malformed("APPEND reply");
  }
  return m;
}

std::vector<uint8_t> EncodeDeleteRequest(const DeleteRequest& m) {
  Writer w;
  w.Str(m.bat_name);
  monet::EncodeColumn(monet::Column::MakeOids(m.oids), w.buffer());
  return w.Take();
}

base::Result<DeleteRequest> DecodeDeleteRequest(
    const std::vector<uint8_t>& p) {
  Reader r(p);
  DeleteRequest m;
  if (!r.Str(&m.bat_name)) return Malformed("DELETE");
  auto oids = monet::DecodeColumn(r.buf(), r.pos(), kMaxFramePayload);
  if (!oids.ok()) return oids.status();
  if (oids.value().type() != monet::ValueType::kOid) {
    return Malformed("DELETE");
  }
  m.oids.assign(oids.value().oids().begin(), oids.value().oids().end());
  return m;
}

std::vector<uint8_t> EncodeDeleteReply(const DeleteReply& m) {
  Writer w;
  w.U64(m.lsn);
  w.U64(m.visible_rows);
  w.U64(m.deleted);
  return w.Take();
}

base::Result<DeleteReply> DecodeDeleteReply(const std::vector<uint8_t>& p) {
  Reader r(p);
  DeleteReply m;
  if (!r.U64(&m.lsn) || !r.U64(&m.visible_rows) || !r.U64(&m.deleted)) {
    return Malformed("DELETE reply");
  }
  return m;
}

std::vector<uint8_t> EncodeResultReply(const moa::EvalOutput& out) {
  Writer w;
  w.U8(out.is_scalar ? 1 : 0);
  if (out.is_scalar) {
    monet::EncodeValue(out.scalar, w.buffer());
  } else {
    // An absent BAT (defensive; engines always set one) ships as an
    // empty int table.
    if (out.bat == nullptr) {
      monet::EncodeBat(
          monet::Bat::Empty(monet::ValueType::kVoid, monet::ValueType::kInt),
          w.buffer());
    } else {
      monet::EncodeBat(*out.bat, w.buffer());
    }
  }
  return w.Take();
}

base::Result<ResultReply> DecodeResultReply(const std::vector<uint8_t>& p) {
  Reader r(p);
  ResultReply m;
  uint8_t is_scalar = 0;
  if (!r.U8(&is_scalar)) return Malformed("RESULT");
  m.is_scalar = is_scalar != 0;
  if (m.is_scalar) {
    auto v = monet::DecodeValue(r.buf(), r.pos());
    if (!v.ok()) return v.status();
    m.scalar = v.TakeValue();
  } else {
    auto bat = monet::DecodeBat(r.buf(), r.pos());
    if (!bat.ok()) return bat.status();
    m.bat = std::make_shared<const monet::Bat>(bat.TakeValue());
  }
  return m;
}

std::vector<uint8_t> EncodeResultEnd(const ResultEnd& m) {
  Writer w;
  w.U64(m.total_bytes);
  w.U32(m.chunks);
  return w.Take();
}

base::Result<ResultEnd> DecodeResultEnd(const std::vector<uint8_t>& p) {
  Reader r(p);
  ResultEnd m;
  if (!r.U64(&m.total_bytes) || !r.U32(&m.chunks)) {
    return Malformed("RESULT_END");
  }
  return m;
}

std::vector<uint8_t> EncodeError(const base::Status& status) {
  Writer w;
  w.U8(static_cast<uint8_t>(status.code()));
  w.Str(status.message());
  return w.Take();
}

std::vector<uint8_t> EncodeError(const base::Status& status,
                                 uint32_t retry_after_ms) {
  Writer w;
  w.U8(static_cast<uint8_t>(status.code()));
  w.Str(status.message());
  w.U32(retry_after_ms);
  return w.Take();
}

base::Status DecodeError(const std::vector<uint8_t>& p) {
  uint32_t ignored = 0;
  return DecodeErrorDetail(p, &ignored);
}

base::Status DecodeErrorDetail(const std::vector<uint8_t>& p,
                               uint32_t* retry_after_ms) {
  *retry_after_ms = 0;
  Reader r(p);
  uint8_t code = 0;
  std::string message;
  if (!r.U8(&code) || !r.Str(&message)) return Malformed("ERROR");
  // The retry-after hint is optional (and further trailing bytes are
  // tolerated for forward compatibility).
  uint32_t hint = 0;
  if (r.U32(&hint)) *retry_after_ms = hint;
  // An error frame must decode to an error: an out-of-range or OK code
  // (corrupt or future peer) degrades to Internal rather than "success".
  if (code == 0 ||
      code > static_cast<uint8_t>(base::StatusCode::kResourceExhausted)) {
    return base::Status::Internal(std::move(message));
  }
  return base::Status(static_cast<base::StatusCode>(code),
                      std::move(message));
}

namespace {

void WriteHistogram(Writer* w, const HistogramSummary& h) {
  w->U64(h.count);
  w->U64(h.sum_micros);
  w->U64(h.max_micros);
  w->U64(h.p50_micros);
  w->U64(h.p90_micros);
  w->U64(h.p99_micros);
  for (size_t i = 0; i < kHistogramBuckets; ++i) w->U64(h.buckets[i]);
}

bool ReadHistogram(Reader* r, HistogramSummary* h) {
  if (!r->U64(&h->count) || !r->U64(&h->sum_micros) ||
      !r->U64(&h->max_micros) || !r->U64(&h->p50_micros) ||
      !r->U64(&h->p90_micros) || !r->U64(&h->p99_micros)) {
    return false;
  }
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    if (!r->U64(&h->buckets[i])) return false;
  }
  return true;
}

void WriteClassLatency(Writer* w, const RequestClassLatency& c) {
  WriteHistogram(w, c.queue_wait);
  WriteHistogram(w, c.exec);
  WriteHistogram(w, c.total);
}

bool ReadClassLatency(Reader* r, RequestClassLatency* c) {
  return ReadHistogram(r, &c->queue_wait) && ReadHistogram(r, &c->exec) &&
         ReadHistogram(r, &c->total);
}

}  // namespace

std::vector<uint8_t> EncodeStatsReply(const StatsReply& m) {
  Writer w;
  for (const ServerCounter& c : kServerCounters) w.U64(m.server.*c.field);
  w.U32(static_cast<uint32_t>(m.sessions.size()));
  for (const SessionStatsEntry& s : m.sessions) {
    w.U64(s.session_id);
    w.Str(s.client_name);
    w.U64(s.requests);
    w.U64(s.errors);
    w.U64(s.plan_cache_size);
    w.U64(s.plan_cache_hits);
    w.U64(s.plan_cache_lookups);
    WriteKnobs(&w, s.options);
  }
  WriteClassLatency(&w, m.server.latency_query);
  WriteClassLatency(&w, m.server.latency_append);
  WriteClassLatency(&w, m.server.latency_delete);
  w.U32(static_cast<uint32_t>(m.server.slow_queries.size()));
  for (const SlowQueryEntry& e : m.server.slow_queries) {
    w.U64(e.session_id);
    w.U64(e.total_micros);
    w.U64(e.exec_micros);
    w.Str(e.query);
    w.Str(e.bindings_key);
    w.Str(e.counters);
  }
  return w.Take();
}

std::vector<uint8_t> EncodeStatsRequest(const StatsRequest& m) {
  Writer w;
  w.U8(m.reset ? 1 : 0);
  return w.Take();
}

base::Result<StatsRequest> DecodeStatsRequest(const std::vector<uint8_t>& p) {
  StatsRequest m;
  // Pre-reset clients send STATS with no payload at all.
  if (p.empty()) return m;
  Reader r(p);
  uint8_t reset = 0;
  if (!r.U8(&reset)) return Malformed("STATS");
  m.reset = reset != 0;
  return m;
}

std::vector<uint8_t> EncodeTraceReply(const TraceReply& m) {
  Writer w;
  w.U64(m.query_seq);
  w.U64(m.rows);
  w.U32(static_cast<uint32_t>(m.names.size()));
  for (const std::string& name : m.names) w.Str(name);
  w.U32(static_cast<uint32_t>(m.cols.size()));
  for (const monet::Bat& col : m.cols) monet::EncodeBat(col, w.buffer());
  return w.Take();
}

base::Result<TraceReply> DecodeTraceReply(const std::vector<uint8_t>& p) {
  Reader r(p);
  TraceReply m;
  uint32_t num_names = 0;
  if (!r.U64(&m.query_seq) || !r.U64(&m.rows) || !r.U32(&num_names)) {
    return Malformed("TRACE reply");
  }
  m.names.reserve(std::min<size_t>(num_names, r.remaining() / 4 + 1));
  for (uint32_t i = 0; i < num_names; ++i) {
    std::string name;
    if (!r.Str(&name)) return Malformed("TRACE reply");
    m.names.push_back(std::move(name));
  }
  uint32_t num_cols = 0;
  if (!r.U32(&num_cols)) return Malformed("TRACE reply");
  if (num_cols != m.names.size()) return Malformed("TRACE reply");
  m.cols.reserve(num_cols);
  for (uint32_t i = 0; i < num_cols; ++i) {
    auto col = monet::DecodeBat(r.buf(), r.pos());
    if (!col.ok()) return col.status();
    m.cols.push_back(col.TakeValue());
  }
  return m;
}

base::Result<StatsReply> DecodeStatsReply(const std::vector<uint8_t>& p) {
  Reader r(p);
  StatsReply m;
  uint32_t num_sessions = 0;
  for (const ServerCounter& c : kServerCounters) {
    if (!r.U64(&(m.server.*c.field))) return Malformed("STATS reply");
  }
  if (!r.U32(&num_sessions)) return Malformed("STATS reply");
  m.sessions.reserve(
      std::min<size_t>(num_sessions, r.remaining() / 56 + 1));
  for (uint32_t i = 0; i < num_sessions; ++i) {
    SessionStatsEntry s;
    if (!r.U64(&s.session_id) || !r.Str(&s.client_name) ||
        !r.U64(&s.requests) || !r.U64(&s.errors) ||
        !r.U64(&s.plan_cache_size) || !r.U64(&s.plan_cache_hits) ||
        !r.U64(&s.plan_cache_lookups) || !ReadKnobs(&r, &s.options)) {
      return Malformed("STATS reply");
    }
    m.sessions.push_back(std::move(s));
  }
  // Latency histograms and the slow-query ring ride after the session
  // entries; a payload from a pre-histogram server simply ends here and
  // leaves the defaults (all-zero histograms, empty ring).
  if (r.remaining() == 0) return m;
  if (!ReadClassLatency(&r, &m.server.latency_query) ||
      !ReadClassLatency(&r, &m.server.latency_append) ||
      !ReadClassLatency(&r, &m.server.latency_delete)) {
    return Malformed("STATS reply");
  }
  uint32_t num_slow = 0;
  if (!r.U32(&num_slow)) return Malformed("STATS reply");
  m.server.slow_queries.reserve(
      std::min<size_t>(num_slow, r.remaining() / 36 + 1));
  for (uint32_t i = 0; i < num_slow; ++i) {
    SlowQueryEntry e;
    if (!r.U64(&e.session_id) || !r.U64(&e.total_micros) ||
        !r.U64(&e.exec_micros) || !r.Str(&e.query) ||
        !r.Str(&e.bindings_key) || !r.Str(&e.counters)) {
      return Malformed("STATS reply");
    }
    m.server.slow_queries.push_back(std::move(e));
  }
  return m;
}

// ---------------------------------------------------------------------------
// Latency-histogram bucket layout and rendering. The bounds are part of
// the wire format (bucket counts travel raw in HistogramSummary), so the
// layout lives here rather than in the server.

uint64_t HistogramBucketBound(size_t i) {
  // 0, 1, then alternating x2 / x1.5 steps (~sqrt(2) per bucket):
  // 2, 3, 4, 6, 8, 12, 16, 24, ... up to 2^31 us (~36 min) at bucket
  // 62; bucket 63 is the overflow catch-all.
  if (i == 0) return 0;
  if (i == 1) return 1;
  if (i >= kHistogramBuckets - 1) return UINT64_MAX;
  size_t k = i / 2;  // i = 2k or 2k+1, k >= 1
  return (i % 2 == 0) ? (uint64_t{1} << k) : (uint64_t{3} << (k - 1));
}

size_t HistogramBucketIndex(uint64_t micros) {
  for (size_t i = 0; i < kHistogramBuckets - 1; ++i) {
    if (micros <= HistogramBucketBound(i)) return i;
  }
  return kHistogramBuckets - 1;
}

uint64_t HistogramPercentile(const HistogramSummary& h, double q) {
  if (h.count == 0) return 0;
  q = std::min(1.0, std::max(0.0, q));
  double rank = q * static_cast<double>(h.count);
  uint64_t cum = 0;
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    uint64_t c = h.buckets[i];
    if (c == 0) continue;
    if (static_cast<double>(cum) + static_cast<double>(c) >= rank) {
      uint64_t hi = HistogramBucketBound(i);
      // The overflow bucket has no finite upper bound: the tracked
      // maximum is the best available estimate.
      if (hi == UINT64_MAX) return h.max_micros;
      uint64_t lo = i == 0 ? 0 : HistogramBucketBound(i - 1);
      double frac = (rank - static_cast<double>(cum)) /
                    static_cast<double>(c);
      uint64_t v =
          lo + static_cast<uint64_t>(static_cast<double>(hi - lo) * frac);
      if (h.max_micros > 0) v = std::min(v, h.max_micros);
      return v;
    }
    cum += c;
  }
  return h.max_micros;
}

namespace {

void RenderHistogramText(const char* cls, const char* stage,
                         const HistogramSummary& h, std::string* out) {
  uint64_t cum = 0;
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    cum += h.buckets[i];
    if (h.buckets[i] == 0 && i + 1 < kHistogramBuckets) continue;
    uint64_t bound = HistogramBucketBound(i);
    if (i + 1 == kHistogramBuckets) {
      out->append(base::StrFormat(
          "mirror_request_latency_microseconds_bucket"
          "{class=\"%s\",stage=\"%s\",le=\"+Inf\"} %llu\n",
          cls, stage, static_cast<unsigned long long>(cum)));
    } else {
      out->append(base::StrFormat(
          "mirror_request_latency_microseconds_bucket"
          "{class=\"%s\",stage=\"%s\",le=\"%llu\"} %llu\n",
          cls, stage, static_cast<unsigned long long>(bound),
          static_cast<unsigned long long>(cum)));
    }
  }
  out->append(base::StrFormat(
      "mirror_request_latency_microseconds_sum{class=\"%s\",stage=\"%s\"} "
      "%llu\n",
      cls, stage, static_cast<unsigned long long>(h.sum_micros)));
  out->append(base::StrFormat(
      "mirror_request_latency_microseconds_count{class=\"%s\",stage=\"%s\"} "
      "%llu\n",
      cls, stage, static_cast<unsigned long long>(h.count)));
}

void RenderClassText(const char* cls, const RequestClassLatency& c,
                     std::string* out) {
  RenderHistogramText(cls, "queue_wait", c.queue_wait, out);
  RenderHistogramText(cls, "exec", c.exec, out);
  RenderHistogramText(cls, "total", c.total, out);
}

}  // namespace

std::string RenderPrometheusText(const StatsReply& m) {
  std::string out;
  for (const ServerCounter& c : kServerCounters) {
    const bool gauge = c.kind == CounterKind::kGauge;
    const std::string name =
        base::StrFormat("mirror_%s%s", c.name, gauge ? "" : "_total");
    out.append(base::StrFormat(
        "# TYPE %s %s\n%s %llu\n", name.c_str(), gauge ? "gauge" : "counter",
        name.c_str(), static_cast<unsigned long long>(m.server.*c.field)));
  }
  out.append(
      "# TYPE mirror_request_latency_microseconds histogram\n");
  RenderClassText("query", m.server.latency_query, &out);
  RenderClassText("append", m.server.latency_append, &out);
  RenderClassText("delete", m.server.latency_delete, &out);
  return out;
}

// ---------------------------------------------------------------------------
// Chaos transport (client-side network fault injection).

namespace {

class ChaosTransport : public Transport {
 public:
  ChaosTransport(std::unique_ptr<Transport> inner,
                 monet::NetFaultInjector* injector)
      : inner_(std::move(inner)), injector_(injector) {}

  base::Result<size_t> Read(uint8_t* buf, size_t n) override {
    monet::NetFaultInjector::ReadFault f = injector_->BeforeRead(n);
    if (f.delay_micros > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(f.delay_micros));
    }
    if (f.disconnect) {
      inner_->Close();
      return base::Status::IoError("chaos: disconnected before read");
    }
    return inner_->Read(buf, n);
  }

  base::Status Write(const uint8_t* buf, size_t n) override {
    // Each iteration is one "kernel write": the injector caps how many
    // bytes land, so a frame dribbles out in short writes (and can be
    // cut dead mid-frame with disconnect_after).
    size_t sent = 0;
    while (sent < n) {
      monet::NetFaultInjector::WriteFault f = injector_->BeforeWrite(n - sent);
      if (f.delay_micros > 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(f.delay_micros));
      }
      size_t take = std::min(n - sent, f.max_bytes);
      if (take > 0) {
        base::Status s = inner_->Write(buf + sent, take);
        if (!s.ok()) return s;
        sent += take;
      }
      if (f.disconnect_after) {
        inner_->Close();
        return base::Status::IoError("chaos: disconnected mid-write");
      }
      if (take == 0) {
        return base::Status::IoError("chaos: write suppressed");
      }
    }
    return base::Status::Ok();
  }

  void Close() override { inner_->Close(); }

  int PollFd() const override { return inner_->PollFd(); }

  IoResult ReadSome(uint8_t* buf, size_t n) override {
    return inner_->ReadSome(buf, n);
  }

  IoResult WriteSome(const uint8_t* buf, size_t n) override {
    return inner_->WriteSome(buf, n);
  }

 private:
  std::unique_ptr<Transport> inner_;
  monet::NetFaultInjector* injector_;
};

}  // namespace

std::unique_ptr<Transport> WrapChaos(std::unique_ptr<Transport> inner,
                                     monet::NetFaultInjector* injector) {
  return std::make_unique<ChaosTransport>(std::move(inner), injector);
}

}  // namespace mirror::daemon::wire
