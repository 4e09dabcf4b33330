// mirror_bench: one run of one workload of the end-to-end benchmark.
//
//   mirror_bench --workload W --seed N --seconds S --trace 0|1
//                [--quick] [--out-dir DIR]
//   mirror_bench --host
//
// Generates W's catalog from the seed, loads it into a
// daemon::QueryServer listening on loopback TCP, and drives it with
// wire::WireClient connections from this same process (at most four
// load threads, one per connection). A run is: set-up, a warm-up whose
// requests are discarded, an untraced window of S seconds, and then the
// answer checks. With --trace 1 the window is followed by a traced run
// that continues the request stream with `SET exec.trace 1`, and by a
// single-threaded replay that times each layer's public calls. An
// untraced run prints the end-to-end metrics, a traced run the
// per-layer metrics (the window's client-observed times among them):
// "<workload> <metric> <value> <unit> n=<samples>" lines, then one JSON
// object as the last line of standard output. README.md defines every
// metric. A wrong answer exits 1.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.h"
#include "base/str_util.h"
#include "daemon/query_server.h"
#include "daemon/wire.h"
#include "daemon/wire_client.h"
#include "harness.h"
#include "mirror/mirror_db.h"
#include "monet/profiler.h"
#include "workloads.h"

namespace {

using namespace mirror;         // NOLINT(build/namespaces)
using namespace mirror::bench;  // NOLINT(build/namespaces)
namespace wire = daemon::wire;
namespace fs = std::filesystem;

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 5;
/// Warm-up before the window; its requests are not measured.
constexpr double kWarmupSeconds = 3;
/// APPENDs of the probe that measures append latency on workloads
/// without a write stream, and of the MirrorDb::Append replay.
constexpr uint64_t kAppendProbes = 1000;
/// Requests the layer replay re-executes one call at a time.
constexpr uint64_t kReplayRequests = 200;
/// A traced connection fetches its TRACE table after this many queries.
constexpr uint64_t kTraceEvery = 8;
/// Spans kept per thread; later ones are counted and dropped.
constexpr size_t kSpansPerTrack = 10000;
/// Tolerance of the naive-oracle comparison (its scores differ from the
/// engine's in the last bits).
constexpr double kOracleTolerance = 1e-9;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
  bool quick = false;
  std::string out_dir = "build/e2e";
};

[[noreturn]] void Usage(const std::string& msg) {
  std::fprintf(stderr,
               "%s\nusage: mirror_bench --workload W --seed N --seconds S "
               "--trace 0|1 [--quick] [--out-dir DIR]\n"
               "       mirror_bench --host\n",
               msg.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value for " + flag);
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        a.workload = value();
      } else if (flag == "--seed") {
        a.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value());
      } else if (flag == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (flag == "--quick") {
        a.quick = true;
      } else if (flag == "--out-dir") {
        a.out_dir = value();
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      Usage("bad value for " + flag);
    }
  }
  if (!(a.seconds > 0)) Usage("--seconds must be positive");
  return a;
}

/// What one phase's connections recorded; one instance per connection
/// thread, merged after the phase.
struct PhaseStats {
  LogHistogram read_latency;  // successful reads
  double read_service_s = 0;  // successful reads, send to reply, summed
  double last_read_done = 0;  // the latest successful read's reply
  LogHistogram write_latency;
  LogHistogram overshoot;  // sent - due, when the connection was idle
  uint64_t reads_ok = 0;
  uint64_t reads_failed = 0;
  uint64_t writes_ok = 0;
  uint64_t writes_failed = 0;

  void Add(const Completion& c, bool write) {
    if (c.idle_at_due) overshoot.Add(c.sent - c.due);
    if (write) {
      ++(c.ok ? writes_ok : writes_failed);
      if (c.ok) write_latency.Add(c.latency);
    } else {
      ++(c.ok ? reads_ok : reads_failed);
      if (c.ok) {
        read_latency.Add(c.latency);
        read_service_s += c.done - c.sent;
        last_read_done = std::max(last_read_done, c.done);
      }
    }
  }

  void Merge(const PhaseStats& o) {
    read_latency.Merge(o.read_latency);
    read_service_s += o.read_service_s;
    last_read_done = std::max(last_read_done, o.last_read_done);
    write_latency.Merge(o.write_latency);
    overshoot.Merge(o.overshoot);
    reads_ok += o.reads_ok;
    reads_failed += o.reads_failed;
    writes_ok += o.writes_ok;
    writes_failed += o.writes_failed;
  }

  uint64_t attempted() const {
    return reads_ok + reads_failed + writes_ok + writes_failed;
  }
  uint64_t failed() const { return reads_failed + writes_failed; }
};

/// Counters read at the edges of the window: the server's STATS view,
/// the sessions' plan caches, the process-wide kernel counters, the
/// recycler, CPU time and the WAL's size.
struct Snapshot {
  wire::ServerWireStats server;
  std::vector<wire::SessionStatsEntry> sessions;
  monet::KernelStats kernels;
  monet::RecyclerStats recycler;
  double cpu_s = 0;
  Clock::time_point at;
  uint64_t wal_bytes = 0;
};

/// Per-call times of the single-threaded layer replay, in microseconds.
struct Replay {
  std::vector<double> codec_us, prepare_us, execute_us, encode_us, decode_us;
  std::vector<double> append_us;
  uint64_t instrs = 0;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// Makes the completion sink of one generator: `first_conn` is the
/// connection index of its connection 0, `write` whether it sends APPENDs.
using RecorderFactory = std::function<RecordFn(int first_conn, bool write)>;

class BenchRun {
 public:
  BenchRun(Args args, std::unique_ptr<Workload> workload)
      : args_(std::move(args)),
        workload_(std::move(workload)),
        shape_(workload_->shape()),
        name_(workload_->name()),
        conns_(shape_.read_conns + (shape_.write_rate > 0 ? 1 : 0)),
        last_trace_seq_(static_cast<size_t>(conns_), 0),
        traced_queries_(static_cast<size_t>(conns_), 0),
        op_nanos_(static_cast<size_t>(conns_)) {}

  ~BenchRun() { TearDown(); }

  BenchRun(const BenchRun&) = delete;
  BenchRun& operator=(const BenchRun&) = delete;

  int Main();

 private:
  void SetUp();
  void TearDown();
  void Connect();
  Snapshot TakeSnapshot() const;
  /// Sends the stream's requests from [from_s, to_s) of its timeline, as
  /// due (open loop) or sent (closed loop) from `origin`, continuing at
  /// next_read_ / next_write_; runs `during` on this thread meanwhile.
  void DriveLoad(double from_s, double to_s, Clock::time_point origin,
                 const RecorderFactory& recorder,
                 const std::function<void()>& during);
  void RunWindow();
  void RunAppendProbe();
  void RunTraced();
  void RunReplay();
  void CheckAnswers();
  /// Quantile `q` of `h` in ms, or the highest quantile its samples
  /// support when they are too few for `q` (logged).
  double QuantileMs(const LogHistogram& h, double q, const char* metric) const;
  void EmitEndToEnd(MetricSet* m) const;
  /// The window's client-observed times: throughput, CPU per request and
  /// latency percentiles. They are per-layer metrics without a bound
  /// because the host's speed drifts more than a bound may allow.
  void EmitClientTimes(MetricSet* m) const;
  void EmitPerLayer(MetricSet* m) const;
  void WriteTrace() const;

  bool SendRead(int conn, uint64_t i);
  bool SendWrite(int conn, uint64_t i);
  void FetchTrace(int conn, uint64_t i);
  /// A wrong answer or an inconsistent layer: the run is not correct.
  void AddWrong(const std::string& what);
  /// A request the server refused or failed: counted, logged, and the
  /// run goes on.
  void LogFailure(const std::string& what);
  uint64_t WalBytes() const;

  const Args args_;
  const std::unique_ptr<Workload> workload_;
  const LoadShape shape_;
  const std::string name_;
  const int conns_;

  std::string wal_path_;
  int port_ = 0;
  std::unique_ptr<db::MirrorDb> db_;
  std::unique_ptr<daemon::QueryServer> server_;
  std::vector<std::unique_ptr<wire::WireClient>> clients_;
  double setup_s_ = 0;

  // The untraced window.
  double window_s_ = 0;     // its length, from the due (open) or send time
  double window_start_s_ = 0;  // where it starts on the request stream's timeline
  double window_end_s_ = 0;    // and where it ends
  double peak_rss_mb_ = 0;  // at the window's end, before the checks
  PhaseStats window_;
  Snapshot a_, b_, c_;  // window start, window end, after the probe
  uint64_t next_read_ = 0;
  uint64_t next_write_ = 0;
  LogHistogram probe_latency_;
  uint64_t probe_attempted_ = 0;
  uint64_t probe_failed_ = 0;
  uint64_t probe_wal_bytes_ = 0;

  // The traced run and the replay.
  std::atomic<bool> tracing_{false};
  std::unique_ptr<SpanLog> spans_;
  PhaseStats traced_;
  std::vector<uint64_t> last_trace_seq_;                    // per connection
  std::vector<uint64_t> traced_queries_;                    // per connection
  std::vector<std::map<std::string, uint64_t>> op_nanos_;  // per connection
  Replay replay_;

  std::atomic<uint64_t> acked_appends_{0};
  std::atomic<uint64_t> trace_fetches_{0};
  std::atomic<uint64_t> trace_fetch_failures_{0};
  std::mutex mu_;  // guards saved_, wrong_ and failures_logged_
  std::map<uint64_t, wire::ResultReply> saved_;
  std::vector<std::string> wrong_;
  int failures_logged_ = 0;
};

void BenchRun::AddWrong(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  if (wrong_.size() < 20) wrong_.push_back(what);
}

void BenchRun::LogFailure(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  if (++failures_logged_ <= 10) {
    std::fprintf(stderr, "[%s] request failed: %s\n", name_.c_str(), what.c_str());
  }
}

uint64_t BenchRun::WalBytes() const {
  std::error_code ec;
  const uintmax_t n = fs::file_size(wal_path_, ec);
  return ec ? 0 : static_cast<uint64_t>(n);
}

void BenchRun::SetUp() {
  fs::create_directories(fs::path(args_.out_dir) / "wal");
  wal_path_ = (fs::path(args_.out_dir) / "wal" /
               base::StrFormat("%s-%d.wal", name_.c_str(), ::getpid()))
                  .string();
  // From generating the catalog to the server listening. Untraced runs
  // set up several times and keep the median, so work a change moves
  // into set-up shows without one slow set-up deciding the number.
  std::vector<double> times;
  const int setups = args_.trace ? 1 : kSetups;
  for (int s = 0; s < setups; ++s) {
    TearDown();
    const Clock::time_point t0 = Clock::now();
    db_ = std::make_unique<db::MirrorDb>();
    workload_->Load(db_.get(), args_.seed);
    base::Status wal = db_->AttachWal(wal_path_);
    MIRROR_CHECK(wal.ok()) << wal.ToString();
    server_ = std::make_unique<daemon::QueryServer>(db_.get());
    auto port = server_->ListenTcp(0);
    MIRROR_CHECK(port.ok()) << port.status().ToString();
    port_ = port.value();
    times.push_back(SecondsBetween(t0, Clock::now()));
  }
  setup_s_ = Percentile(times, 0.5);
  std::fprintf(stderr, "[%s] set-up %.3f s (median of %zu)\n", name_.c_str(),
               setup_s_, times.size());
}

void BenchRun::TearDown() {
  for (auto& c : clients_) c->Close();
  clients_.clear();
  if (server_ != nullptr) server_->Shutdown();
  server_.reset();
  db_.reset();
  if (!wal_path_.empty()) {
    std::error_code ec;
    fs::remove(wal_path_, ec);
  }
}

void BenchRun::Connect() {
  for (int c = 0; c < conns_; ++c) {
    auto transport = wire::TcpConnect("127.0.0.1", port_);
    MIRROR_CHECK(transport.ok()) << transport.status().ToString();
    auto client = std::make_unique<wire::WireClient>(transport.TakeValue());
    auto hello = client->Hello(base::StrFormat("%s-%d", name_.c_str(), c));
    MIRROR_CHECK(hello.ok()) << hello.status().ToString();
    clients_.push_back(std::move(client));
  }
}

Snapshot BenchRun::TakeSnapshot() const {
  Snapshot s;
  s.server = server_->stats();
  s.sessions = server_->session_stats();
  s.kernels = monet::SnapshotKernelStats();
  s.recycler = db_->recycler()->stats();
  s.cpu_s = ProcessCpuSeconds();
  s.at = Clock::now();
  s.wal_bytes = WalBytes();
  return s;
}

bool BenchRun::SendRead(int conn, uint64_t i) {
  Request req = workload_->MakeRequest(args_.seed, i);
  const bool traced = tracing_.load(std::memory_order_relaxed);
  const double t0 = traced ? spans_->Now() : 0;
  auto reply = clients_[static_cast<size_t>(conn)]->Query(req.text, req.bindings);
  if (traced) spans_->Record(conn, {i, "client.query", "", t0, spans_->Now()});
  if (!reply.ok()) {
    LogFailure(base::StrFormat("request %llu: %s",
                               static_cast<unsigned long long>(i),
                               reply.status().ToString().c_str()));
    return false;
  }
  if (req.check == CheckKind::kInline) {
    std::string err = workload_->CheckInline(conn, req, reply.value());
    if (!err.empty()) AddWrong(err);
  } else if (i < 2 || i % 16 == 0) {
    std::lock_guard<std::mutex> lock(mu_);
    saved_[i] = reply.TakeValue();
  }
  if (traced && ++traced_queries_[static_cast<size_t>(conn)] % kTraceEvery == 0) {
    FetchTrace(conn, i);
  }
  return true;
}

bool BenchRun::SendWrite(int conn, uint64_t i) {
  const bool traced = tracing_.load(std::memory_order_relaxed);
  const double t0 = traced ? spans_->Now() : 0;
  auto ack = clients_[static_cast<size_t>(conn)]->Append(
      workload_->WriteTarget(), AppendValues(args_.seed, name_ + "/write", i));
  if (traced) spans_->Record(conn, {i, "client.append", "", t0, spans_->Now()});
  if (!ack.ok()) {
    LogFailure("APPEND: " + ack.status().ToString());
    return false;
  }
  acked_appends_.fetch_add(1);
  return true;
}

void BenchRun::FetchTrace(int conn, uint64_t i) {
  const double t0 = spans_->Now();
  auto trace = clients_[static_cast<size_t>(conn)]->Trace();
  spans_->Record(conn, {i, "client.trace", "", t0, spans_->Now()});
  trace_fetches_.fetch_add(1);
  if (!trace.ok()) {
    trace_fetch_failures_.fetch_add(1);
    LogFailure("TRACE: " + trace.status().ToString());
    return;
  }
  const wire::TraceReply& t = trace.value();
  // A session whose recent queries were all recycler hits keeps its last
  // executed query's trace; count each traced query once.
  if (t.rows == 0 || t.query_seq == last_trace_seq_[static_cast<size_t>(conn)]) {
    return;
  }
  last_trace_seq_[static_cast<size_t>(conn)] = t.query_seq;
  const monet::Bat* opcode = nullptr;
  const monet::Bat* kind = nullptr;
  const monet::Bat* dur = nullptr;
  for (size_t c = 0; c < t.names.size(); ++c) {
    if (t.names[c] == "opcode") opcode = &t.cols[c];
    if (t.names[c] == "kind") kind = &t.cols[c];
    if (t.names[c] == "dur_ns") dur = &t.cols[c];
  }
  if (opcode == nullptr || kind == nullptr || dur == nullptr) {
    AddWrong("TRACE reply lacks opcode/kind/dur_ns");
    return;
  }
  auto& nanos = op_nanos_[static_cast<size_t>(conn)];
  for (size_t r = 0; r < t.rows; ++r) {
    if (kind->tail().IntAt(r) != 0) continue;  // instruction spans only
    nanos[std::string(opcode->tail().StrAt(r))] +=
        static_cast<uint64_t>(dur->tail().IntAt(r));
  }
}

void BenchRun::DriveLoad(double from_s, double to_s, Clock::time_point origin,
                         const RecorderFactory& recorder,
                         const std::function<void()>& during) {
  auto read = [this](int conn, uint64_t i) { return SendRead(conn, i); };
  const int writer = shape_.read_conns;
  auto write = [this, writer](int, uint64_t i) { return SendWrite(writer, i); };
  if (!shape_.open_loop) {
    ClosedLoop load(next_read_, origin, origin + Seconds(to_s - from_s),
                    shape_.read_conns, read, recorder(0, false));
    during();
    load.Join();
    next_read_ = load.next_index();
    return;
  }
  // One arrival process per stream; each phase takes its next slice.
  auto slice = [&](const std::string& stream, double rate, uint64_t* next) {
    std::vector<double> due = PoissonSchedule(args_.seed, stream, rate, to_s);
    std::vector<double> out;
    for (size_t k = *next; k < due.size(); ++k) out.push_back(due[k] - from_s);
    *next = due.size();
    return out;
  };
  const uint64_t first_read = next_read_;
  OpenLoop read_load(slice(name_ + "/read-arrivals", shape_.read_rate, &next_read_),
                     first_read, origin, shape_.read_conns, read,
                     recorder(0, false));
  std::optional<OpenLoop> write_load;
  if (shape_.write_rate > 0) {
    const uint64_t first_write = next_write_;
    write_load.emplace(
        slice(name_ + "/write-arrivals", shape_.write_rate, &next_write_),
        first_write, origin, 1, write, recorder(writer, true));
  }
  during();
  read_load.Join();
  if (write_load) write_load->Join();
}

void BenchRun::RunWindow() {
  const double warm = args_.quick ? 1.0 : kWarmupSeconds;
  window_s_ = args_.seconds;
  const double w0 = warm;
  const double w1 = warm + window_s_;
  window_end_s_ = w1;
  window_start_s_ = w0;
  const Clock::time_point origin = Clock::now() + std::chrono::milliseconds(50);
  // Each connection thread writes its own.
  std::vector<PhaseStats> per_conn(static_cast<size_t>(conns_));
  // A request belongs to the window by its due time (open loop) or its
  // send time (closed loop); warm-up requests are dropped here.
  auto recorder = [&](int first_conn, bool write) -> RecordFn {
    return [&, first_conn, write](const Completion& c) {
      const double t = shape_.open_loop ? c.due : c.sent;
      if (t < w0 || t >= w1) return;
      per_conn[static_cast<size_t>(first_conn + c.conn)].Add(c, write);
    };
  };
  // The main thread sits out the warm-up and reads the counters as the
  // window opens.
  auto watch = [&] {
    std::this_thread::sleep_until(origin + Seconds(w0));
    a_ = TakeSnapshot();
  };
  DriveLoad(0, w1, origin, recorder, watch);
  b_ = TakeSnapshot();
  peak_rss_mb_ = PeakRssMb();
  window_ = PhaseStats();
  for (const PhaseStats& p : per_conn) window_.Merge(p);
}

void BenchRun::RunAppendProbe() {
  c_ = b_;
  if (!workload_->WriteTarget().empty()) return;
  // No write stream: serial APPENDs after the window give the workload's
  // append latency, on the catalog it just served.
  const uint64_t wal0 = WalBytes();
  for (uint64_t k = 0; k < kAppendProbes; ++k) {
    const Clock::time_point t0 = Clock::now();
    auto ack =
        clients_[0]->Append(kProbeBat, AppendValues(args_.seed, "probe", k));
    ++probe_attempted_;
    if (!ack.ok()) {
      ++probe_failed_;
      LogFailure("probe APPEND: " + ack.status().ToString());
      continue;
    }
    probe_latency_.Add(SecondsBetween(t0, Clock::now()));
  }
  probe_wal_bytes_ = WalBytes() - wal0;
  c_ = TakeSnapshot();
}

void BenchRun::RunTraced() {
  for (int c = 0; c < shape_.read_conns; ++c) {
    auto set = clients_[static_cast<size_t>(c)]->Set({{"exec.trace", 1}});
    MIRROR_CHECK(set.ok()) << set.status().ToString();
  }
  const double traced_s = args_.quick ? 1.0 : std::max(3.0, window_s_ / 3);
  const Clock::time_point origin = Clock::now() + std::chrono::milliseconds(20);
  spans_ = std::make_unique<SpanLog>(conns_ + 1, kSpansPerTrack, origin);
  std::vector<PhaseStats> per_conn(static_cast<size_t>(conns_));
  auto recorder = [&](int first_conn, bool write) -> RecordFn {
    return [&, first_conn, write](const Completion& c) {
      per_conn[static_cast<size_t>(first_conn + c.conn)].Add(c, write);
    };
  };
  // The stream continues where the window's requests ended.
  tracing_ = true;
  DriveLoad(window_end_s_, window_end_s_ + traced_s, origin, recorder, [] {});
  tracing_ = false;
  for (const PhaseStats& p : per_conn) traced_.Merge(p);
  for (int c = 0; c < shape_.read_conns; ++c) {
    auto set = clients_[static_cast<size_t>(c)]->Set({{"exec.trace", 0}});
    MIRROR_CHECK(set.ok()) << set.status().ToString();
  }
}

void BenchRun::RunReplay() {
  // The first requests of the stream again, one public call at a time,
  // with a fresh session and the server's query options.
  const db::QueryOptions options = daemon::QueryServer::Options().query;
  monet::mil::ExecutionContext session;
  const int track = conns_;
  auto span = [&](uint64_t i, const char* name, const char* parent, double t0) {
    const double t1 = spans_->Now();
    spans_->Record(track, {i, name, parent, t0, t1});
    return (t1 - t0) * 1e6;
  };
  for (uint64_t i = 0; i < kReplayRequests; ++i) {
    const Request req = workload_->MakeRequest(args_.seed, i);
    const double t_req = spans_->Now();
    double t0 = t_req;
    wire::QueryRequest q;
    q.text = req.text;
    q.bindings = req.bindings;
    auto decoded = wire::DecodeQueryRequest(wire::EncodeQueryRequest(q));
    replay_.codec_us.push_back(span(i, "replay.request_codec", "replay.request", t0));
    MIRROR_CHECK(decoded.ok()) << decoded.status().ToString();
    t0 = spans_->Now();
    auto prepared = db_->Prepare(req.text, req.bindings, options);
    replay_.prepare_us.push_back(span(i, "replay.prepare", "replay.request", t0));
    if (!prepared.ok()) {
      AddWrong("replay prepare: " + prepared.status().ToString());
      return;
    }
    replay_.instrs += prepared.value().program.instrs().size();
    t0 = spans_->Now();
    auto out = db_->ExecuteProgram(prepared.value().program, options, &session);
    replay_.execute_us.push_back(span(i, "replay.execute", "replay.request", t0));
    if (!out.ok()) {
      AddWrong("replay execute: " + out.status().ToString());
      return;
    }
    t0 = spans_->Now();
    const std::vector<uint8_t> bytes = wire::EncodeResultReply(out.value());
    replay_.encode_us.push_back(span(i, "replay.result_encode", "replay.request", t0));
    t0 = spans_->Now();
    auto back = wire::DecodeResultReply(bytes);
    replay_.decode_us.push_back(span(i, "replay.result_decode", "replay.request", t0));
    MIRROR_CHECK(back.ok()) << back.status().ToString();
    span(i, "replay.request", "", t_req);
  }
  for (uint64_t k = 0; k < kAppendProbes; ++k) {
    const double t0 = spans_->Now();
    auto ack = db_->Append(kProbeBat, AppendValues(args_.seed, "replay-append", k));
    replay_.append_us.push_back(span(k, "replay.append", "", t0));
    if (!ack.ok()) AddWrong("replay append: " + ack.status().ToString());
  }
}

void BenchRun::CheckAnswers() {
  std::map<uint64_t, wire::ResultReply> saved;
  {
    std::lock_guard<std::mutex> lock(mu_);
    saved.swap(saved_);
  }
  db::QueryOptions naive;
  naive.flattened = false;
  int oracle_checks = 0;
  for (const auto& [i, reply] : saved) {
    const Request req = workload_->MakeRequest(args_.seed, i);
    auto want = db_->Query(req.text, req.bindings, ReferenceOptions());
    if (!want.ok()) {
      AddWrong(req.text + ": reference failed: " + want.status().ToString());
      continue;
    }
    std::string diff = DiffExact(reply, ToReply(want.value()));
    if (!diff.empty()) {
      AddWrong(base::StrFormat("request %llu (%s) vs reference engine: %s",
                               static_cast<unsigned long long>(i),
                               req.text.c_str(), diff.c_str()));
    }
    // The first two checked replies also against the naive interpreter,
    // the repository's semantic oracle.
    if (oracle_checks < 2) {
      ++oracle_checks;
      const std::string& text = req.top_k > 0 ? req.untruncated : req.text;
      auto oracle = db_->Query(text, req.bindings, naive);
      if (!oracle.ok()) {
        AddWrong(text + ": naive oracle failed: " + oracle.status().ToString());
        continue;
      }
      diff = DiffWithin(reply, ToReply(oracle.value()), kOracleTolerance,
                        req.top_k);
      if (!diff.empty()) {
        AddWrong(base::StrFormat("request %llu (%s) vs naive oracle: %s",
                                 static_cast<unsigned long long>(i),
                                 req.text.c_str(), diff.c_str()));
      }
    }
  }
  std::string final_check =
      workload_->FinalCheck(clients_[0].get(), acked_appends_.load());
  if (!final_check.empty()) AddWrong(final_check);
  std::fprintf(stderr, "[%s] checked %zu replies against the reference engine\n",
               name_.c_str(), saved.size());
}

double BenchRun::QuantileMs(const LogHistogram& h, double q,
                            const char* metric) const {
  const double supported = SupportedQuantile(h.count(), q);
  if (supported != q) {
    std::fprintf(stderr, "[%s] %s: %llu samples support no p%g; reporting p%.4g\n",
                 name_.c_str(), metric, static_cast<unsigned long long>(h.count()),
                 q * 100, supported * 100);
  }
  return h.Quantile(supported) * 1e3;
}

void BenchRun::EmitEndToEnd(MetricSet* m) const {
  const bool stream = !workload_->WriteTarget().empty();
  m->Add("peak_rss_mb", peak_rss_mb_, 1);
  const double wal_bytes = stream ? static_cast<double>(b_.wal_bytes - a_.wal_bytes)
                                  : static_cast<double>(probe_wal_bytes_);
  const uint64_t user_appends = stream ? window_.writes_ok : probe_latency_.count();
  m->Add("wal_bytes_per_user_byte",
         Ratio(wal_bytes, static_cast<double>(user_appends * kAppendValues *
                                              sizeof(int64_t))),
         user_appends);
  m->Add("setup_s", setup_s_, args_.trace ? 1 : kSetups);
}

void BenchRun::EmitClientTimes(MetricSet* m) const {
  const PhaseStats& w = window_;
  // Up to the last reply to a request of the window: a server that falls
  // behind an open-loop schedule stretches that span and lowers the rate.
  m->Add("query_throughput_qps",
         Ratio(static_cast<double>(w.reads_ok), w.last_read_done - window_start_s_),
         w.reads_ok);
  m->Add("cpu_ms_per_request",
         Ratio((b_.cpu_s - a_.cpu_s) * 1e3, static_cast<double>(w.attempted())),
         w.attempted());
  const LogHistogram& reads = w.read_latency;
  m->Add("query_p50_ms", QuantileMs(reads, 0.5, "query_p50_ms"), reads.count());
  m->Add("query_p90_ms", QuantileMs(reads, 0.9, "query_p90_ms"), reads.count());
  m->Add("query_p99_ms", QuantileMs(reads, 0.99, "query_p99_ms"), reads.count());
  const LogHistogram& appends =
      workload_->WriteTarget().empty() ? probe_latency_ : w.write_latency;
  m->Add("append_p50_ms", QuantileMs(appends, 0.5, "append_p50_ms"), appends.count());
  m->Add("append_p90_ms", QuantileMs(appends, 0.9, "append_p90_ms"), appends.count());
}

void BenchRun::EmitPerLayer(MetricSet* m) const {
  using wire::HistogramSummary;
  using wire::RequestClassLatency;
  const PhaseStats& w = window_;
  const double queries =
      static_cast<double>(b_.server.requests - a_.server.requests);
  const uint64_t nq = static_cast<uint64_t>(queries);
  // STATS histograms over the window, as means: they add and subtract
  // exactly, and the server records whole microseconds, which leaves no
  // resolution for percentiles of sub-microsecond stages (a recycler hit
  // on hot_zipf).
  struct Stage {
    double sum_us = 0;
    uint64_t count = 0;
    double mean_us() const { return Ratio(sum_us, static_cast<double>(count)); }
  };
  auto stage = [](const HistogramSummary& end, const HistogramSummary& start) {
    return Stage{static_cast<double>(end.sum_micros - start.sum_micros),
                 end.count - start.count};
  };
  const RequestClassLatency& q0 = a_.server.latency_query;
  const RequestClassLatency& q1 = b_.server.latency_query;
  const RequestClassLatency& ap0 = a_.server.latency_append;
  const RequestClassLatency& ap1 = c_.server.latency_append;
  const Stage queue = stage(q1.queue_wait, q0.queue_wait);
  const Stage exec = stage(q1.exec, q0.exec);
  const Stage total = stage(q1.total, q0.total);
  const Stage aqueue = stage(ap1.queue_wait, ap0.queue_wait);
  const Stage aexec = stage(ap1.exec, ap0.exec);

  // A share of total time: a recycler hit answered on the poll loop never
  // queues, so on hot_zipf every queue wait is 0.
  m->Add("daemon.queue_wait_share", Ratio(queue.sum_us, total.sum_us), queue.count);
  m->Add("daemon.exec_mean_us", exec.mean_us(), exec.count);
  // The client's mean send-to-reply time minus the server's mean
  // admission-to-result time.
  m->Add("daemon.wire_residual_mean_us",
         Ratio(w.read_service_s * 1e6, static_cast<double>(w.reads_ok)) -
             total.mean_us(),
         total.count);
  m->Add("daemon.append_queue_wait_mean_us", aqueue.mean_us(), aqueue.count);
  m->Add("daemon.append_exec_mean_us", aexec.mean_us(), aexec.count);

  const size_t nr = replay_.execute_us.size();
  m->Add("daemon.request_codec_us", Percentile(replay_.codec_us, 0.5), nr);
  m->Add("daemon.result_encode_us", Percentile(replay_.encode_us, 0.5), nr);
  m->Add("daemon.result_decode_us", Percentile(replay_.decode_us, 0.5), nr);

  const double appends_in_window =
      static_cast<double>(b_.server.wal_appends - a_.server.wal_appends);
  m->Add("daemon.bytes_out_per_request",
         Ratio(static_cast<double>(b_.server.bytes_out - a_.server.bytes_out),
               queries + appends_in_window),
         nq);
  m->Add("daemon.coalesced_share",
         Ratio(static_cast<double>(b_.server.coalesced_requests -
                                   a_.server.coalesced_requests),
               queries),
         nq);
  m->Add("daemon.requests_shed",
         static_cast<double>(b_.server.requests_shed - a_.server.requests_shed), nq);

  uint64_t hits = 0;
  uint64_t lookups = 0;
  for (const wire::SessionStatsEntry& end : b_.sessions) {
    for (const wire::SessionStatsEntry& start : a_.sessions) {
      if (start.session_id != end.session_id) continue;
      hits += end.plan_cache_hits - start.plan_cache_hits;
      lookups += end.plan_cache_lookups - start.plan_cache_lookups;
    }
  }
  m->Add("mirror.plan_cache_hit_rate",
         Ratio(static_cast<double>(hits), static_cast<double>(lookups)), lookups);
  m->Add("mirror.append_us_p50", Percentile(replay_.append_us, 0.5),
         replay_.append_us.size());
  m->Add("mirror.append_us_p99", Percentile(replay_.append_us, 0.99),
         replay_.append_us.size());

  m->Add("moa.prepare_us_p50", Percentile(replay_.prepare_us, 0.5), nr);
  m->Add("moa.prepare_us_p90", Percentile(replay_.prepare_us, 0.9), nr);
  m->Add("moa.mil_instrs_per_query",
         Ratio(static_cast<double>(replay_.instrs), static_cast<double>(nr)), nr);
  m->Add("monet.execute_us_p50", Percentile(replay_.execute_us, 0.5), nr);
  m->Add("monet.execute_us_p90", Percentile(replay_.execute_us, 0.9), nr);

  const monet::KernelStats& k0 = a_.kernels;
  const monet::KernelStats& k1 = b_.kernels;
  auto family_nanos = [&](const std::string& f) {
    static const std::map<std::string, std::vector<monet::KernelOp>> kOps = {
        {"select", {monet::KernelOp::kSelect}},
        {"semijoin", {monet::KernelOp::kSemiJoin, monet::KernelOp::kAntiJoin}},
        {"join", {monet::KernelOp::kJoin}},
        {"group_agg", {monet::KernelOp::kGroupAgg}},
        {"scalar_agg", {monet::KernelOp::kScalarAgg}},
        {"topn", {monet::KernelOp::kTopN}},
        {"belief", {monet::KernelOp::kBelief}},
        {"multiplex", {monet::KernelOp::kMultiplex}},
        {"concat", {monet::KernelOp::kConcat}},
        {"materialize", {monet::KernelOp::kMaterialize}}};
    double ns = 0;
    for (monet::KernelOp op : kOps.at(f)) {
      const int o = static_cast<int>(op);
      ns += static_cast<double>(k1.wall_nanos[o] - k0.wall_nanos[o]);
    }
    return ns;
  };
  const double kernel_ns =
      static_cast<double>(k1.TotalWallNanos() - k0.TotalWallNanos());
  m->Add("monet.kernel_busy_ratio",
         Ratio(kernel_ns, exec.sum_us * 1e3), exec.count);
  for (const std::string& f : KernelShareFamilies()) {
    m->Add("monet.kernel_share." + f, Ratio(family_nanos(f), kernel_ns), nq);
  }
  auto per_query = [&](const char* name, uint64_t end, uint64_t start) {
    m->Add(name, Ratio(static_cast<double>(end - start), queries), nq);
  };
  per_query("monet.tuples_in_per_query", k1.tuples_in, k0.tuples_in);
  per_query("monet.materialized_tuples_per_query", k1.materialized_tuples,
            k0.materialized_tuples);
  per_query("monet.morsel_tasks_per_query", k1.morsel_tasks, k0.morsel_tasks);
  per_query("monet.shard_fanouts_per_query", k1.shard_fanouts, k0.shard_fanouts);
  per_query("monet.bloom_hits_per_query", k1.bloom_hits, k0.bloom_hits);
  per_query("monet.zone_blocks_skipped_per_query", k1.zone_blocks_skipped,
            k0.zone_blocks_skipped);
  per_query("monet.topk_pruned_per_query",
            k1.topk_morsels_pruned + k1.topk_shards_pruned,
            k0.topk_morsels_pruned + k0.topk_shards_pruned);

  const monet::RecyclerStats& r0 = a_.recycler;
  const monet::RecyclerStats& r1 = b_.recycler;
  // Hits over QUERY requests: the server counts a miss both at the poll
  // loop's lookup and again at the worker's, so hits / (hits + misses)
  // would understate the hit share.
  per_query("monet.recycler.result_hit_share", r1.result_hits, r0.result_hits);
  per_query("monet.recycler.candidate_hits_per_query",
            r1.candidate_hits + r1.candidate_subsumption_hits,
            r0.candidate_hits + r0.candidate_subsumption_hits);
  m->Add("monet.recycler.invalidations",
         static_cast<double>(r1.invalidations - r0.invalidations), nq);
  m->Add("monet.recycler.evictions", static_cast<double>(r1.evictions - r0.evictions),
         nq);
  m->Add("monet.recycler.bytes_held_mb",
         static_cast<double>(r1.bytes_held) / (1024.0 * 1024.0), 1);

  std::map<std::string, uint64_t> ops;
  uint64_t op_total = 0;
  for (const auto& per_conn : op_nanos_) {
    for (const auto& [op, ns] : per_conn) {
      ops[op] += ns;
      op_total += ns;
    }
  }
  for (const auto& [op, ns] : ops) {
    std::fprintf(stderr, "[%s] op %-16s %6.2f%% of traced instruction time\n",
                 name_.c_str(), op.c_str(),
                 100 * Ratio(static_cast<double>(ns), static_cast<double>(op_total)));
  }
  for (const std::string& op : OpShareOpcodes()) {
    auto it = ops.find(op);
    m->Add("monet.op_share." + op,
           it == ops.end() ? 0.0
                           : Ratio(static_cast<double>(it->second),
                                   static_cast<double>(op_total)),
           op_total > 0 ? 1 : 0);
  }

  const double wall = SecondsBetween(a_.at, b_.at);
  m->Add("host.cpu_cores_used", Ratio(b_.cpu_s - a_.cpu_s, wall), 1);
  m->Add("loadgen.overshoot_p90_ms", w.overshoot.Quantile(0.9) * 1e3,
         w.overshoot.count());
  m->Add("trace.overhead_ratio",
         Ratio(traced_.read_latency.Quantile(0.5), w.read_latency.Quantile(0.5)),
         traced_.read_latency.count());
  auto mean = [](const std::vector<double>& v) {
    double sum = 0;
    for (double x : v) sum += x;
    return Ratio(sum, static_cast<double>(v.size()));
  };
  m->Add("layers.exec_coverage",
         Ratio(mean(replay_.codec_us) + mean(replay_.prepare_us) +
                   mean(replay_.execute_us) + mean(replay_.encode_us),
               exec.mean_us()),
         nr);
}

void BenchRun::WriteTrace() const {
  std::vector<std::string> tracks;
  for (int c = 0; c < shape_.read_conns; ++c) {
    tracks.push_back(base::StrFormat("connection %d (reads)", c));
  }
  if (shape_.write_rate > 0) tracks.push_back("connection (writes)");
  tracks.push_back("layer replay");
  const std::string path =
      (fs::path(args_.out_dir) / (name_ + ".trace.json")).string();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[%s] cannot write %s\n", name_.c_str(), path.c_str());
    return;
  }
  const std::string json = spans_->ChromeTraceJson(tracks);
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "[%s] wrote %s (%zu spans dropped past the cap)\n",
               name_.c_str(), path.c_str(), spans_->dropped());
  for (const auto& [span, secs] : spans_->SelfSeconds()) {
    std::fprintf(stderr, "[%s] self time %-22s %10.3f ms\n", name_.c_str(),
                 span.c_str(), secs * 1e3);
  }
}

int BenchRun::Main() {
  SetUp();
  const std::string prepared = workload_->Prepare(*db_, args_.seed);
  if (!prepared.empty()) AddWrong(prepared);
  Connect();
  RunWindow();
  RunAppendProbe();
  if (args_.trace) {
    RunTraced();
    RunReplay();
  }
  CheckAnswers();

  const uint64_t attempted = window_.attempted() + traced_.attempted() +
                             probe_attempted_ + trace_fetches_.load();
  const uint64_t failed = window_.failed() + traced_.failed() + probe_failed_ +
                          trace_fetch_failures_.load();
  MetricSet metrics(args_.trace ? MetricKind::kPerLayer : MetricKind::kEndToEnd);
  if (args_.trace) {
    EmitClientTimes(&metrics);
    EmitPerLayer(&metrics);
    WriteTrace();
  } else {
    EmitEndToEnd(&metrics);
  }
  MIRROR_CHECK(metrics.Missing().empty())
      << "metric not emitted: " << metrics.Missing().front();

  std::vector<std::string> wrong;
  {
    std::lock_guard<std::mutex> lock(mu_);
    wrong = wrong_;
  }
  for (const std::string& e : wrong) {
    std::fprintf(stderr, "[%s] WRONG %s\n", name_.c_str(), e.c_str());
  }
  const bool correct = wrong.empty();
  std::fputs(metrics.TextLines(name_).c_str(), stdout);
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "%s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed),
      correct ? metrics.Json().c_str() : "{}");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--host") {
    std::printf("%s\n", HostJson().c_str());
    return 0;
  }
  Args args = ParseArgs(argc, argv);
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  if (workload == nullptr) Usage("unknown workload \"" + args.workload + "\"");
  BenchRun run(std::move(args), std::move(workload));
  return run.Main();
}
