// Experiment E6: crash-kill durability and MM-DIRECT-style instant
// recovery. A serving daemon is populated over the wire (APPEND frames
// against a WAL-attached MirrorDb), SIGKILLed mid-write-storm, and
// restarted twice: once with the classic full-replay restart (rebuild
// everything, replay the whole log, then open the port) and once in
// lazy mode (port opens immediately, the queried fragment replays its
// own log slice on first touch while a background thread drains the
// rest). The headline numbers are time-to-first-result for each mode
// and the count of lost acknowledged writes, which must be zero.
//
// Results merge into BENCH_retrieval.json under "instant_recovery_e6";
// ci.sh gates on lost_acked_writes == 0 and a >= 3x TTFR advantage.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <memory>
#include <thread>
#include <vector>

#include "base/logging.h"
#include "base/str_util.h"
#include "base/table_printer.h"
#include "bench_json.h"
#include "daemon/query_server.h"
#include "daemon/wire.h"
#include "daemon/wire_client.h"
#include "mirror/mirror_db.h"

namespace {

using namespace mirror;  // NOLINT(build/namespaces)
namespace wire = daemon::wire;

// 1 catalog set that queries touch + kNumFeeds sets that only the full
// replay has to care about. The wider the feed fan-out, the bigger the
// log slice a lazy restart gets to skip.
constexpr int kNumFeeds = 48;
constexpr int kBaseRows = 8192;    // checkpointed rows per set
constexpr int kChunkRows = 512;    // rows per storm APPEND frame
constexpr int kKillAfterAcks = 3000;  // SIGKILL lands past this many acks
constexpr int kMaxRounds = 10000;
constexpr int64_t kFeedTag = 7770000;
constexpr int64_t kCatTag = 10000;

// Feed names sort before "Cat" so the lazy restart's background drain
// works through them first and the Cat query genuinely races replay.
std::string FeedSet(int f) {
  return "A" + std::string(f < 10 ? "0" : "") + std::to_string(f);
}

void BuildBaseDb(db::MirrorDb* database) {
  auto check = [](const base::Status& s) {
    MIRROR_CHECK(s.ok()) << s.ToString();
  };
  check(database->Define(
      "define Cat as SET<TUPLE<Atomic<URL>: u, Atomic<int>: year, "
      "Atomic<int>: rating>>;"));
  std::vector<moa::MoaValue> rows;
  for (int i = 0; i < kBaseRows; ++i) {
    rows.push_back(moa::MoaValue::Tuple(
        {moa::MoaValue::Str("u" + std::to_string(i)),
         moa::MoaValue::Int(1970 + (i % 50)), moa::MoaValue::Int(i)}));
  }
  check(database->Load("Cat", std::move(rows)));
  for (int f = 0; f < kNumFeeds; ++f) {
    check(database->Define("define " + FeedSet(f) +
                           " as SET<TUPLE<Atomic<int>: v>>;"));
    std::vector<moa::MoaValue> feed;
    for (int i = 0; i < kBaseRows; ++i) {
      feed.push_back(moa::MoaValue::Tuple({moa::MoaValue::Int(i)}));
    }
    check(database->Load(FeedSet(f), std::move(feed)));
  }
}

/// Forks a child that runs `serve` (which must open a TCP port and
/// never return), reads the port the child reports through a pipe, and
/// returns (pid, port).
template <typename ServeFn>
std::pair<pid_t, int> SpawnServing(ServeFn serve) {
  int port_pipe[2];
  MIRROR_CHECK(::pipe(port_pipe) == 0);
  pid_t child = ::fork();
  MIRROR_CHECK(child >= 0);
  if (child == 0) {
    ::close(port_pipe[0]);
    serve(port_pipe[1]);  // never returns
    _exit(9);
  }
  ::close(port_pipe[1]);
  uint32_t port = 0;
  ssize_t got = ::read(port_pipe[0], &port, sizeof(port));
  ::close(port_pipe[0]);
  MIRROR_CHECK(got == static_cast<ssize_t>(sizeof(port)))
      << "serving child died before reporting its port";
  return {child, static_cast<int>(port)};
}

void ServeForever(db::MirrorDb* database, int port_fd) {
  daemon::QueryServer server(database);
  auto port = server.ListenTcp(0);
  if (!port.ok()) _exit(3);
  uint32_t p = static_cast<uint32_t>(port.value());
  if (::write(port_fd, &p, sizeof(p)) != sizeof(p)) _exit(4);
  ::close(port_fd);
  for (;;) ::pause();
}

std::unique_ptr<wire::WireClient> Connect(int port) {
  auto conn = wire::TcpConnect("127.0.0.1", port);
  MIRROR_CHECK(conn.ok()) << conn.status().ToString();
  auto client = std::make_unique<wire::WireClient>(std::move(conn).TakeValue());
  auto hello = client->Hello("bench-e6");
  MIRROR_CHECK(hello.ok()) << hello.status().ToString();
  return client;
}

double CountTagged(wire::WireClient* client, const std::string& set,
                   const std::string& field, int64_t tag) {
  moa::QueryContext ctx;
  std::string text = "count(select[THIS." + field +
                     " >= " + std::to_string(tag) + "](" + set + "));";
  auto result = client->Query(text, ctx);
  MIRROR_CHECK(result.ok()) << result.status().ToString();
  MIRROR_CHECK(result.value().is_scalar);
  return result.value().scalar.AsDouble();
}

void Reap(pid_t child) {
  ::kill(child, SIGKILL);
  int status = 0;
  ::waitpid(child, &status, 0);
}

}  // namespace

int main() {
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("mirror_bench_e6_" + std::to_string(::getpid())))
                        .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::string wal = dir + "/wal.log";

  std::printf(
      "E6: crash-kill durability + instant recovery\n"
      "(%d sets x %d checkpointed rows, %d-row APPEND frames over TCP,\n"
      "SIGKILL past %d acknowledged appends).\n\n",
      kNumFeeds + 1, kBaseRows, kChunkRows, kKillAfterAcks);

  // -- Phase 1: serve, storm over the wire, SIGKILL mid-storm. ------------
  auto [writer, writer_port] = SpawnServing([&](int port_fd) {
    db::MirrorDb serving;
    BuildBaseDb(&serving);
    if (!serving.AttachWal(wal).ok()) _exit(2);
    if (!serving.Checkpoint(dir).ok()) _exit(2);
    ServeForever(&serving, port_fd);
  });
  {
    auto client = Connect(writer_port);
    std::atomic<int> acked{0};
    std::atomic<bool> storm_done{false};
    std::thread killer([&, writer = writer] {
      while (acked.load() < kKillAfterAcks && !storm_done.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      ::kill(writer, SIGKILL);
    });
    std::vector<int64_t> chunk(kChunkRows, kFeedTag);
    int acked_cat = 0;
    std::vector<int> acked_feed_rows(kNumFeeds, 0);
    for (int round = 0; round < kMaxRounds && !storm_done.load(); ++round) {
      for (int f = 0; f < kNumFeeds; ++f) {
        auto ack = client->Append(FeedSet(f) + ".v",
                                 monet::Column::MakeInts(chunk));
        if (!ack.ok()) {  // connection died: the daemon was killed
          storm_done.store(true);
          break;
        }
        acked_feed_rows[f] += kChunkRows;
        acked.fetch_add(1);
      }
      if (storm_done.load()) break;
      auto ack = client->Append("Cat.rating",
                               monet::Column::MakeInts({kCatTag + round}));
      if (!ack.ok()) {
        storm_done.store(true);
        break;
      }
      ++acked_cat;
      acked.fetch_add(1);
    }
    storm_done.store(true);
    killer.join();
    int status = 0;
    MIRROR_CHECK(::waitpid(writer, &status, 0) == writer);
    MIRROR_CHECK(WIFSIGNALED(status)) << "writer was not crash-killed";
    MIRROR_CHECK(acked.load() >= kKillAfterAcks)
        << "storm never reached the kill threshold";
    std::printf("storm: %d acknowledged appends (%d to Cat.rating), then "
                "SIGKILL\n\n",
                acked.load(), acked_cat);

    // -- Phase 2: classic full-replay restart. ---------------------------
    using Clock = std::chrono::steady_clock;
    auto t0 = Clock::now();
    auto [full_pid, full_port] = SpawnServing([&](int port_fd) {
      db::MirrorDb restarted;
      if (!restarted.Recover(dir, wal, db::RecoveryMode::kFull).ok()) {
        _exit(2);
      }
      ServeForever(&restarted, port_fd);
    });
    auto full_client = Connect(full_port);
    double full_cat = CountTagged(full_client.get(), "Cat", "rating", kCatTag);
    double full_ttfr_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

    // Every acknowledged write must be durable (more rows may survive: a
    // record can reach the disk without its ack reaching the client).
    int64_t lost = 0;
    if (full_cat < acked_cat) lost += acked_cat - static_cast<int64_t>(full_cat);
    for (int f = 0; f < kNumFeeds; ++f) {
      double rows = CountTagged(full_client.get(), FeedSet(f), "v", kFeedTag);
      if (rows < acked_feed_rows[f]) {
        lost += acked_feed_rows[f] - static_cast<int64_t>(rows);
      }
    }
    auto full_stats = full_client->Stats();
    MIRROR_CHECK(full_stats.ok());
    uint64_t replayed = full_stats.value().server.wal_replayed_records;
    uint64_t truncated = full_stats.value().server.wal_truncated_bytes;
    Reap(full_pid);

    // -- Phase 3: MM-DIRECT instant (lazy) restart. ----------------------
    // On-demand replay only: on a single-CPU host a background drain
    // would timeshare against the foreground query and poison the TTFR
    // measurement (daemon_recovery_test covers the drain thread).
    t0 = Clock::now();
    auto [lazy_pid, lazy_port] = SpawnServing([&](int port_fd) {
      db::MirrorDb restarted;
      if (!restarted
               .Recover(dir, wal, db::RecoveryMode::kLazy,
                        /*background_drain=*/false)
               .ok()) {
        _exit(2);
      }
      ServeForever(&restarted, port_fd);
    });
    auto lazy_client = Connect(lazy_port);
    double lazy_cat = CountTagged(lazy_client.get(), "Cat", "rating", kCatTag);
    double lazy_ttfr_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    auto lazy_stats = lazy_client->Stats();
    MIRROR_CHECK(lazy_stats.ok());
    uint64_t lazy_loads = lazy_stats.value().server.recovery_lazy_loads;
    Reap(lazy_pid);

    MIRROR_CHECK(lazy_cat == full_cat)
        << "lazy restart answered differently: " << lazy_cat << " vs "
        << full_cat;
    MIRROR_CHECK(lost == 0) << lost << " acknowledged writes were lost";
    MIRROR_CHECK(lazy_loads >= 1)
        << "first result never forced a query-driven fragment replay";

    double speedup = full_ttfr_ms / lazy_ttfr_ms;
    base::TablePrinter table({"restart mode", "time to first result (ms)"});
    table.AddRow({"full replay, then open port",
                  base::StrFormat("%.1f", full_ttfr_ms)});
    table.AddRow({"lazy: open port, replay on touch",
                  base::StrFormat("%.1f", lazy_ttfr_ms)});
    table.Print();
    std::printf(
        "\nlost acknowledged writes: %lld (of %d acked)\n"
        "full replay: %llu WAL records, %llu bytes truncated from the "
        "torn tail\nlazy first result: %llu query-driven fragment "
        "replays\nTTFR speedup, lazy vs full replay: %.1fx\n\n",
        static_cast<long long>(lost), acked.load(),
        static_cast<unsigned long long>(replayed),
        static_cast<unsigned long long>(truncated),
        static_cast<unsigned long long>(lazy_loads), speedup);

    bench::MergeIntoBenchJson("instant_recovery_e6", base::StrFormat(
        "{\n"
        "    \"sets\": %d,\n"
        "    \"acked_appends\": %d,\n"
        "    \"lost_acked_writes\": %lld,\n"
        "    \"wal_replayed_records_full\": %llu,\n"
        "    \"wal_truncated_bytes\": %llu,\n"
        "    \"recovery_lazy_loads\": %llu,\n"
        "    \"full_replay_ttfr_ms\": %.4f,\n"
        "    \"lazy_ttfr_ms\": %.4f,\n"
        "    \"ttfr_speedup_lazy_vs_full\": %.3f\n"
        "  }",
        kNumFeeds + 1, acked.load(), static_cast<long long>(lost),
        static_cast<unsigned long long>(replayed),
        static_cast<unsigned long long>(truncated),
        static_cast<unsigned long long>(lazy_loads), full_ttfr_ms,
        lazy_ttfr_ms, speedup));
  }
  std::filesystem::remove_all(dir);
  return 0;
}
