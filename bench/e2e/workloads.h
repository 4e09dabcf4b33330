#ifndef MIRROR_BENCH_E2E_WORKLOADS_H_
#define MIRROR_BENCH_E2E_WORKLOADS_H_

// The four traffic mixes of the end-to-end benchmark. Every input — the
// catalog, each request, each appended value — is generated from the
// run's seed, so two commits measured with the same seed serve identical
// traffic. README.md says why each workload exists.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "daemon/wire.h"
#include "daemon/wire_client.h"
#include "mirror/mirror_db.h"
#include "moa/query_context.h"
#include "monet/column.h"

namespace mirror::bench {

/// How a reply is checked.
enum class CheckKind {
  /// Every 16th reply (and the first two) is compared after the run with
  /// the single-threaded, unsharded, recycler-off engine; the first two
  /// also with the naive object interpreter.
  kReference,
  /// The workload checks the reply itself when it arrives.
  kInline,
};

/// One read request.
struct Request {
  std::string text;
  moa::QueryContext bindings;
  CheckKind check = CheckKind::kReference;
  /// For a top-k ranking: k, and the untruncated ranking the naive
  /// oracle evaluates in its place (scores differ from the engine's in
  /// the last bits, so the cut at k is compared rank by rank).
  size_t top_k = 0;
  std::string untruncated;
};

/// How a workload loads the server.
struct LoadShape {
  /// Open loop: Poisson arrivals at `read_rate`/s; closed loop: each
  /// connection sends as soon as its previous reply arrives.
  bool open_loop = true;
  double read_rate = 0;
  int read_conns = 1;
  /// APPENDs per second on one more connection (open loop); 0 = none.
  double write_rate = 0;
};

/// Values per APPEND.
constexpr size_t kAppendValues = 16;

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  virtual LoadShape shape() const = 0;

  /// Generates the catalog from `seed` and loads it into `db`.
  virtual void Load(db::MirrorDb* db, uint64_t seed) const = 0;

  /// Read request `i` of the run.
  virtual Request MakeRequest(uint64_t seed, uint64_t i) const = 0;

  /// The BAT this workload's write stream appends to ("" = no stream).
  virtual std::string WriteTarget() const { return {}; }

  /// Work done once after set-up and outside setup_s, such as computing
  /// expected answers. Returns "" or the first wrong answer.
  virtual std::string Prepare(const db::MirrorDb& db, uint64_t seed) {
    (void)db;
    (void)seed;
    return {};
  }

  /// Checks a kInline reply as it arrives, on connection `conn`'s thread.
  /// Returns "" or what is wrong.
  virtual std::string CheckInline(int conn, const Request& request,
                                  const daemon::wire::ResultReply& reply) {
    (void)conn;
    (void)request;
    (void)reply;
    return {};
  }

  /// End-of-run check over the wire, after `acked_appends` acknowledged
  /// APPENDs to WriteTarget(). Returns "" or what is wrong.
  virtual std::string FinalCheck(daemon::wire::WireClient* client,
                                 uint64_t acked_appends) {
    (void)client;
    (void)acked_appends;
    return {};
  }
};

/// The workload called `name`, or null.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

/// The side BAT every workload defines for append probes and replays.
constexpr const char* kProbeBat = "Probe.v";

/// The kAppendValues ints of APPEND `i` of the named stream.
monet::Column AppendValues(uint64_t seed, const std::string& stream,
                           uint64_t i);

/// The engine configuration answers are checked against: one thread,
/// unsharded, recycler off.
db::QueryOptions ReferenceOptions();

}  // namespace mirror::bench

#endif  // MIRROR_BENCH_E2E_WORKLOADS_H_
