#ifndef MIRROR_MIRROR_MIRROR_DB_H_
#define MIRROR_MIRROR_MIRROR_DB_H_

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "moa/database.h"
#include "moa/expr.h"
#include "moa/flatten.h"
#include "moa/naive_eval.h"
#include "moa/optimizer.h"
#include "moa/query_context.h"
#include "monet/exec.h"
#include "monet/mil.h"
#include "monet/recycler.h"
#include "monet/wal.h"

namespace mirror::db {

/// How a query should be executed.
struct QueryOptions {
  /// Flattened set-at-a-time execution over BATs (the Mirror way). When
  /// false, the naive tuple-at-a-time object interpreter runs instead
  /// (the [BWK98] baseline, kept as the semantic oracle).
  bool flattened = true;
  /// Algebraic rewriting + optimized physical translation (the flattener
  /// emits the final MIL; see moa::FlattenOptions).
  bool optimize = true;
  /// Vectorized engine knobs: threads, shards, pruning, recycling.
  monet::mil::ExecOptions exec;
};

/// Acknowledgement of a durable write: the WAL position that covers it
/// and the row counts after it was applied.
struct WriteAck {
  uint64_t lsn = 0;           // 0 when no WAL is attached
  uint64_t visible_rows = 0;  // rows visible in the BAT after the write
  uint64_t deleted = 0;       // rows newly deleted (DeleteRows only)
};

/// How Recover() brings a crashed database back.
enum class RecoveryMode {
  /// Restore everything before returning: full catalog load, object and
  /// index reconstruction, complete WAL replay. The classic restart.
  kFull,
  /// MM-DIRECT-style instant recovery: restore only the schemas, open
  /// for queries immediately, and load + WAL-replay each BAT on first
  /// touch while a background thread drains the rest.
  kLazy,
};

/// Durability counters surfaced through the daemon's STATS frame.
struct RecoveryStats {
  uint64_t wal_appends = 0;
  uint64_t wal_replayed_records = 0;
  uint64_t wal_truncated_bytes = 0;
  uint64_t recovery_lazy_loads = 0;  // query-driven on-demand loads
  bool recovery_pending = false;     // fragments still await recovery
};

/// A compiled query, for inspection (EXPLAIN) and repeated execution.
struct PreparedQuery {
  moa::ExprPtr logical;           // after rewriting
  monet::mil::Program program;    // physical plan (flattened mode)
  moa::OptimizerReport optimizer; // what the logical rewrites did
};

/// The Mirror DBMS: "a research database system ... to better understand
/// the kind of data management that is required in the context of
/// multimedia digital libraries" (§1). Integrates the Moa logical layer,
/// the binary-relational physical kernel and the IR engine behind one
/// query API; schemas and queries use the paper's surface syntax.
class MirrorDb {
 public:
  MirrorDb() = default;
  ~MirrorDb();
  MirrorDb(const MirrorDb&) = delete;
  MirrorDb& operator=(const MirrorDb&) = delete;

  /// Registers a schema: `define X as SET<TUPLE<...>>;`.
  base::Status Define(std::string_view schema_text) {
    return logical_.Define(schema_text);
  }

  /// Bulk-loads objects into a defined set. Cached plans compiled against
  /// the previous contents are stale afterwards, so every registered
  /// session (see RegisterSession) is notified and drops its plan cache —
  /// callers no longer call InvalidatePlans() by hand.
  ///
  /// Load is a real quiesce barrier: it stops query/write intake at the
  /// gate, waits for every in-flight query and durable write to drain,
  /// swaps the contents, then resumes. Queries concurrent with a reload
  /// therefore see either the entire old contents or the entire new
  /// contents, never a torn mix.
  ///
  /// The set is shredded on the shared worker pool, grown first to the
  /// thread count of an auto-threaded query; the zone maps of its new
  /// BATs are built before intake resumes, and every other BAT keeps its
  /// zone maps and shard fragments.
  base::Status Load(const std::string& set_name,
                    std::vector<moa::MoaValue> objects);

  /// Load() plus an N-way oid-range sharding of the physical catalog:
  /// the shard layout is pre-built and `num_shards` becomes the
  /// database's default, so every query whose ExecOptions leave
  /// num_shards at 0 (the "inherit" value — what existing callers like
  /// retrieval_app pass) runs on the shard-parallel engine transparently.
  /// num_shards < 2 degrades to a plain Load and clears the default.
  /// Registered sessions are invalidated exactly as by Load.
  base::Status LoadSharded(const std::string& set_name,
                           std::vector<moa::MoaValue> objects,
                           size_t num_shards);

  /// Shard count applied to queries that don't pin one (0 = unsharded).
  size_t default_shard_count() const { return default_shards_; }

  // -- Durable writes (the daemon's APPEND/DELETE path). ----------------

  /// Attaches (creating or recovering) a write-ahead log. Every
  /// subsequent Append/DeleteRows is logged and fsynced before it is
  /// acknowledged. `fi` (may be null, not owned) injects faults into log
  /// writes for crash testing. Records already in the log are NOT
  /// replayed here — use Recover() for that.
  base::Status AttachWal(const std::string& wal_path,
                         monet::FaultInjector* fi = nullptr);

  /// Appends `values` to the named BAT's insert tail, WAL-first: the
  /// record is written and group-commit fsynced before the ack returns,
  /// so an acknowledged append survives any crash-kill. Compiled plans
  /// stay valid (they bind BAT names, not contents); the naive
  /// interpreter's materialized objects do NOT see catalog appends, so
  /// wire writes pair with flattened execution only.
  base::Result<WriteAck> Append(const std::string& bat_name,
                                monet::Column values);

  /// Marks rows deleted in the named BAT, WAL-first like Append.
  base::Result<WriteAck> DeleteRows(const std::string& bat_name,
                                    std::vector<monet::Oid> oids);

  /// Checkpoints the database (atomic SaveTo of the visible snapshot)
  /// and resets the WAL — the log only needs to cover writes since the
  /// last checkpoint. Drains any pending recovery first so the
  /// checkpoint is complete.
  base::Status Checkpoint(const std::string& dir);

  // -- Crash recovery. ---------------------------------------------------

  /// Rebuilds the database from a checkpoint directory plus the WAL at
  /// `wal_path` (the log is opened, its damaged tail truncated, and its
  /// records indexed). kFull replays everything before returning; kLazy
  /// returns as soon as schemas are restored, recovers each fragment on
  /// first touch, and (when `background_drain`) starts a thread that
  /// drains the remaining fragments. `fi` (may be null, not owned)
  /// injects faults into subsequent WAL writes.
  base::Status Recover(const std::string& dir, const std::string& wal_path,
                       RecoveryMode mode, bool background_drain = true,
                       monet::FaultInjector* fi = nullptr);

  /// True while lazily recovered fragments remain.
  bool recovery_pending() const;

  /// Recovers every still-pending fragment now (blocking).
  base::Status DrainRecovery();

  /// Ensures the named BATs are recovered (checkpoint load + WAL slice
  /// replay). No-op for names already live or without a pending
  /// recovery. ExecuteProgram calls this with the plan's kLoadNamed
  /// names; writes call it for their target.
  base::Status EnsureRecovered(const std::vector<std::string>& names) const;

  /// Durability + recovery counters (zeroed when no WAL is attached).
  RecoveryStats recovery_stats() const;

  const monet::Wal* wal() const { return wal_.get(); }

  /// Monotone counter of successful (Load/LoadSharded) reloads. The
  /// query daemon reports it in STATS so clients can observe that a
  /// reload invalidated every live session's plans.
  uint64_t load_generation() const {
    return load_generation_.load(std::memory_order_relaxed);
  }

  /// Registers a live session for plan-cache invalidation on Load. The
  /// session must outlive the registration (unregister before destroying
  /// it). Registering the same session twice is a no-op.
  void RegisterSession(monet::mil::ExecutionContext* session) const;

  /// Removes a session from the invalidation list (no-op if absent).
  void UnregisterSession(monet::mil::ExecutionContext* session) const;

  /// Number of currently registered sessions (diagnostics/tests).
  size_t registered_session_count() const;

  /// Parses, optimizes and compiles a query without running it: parse,
  /// RewriteLogical, flatten. No plan cache is consulted (Query's is).
  base::Result<PreparedQuery> Prepare(const std::string& query_text,
                                      const moa::QueryContext& ctx,
                                      const QueryOptions& options) const;

  /// Executes a query in the paper's surface syntax. With a `session`,
  /// repeated queries (same normalized text and bindings) skip parsing
  /// and compilation via the session plan cache.
  /// RegisterSession()ed sessions are invalidated automatically on Load;
  /// unregistered ones must call session->InvalidatePlans() after a
  /// re-Load themselves.
  base::Result<moa::EvalOutput> Query(
      const std::string& query_text, const moa::QueryContext& ctx,
      const QueryOptions& options = QueryOptions(),
      monet::mil::ExecutionContext* session = nullptr) const;

  /// Runs an already-prepared query on the vectorized engine.
  base::Result<moa::EvalOutput> Execute(
      const PreparedQuery& prepared,
      const QueryOptions& options = QueryOptions(),
      monet::mil::ExecutionContext* session = nullptr) const;

  /// Runs a compiled MIL program directly (the plan-cache fast path).
  base::Result<moa::EvalOutput> ExecuteProgram(
      const monet::mil::Program& program, const QueryOptions& options,
      monet::mil::ExecutionContext* session = nullptr) const;

  moa::Database* logical() { return &logical_; }
  const moa::Database& logical() const { return logical_; }
  monet::Catalog* catalog() { return logical_.catalog(); }

  /// The server-wide recycler shared by every session of this database.
  /// Queries with `exec.recycle` arm it automatically (unsharded engine
  /// path); every mutation path fences it around the catalog apply, so
  /// entries never outlive the data version they were computed against.
  monet::Recycler* recycler() const { return &recycler_; }

 private:
  /// The quiesce barrier behind Load(): a writer-preferring shared/
  /// exclusive gate. Queries and durable writes hold it shared (they may
  /// overlap freely); Load holds it exclusive. Hand-rolled rather than
  /// std::shared_mutex because glibc's rwlock is reader-preferring — a
  /// steady query stream would starve the reload forever, while this
  /// gate parks new readers as soon as a writer announces itself.
  /// Member names follow the SharedLockable concept so std::shared_lock /
  /// std::unique_lock drive it.
  class QuiesceGate {
   public:
    void lock() {
      std::unique_lock<std::mutex> l(mu_);
      ++writers_waiting_;
      cv_.wait(l, [&] { return readers_ == 0 && !writer_active_; });
      --writers_waiting_;
      writer_active_ = true;
    }
    void unlock() {
      std::lock_guard<std::mutex> l(mu_);
      writer_active_ = false;
      cv_.notify_all();
    }
    void lock_shared() {
      std::unique_lock<std::mutex> l(mu_);
      cv_.wait(l, [&] { return writers_waiting_ == 0 && !writer_active_; });
      ++readers_;
    }
    void unlock_shared() {
      std::lock_guard<std::mutex> l(mu_);
      if (--readers_ == 0) cv_.notify_all();
    }

   private:
    std::mutex mu_;
    std::condition_variable cv_;
    int readers_ = 0;
    int writers_waiting_ = 0;
    bool writer_active_ = false;
  };

  /// Load body without the gate — shared by Load and LoadSharded so the
  /// latter doesn't deadlock re-entering the exclusive side.
  base::Status LoadLocked(const std::string& set_name,
                          std::vector<moa::MoaValue> objects);

  /// Prepare/ExecuteProgram bodies without the gate — Query holds the
  /// shared side once for its whole pipeline and calls these, while the
  /// public wrappers acquire it for external callers.
  base::Result<PreparedQuery> PrepareLocked(const std::string& query_text,
                                            const moa::QueryContext& ctx,
                                            const QueryOptions& options) const;
  base::Result<moa::EvalOutput> ExecuteProgramLocked(
      const monet::mil::Program& program, const QueryOptions& options,
      monet::mil::ExecutionContext* session) const;

  /// Per-fragment recovery state for kLazy. `pending` drains to empty as
  /// fragments are touched (or the background thread reaches them).
  struct RecoveryState {
    std::string dir;
    /// Mutation targets captured at Recover() time, so const query paths
    /// (ExecuteProgram) can complete recovery without shedding constness.
    moa::Database* db = nullptr;
    std::map<std::string, std::string> manifest;  // BAT name -> data file
    std::set<std::string> pending;
    std::vector<std::string> eager_sets;  // sets needing RestoreSetFromCatalog
    std::atomic<uint64_t> lazy_loads{0};
    /// Query-driven recoveries waiting on `mu`. The background drain
    /// yields between fragments while this is non-zero, so a first
    /// query never queues behind a long run of background replays.
    std::atomic<int> query_waiters{0};
    std::atomic<bool> stop{false};
    std::thread drain;
    mutable std::mutex mu;  // guards pending + catalog loads during recovery
  };

  /// Recovers one fragment under recovery_->mu (load + WAL slice).
  base::Status RecoverFragment(const std::string& name, bool query_driven) const;

  void StopDrainThread();

  moa::Database logical_;
  /// See QuiesceGate; mutable because const query paths hold it shared.
  mutable QuiesceGate gate_;
  std::unique_ptr<monet::Wal> wal_;
  /// Serializes writers (domain stamp + WAL append + catalog apply must
  /// agree); Sync happens outside it so group commit can batch.
  mutable std::mutex write_mu_;
  mutable std::unique_ptr<RecoveryState> recovery_;
  /// Default shard count for queries that inherit (exec.num_shards == 0);
  /// set by LoadSharded, 0 means unsharded.
  size_t default_shards_ = 0;
  /// Successful reload count (see load_generation()).
  std::atomic<uint64_t> load_generation_{0};
  /// Cross-request result + candidate cache (see recycler()); mutable
  /// because const query paths look up and insert.
  mutable monet::Recycler recycler_;
  /// Sessions notified on Load. Guarded by sessions_mu_; mutable so
  /// sessions can attach to a const-held database (registration does not
  /// change logical contents).
  mutable std::mutex sessions_mu_;
  mutable std::vector<monet::mil::ExecutionContext*> sessions_;
};

}  // namespace mirror::db

#endif  // MIRROR_MIRROR_MIRROR_DB_H_
