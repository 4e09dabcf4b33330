#include "mirror/mirror_db.h"

#include <chrono>
#include <fstream>
#include <thread>

#include "base/str_util.h"
#include "monet/worker_pool.h"

namespace mirror::db {

namespace mil = monet::mil;

namespace {

/// Session plan-cache key for a full query: normalized surface text plus
/// the options that shape the compiled program and the query bindings the
/// constant BATs were built from.
std::string PlanKey(const std::string& query_text,
                    const moa::QueryContext& ctx,
                    const QueryOptions& options) {
  std::string key = options.optimize ? "plan:O1:" : "plan:O0:";
  // Length-prefix the text so no query spelling can make two different
  // (text, bindings) pairs render to one key.
  std::string normalized = mil::ExecutionContext::NormalizeText(query_text);
  key += base::StrFormat("%zu:", normalized.size());
  key += normalized;
  key += "|";
  key += ctx.CacheKey();
  return key;
}

}  // namespace

MirrorDb::~MirrorDb() { StopDrainThread(); }

void MirrorDb::StopDrainThread() {
  if (recovery_ == nullptr) return;
  recovery_->stop.store(true, std::memory_order_relaxed);
  if (recovery_->drain.joinable()) recovery_->drain.join();
}

// ---------------------------------------------------------------------------
// Durable writes.

base::Status MirrorDb::AttachWal(const std::string& wal_path,
                                 monet::FaultInjector* fi) {
  auto wal = monet::Wal::Open(wal_path, fi);
  if (!wal.ok()) return wal.status();
  wal_ = wal.TakeValue();
  return base::Status::Ok();
}

base::Result<WriteAck> MirrorDb::Append(const std::string& bat_name,
                                        monet::Column values) {
  // Writes hold the quiesce gate shared: they overlap with queries and
  // each other (write_mu_ below orders them), but a Load in progress
  // excludes them until the new contents are fully in place.
  std::shared_lock<QuiesceGate> gate(gate_);
  // A write against a fragment that hasn't been recovered yet must land
  // on the recovered state, not an empty slot.
  MIRROR_RETURN_IF_ERROR(EnsureRecovered({bat_name}));
  uint64_t lsn = 0;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    // Double fence around the delta apply: the first drops every cached
    // entry computed against the old contents (and stops in-flight
    // executions from inserting), the second fences out executions that
    // straddled the apply window and may have read a mix of old and new
    // rows. No interleaving can publish or serve a stale entry.
    recycler_.Fence();
    // Stamp the append domain *before* applying, then apply *before*
    // logging: the catalog's validation acts as the gate, so the log
    // never holds a record that cannot replay. A crash between apply
    // and fsync loses only unacknowledged writes.
    auto domain = logical_.catalog()->AppendDomainRows(bat_name);
    if (!domain.ok()) return domain.status();
    if (wal_ != nullptr) {
      MIRROR_RETURN_IF_ERROR(logical_.catalog()->Append(bat_name, values));
      auto logged = wal_->Append(monet::kWalAppend, bat_name,
                                 static_cast<uint64_t>(domain.value()), values);
      if (!logged.ok()) return logged.status();
      lsn = logged.value();
    } else {
      MIRROR_RETURN_IF_ERROR(
          logical_.catalog()->Append(bat_name, std::move(values)));
    }
    recycler_.Fence();
    load_generation_.fetch_add(1, std::memory_order_relaxed);
  }
  // Group commit outside the writer lock: concurrent appends share one
  // fsync. No ack until the record is durable.
  if (wal_ != nullptr) MIRROR_RETURN_IF_ERROR(wal_->Sync(lsn));
  WriteAck ack;
  ack.lsn = lsn;
  auto visible = logical_.catalog()->VisibleRows(bat_name);
  if (visible.ok()) ack.visible_rows = static_cast<uint64_t>(visible.value());
  return ack;
}

base::Result<WriteAck> MirrorDb::DeleteRows(const std::string& bat_name,
                                            std::vector<monet::Oid> oids) {
  std::shared_lock<QuiesceGate> gate(gate_);
  MIRROR_RETURN_IF_ERROR(EnsureRecovered({bat_name}));
  uint64_t lsn = 0;
  uint64_t deleted = 0;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    recycler_.Fence();  // see Append: double fence around the apply
    auto domain = logical_.catalog()->AppendDomainRows(bat_name);
    if (!domain.ok()) return domain.status();
    monet::Column payload = monet::Column::MakeOids(oids);
    auto count = logical_.catalog()->DeleteRows(bat_name, std::move(oids));
    if (!count.ok()) return count.status();
    deleted = static_cast<uint64_t>(count.value());
    if (wal_ != nullptr) {
      auto logged = wal_->Append(monet::kWalDelete, bat_name,
                                 static_cast<uint64_t>(domain.value()),
                                 payload);
      if (!logged.ok()) return logged.status();
      lsn = logged.value();
    }
    recycler_.Fence();
    load_generation_.fetch_add(1, std::memory_order_relaxed);
  }
  if (wal_ != nullptr) MIRROR_RETURN_IF_ERROR(wal_->Sync(lsn));
  WriteAck ack;
  ack.lsn = lsn;
  ack.deleted = deleted;
  auto visible = logical_.catalog()->VisibleRows(bat_name);
  if (visible.ok()) ack.visible_rows = static_cast<uint64_t>(visible.value());
  return ack;
}

base::Status MirrorDb::Checkpoint(const std::string& dir) {
  // The checkpoint must cover every fragment, so finish recovery first.
  MIRROR_RETURN_IF_ERROR(DrainRecovery());
  std::lock_guard<std::mutex> lock(write_mu_);
  // Visible contents don't change, but the recovery drain above may have
  // replayed fragments mid-query; fencing keeps the invariant simple:
  // every mutation path advances the recycler generation.
  recycler_.Fence();
  MIRROR_RETURN_IF_ERROR(logical_.SaveTo(dir));
  if (wal_ != nullptr) MIRROR_RETURN_IF_ERROR(wal_->Reset());
  recycler_.Fence();
  return base::Status::Ok();
}

// ---------------------------------------------------------------------------
// Crash recovery.

base::Status MirrorDb::Recover(const std::string& dir,
                               const std::string& wal_path, RecoveryMode mode,
                               bool background_drain,
                               monet::FaultInjector* fi) {
  StopDrainThread();
  recovery_.reset();
  // Entries from the pre-crash (or pre-Recover) contents must not
  // survive into the recovered database.
  recycler_.Fence();
  load_generation_.fetch_add(1, std::memory_order_relaxed);
  auto wal = monet::Wal::Open(wal_path, fi);
  if (!wal.ok()) return wal.status();
  wal_ = wal.TakeValue();

  if (mode == RecoveryMode::kFull) {
    // The classic restart: everything — catalog, content indexes, the
    // naive interpreter's materialized objects — is rebuilt before the
    // first query can run, then the whole log replays. (Objects reflect
    // the checkpoint; the flattened engine, the daemon's only mode,
    // additionally sees the replayed log records.)
    MIRROR_RETURN_IF_ERROR(logical_.LoadFrom(dir));
    MIRROR_RETURN_IF_ERROR(wal_->ReplayAllInto(logical_.catalog()));
    logical_.catalog()->EnsureZones();
    return base::Status::Ok();
  }

  // kLazy: restore schemas only, recover fragments on first touch.
  auto st = std::make_unique<RecoveryState>();
  st->dir = dir;
  st->db = &logical_;
  std::ifstream manifest(dir + "/manifest.txt");
  if (!manifest) {
    return base::Status::IoError("cannot read manifest in " + dir);
  }
  std::string line;
  while (std::getline(manifest, line)) {
    if (line.empty()) continue;
    size_t tab = line.find('\t');
    if (tab == std::string::npos) {
      return base::Status::ParseError("bad manifest line: " + line);
    }
    st->manifest.emplace(line.substr(0, tab), line.substr(tab + 1));
  }
  std::set<std::string> available;
  for (const auto& [name, file] : st->manifest) available.insert(name);
  MIRROR_RETURN_IF_ERROR(
      logical_.RestoreSchemasLazy(dir, available, &st->eager_sets));
  st->pending = available;
  recovery_ = std::move(st);

  // Sets with in-memory reconstructions (content indexes, nested sets)
  // can't serve from bindings alone: recover their fragments eagerly and
  // rebuild them before opening for queries.
  for (const std::string& set_name : recovery_->eager_sets) {
    for (const auto& [name, file] : recovery_->manifest) {
      if (name == set_name || name.rfind(set_name + ".", 0) == 0) {
        MIRROR_RETURN_IF_ERROR(RecoverFragment(name, /*query_driven=*/false));
      }
    }
    MIRROR_RETURN_IF_ERROR(logical_.RestoreSetFromCatalog(set_name));
  }

  if (background_drain) {
    RecoveryState* rec = recovery_.get();
    rec->drain = std::thread([this, rec] {
      while (!rec->stop.load(std::memory_order_relaxed)) {
        // Foreground first: a query blocked on its fragment must not
        // queue behind a long run of background replays.
        while (rec->query_waiters.load(std::memory_order_relaxed) > 0 &&
               !rec->stop.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        std::string next;
        {
          std::lock_guard<std::mutex> lock(rec->mu);
          if (rec->pending.empty()) break;
          next = *rec->pending.begin();
        }
        if (!RecoverFragment(next, /*query_driven=*/false).ok()) break;
      }
    });
  }
  return base::Status::Ok();
}

base::Status MirrorDb::RecoverFragment(const std::string& name,
                                       bool query_driven) const {
  if (query_driven) {
    recovery_->query_waiters.fetch_add(1, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(recovery_->mu);
  if (query_driven) {
    recovery_->query_waiters.fetch_sub(1, std::memory_order_relaxed);
  }
  if (recovery_->pending.find(name) == recovery_->pending.end()) {
    return base::Status::Ok();  // already recovered (or never checkpointed)
  }
  auto it = recovery_->manifest.find(name);
  if (it != recovery_->manifest.end()) {
    MIRROR_RETURN_IF_ERROR(recovery_->db->catalog()->LoadBatFile(
        recovery_->dir + "/" + it->second, name));
  }
  if (wal_ != nullptr) {
    MIRROR_RETURN_IF_ERROR(
        wal_->ReplayInto(recovery_->db->catalog(), name));
  }
  recovery_->pending.erase(name);
  if (query_driven) {
    recovery_->lazy_loads.fetch_add(1, std::memory_order_relaxed);
  }
  return base::Status::Ok();
}

base::Status MirrorDb::EnsureRecovered(
    const std::vector<std::string>& names) const {
  if (recovery_ == nullptr) return base::Status::Ok();
  for (const std::string& name : names) {
    MIRROR_RETURN_IF_ERROR(RecoverFragment(name, /*query_driven=*/true));
  }
  return base::Status::Ok();
}

bool MirrorDb::recovery_pending() const {
  if (recovery_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(recovery_->mu);
  return !recovery_->pending.empty();
}

base::Status MirrorDb::DrainRecovery() {
  if (recovery_ == nullptr) return base::Status::Ok();
  for (;;) {
    std::string next;
    {
      std::lock_guard<std::mutex> lock(recovery_->mu);
      if (recovery_->pending.empty()) break;
      next = *recovery_->pending.begin();
    }
    MIRROR_RETURN_IF_ERROR(RecoverFragment(next, /*query_driven=*/false));
  }
  return base::Status::Ok();
}

RecoveryStats MirrorDb::recovery_stats() const {
  RecoveryStats out;
  if (wal_ != nullptr) {
    monet::WalStats ws = wal_->stats();
    out.wal_appends = ws.appends;
    out.wal_replayed_records = ws.replayed_records;
    out.wal_truncated_bytes = ws.truncated_bytes;
  }
  if (recovery_ != nullptr) {
    out.recovery_lazy_loads =
        recovery_->lazy_loads.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(recovery_->mu);
    out.recovery_pending = !recovery_->pending.empty();
  }
  return out;
}

base::Status MirrorDb::Load(const std::string& set_name,
                            std::vector<moa::MoaValue> objects) {
  // Quiesce: stop intake (the gate parks new shared acquirers as soon as
  // this writer announces itself), drain in-flight queries and writes,
  // swap, resume.
  std::unique_lock<QuiesceGate> gate(gate_);
  return LoadLocked(set_name, std::move(objects));
}

base::Status MirrorDb::LoadLocked(const std::string& set_name,
                                  std::vector<moa::MoaValue> objects) {
  recycler_.Fence();  // see Append: double fence around the apply
  // The logical Load shreds and interns on the shared pool; grow it to
  // the count an auto-threaded query would, so the first Load of a
  // process is parallel too.
  monet::SharedWorkerPool().EnsureWorkers(monet::AutoThreads());
  base::Status status = logical_.Load(set_name, std::move(objects));
  if (!status.ok()) return status;
  // Warm the zone maps eagerly: the statistics of the BATs this Load
  // replaced are stale, and rebuilding them here (one parallel scan per
  // new BAT; unchanged BATs keep theirs) keeps the first pruned query out
  // of the build cost.
  logical_.catalog()->EnsureZones();
  recycler_.Fence();
  load_generation_.fetch_add(1, std::memory_order_relaxed);
  // New contents invalidate every compiled plan that names this database:
  // notify live sessions so their next query re-flattens.
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (mil::ExecutionContext* session : sessions_) {
    session->InvalidatePlans();
  }
  return status;
}

base::Status MirrorDb::LoadSharded(const std::string& set_name,
                                   std::vector<moa::MoaValue> objects,
                                   size_t num_shards) {
  std::unique_lock<QuiesceGate> gate(gate_);
  base::Status status = LoadLocked(set_name, std::move(objects));
  if (!status.ok()) return status;
  if (num_shards < 2) {
    default_shards_ = 0;
    return status;
  }
  // Pre-build the layout so the first sharded query doesn't pay the
  // fragment slicing; after later Loads the next query reslices only the
  // BATs they replaced.
  const monet::ShardedCatalog* layout = logical_.catalog()->Shards(num_shards);
  if (layout != nullptr) {
    // Per-shard zone maps (whole-shard top-k pruning reads the fragment
    // bounds) warm alongside the layout.
    for (size_t s = 0; s < layout->num_shards(); ++s) {
      layout->shard(s).EnsureZones();
    }
  }
  default_shards_ = num_shards;
  return status;
}

void MirrorDb::RegisterSession(mil::ExecutionContext* session) const {
  if (session == nullptr) return;
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (mil::ExecutionContext* s : sessions_) {
    if (s == session) return;
  }
  sessions_.push_back(session);
}

void MirrorDb::UnregisterSession(mil::ExecutionContext* session) const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
    if (*it == session) {
      sessions_.erase(it);
      return;
    }
  }
}

size_t MirrorDb::registered_session_count() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return sessions_.size();
}

base::Result<PreparedQuery> MirrorDb::Prepare(
    const std::string& query_text, const moa::QueryContext& ctx,
    const QueryOptions& options) const {
  std::shared_lock<QuiesceGate> gate(gate_);
  return PrepareLocked(query_text, ctx, options);
}

base::Result<PreparedQuery> MirrorDb::PrepareLocked(
    const std::string& query_text, const moa::QueryContext& ctx,
    const QueryOptions& options) const {
  auto parsed = moa::ParseExpr(query_text);
  if (!parsed.ok()) return parsed.status();
  PreparedQuery prepared;
  prepared.logical = parsed.TakeValue();
  if (options.optimize) {
    prepared.logical =
        moa::RewriteLogical(prepared.logical, &prepared.optimizer);
  }
  moa::Flattener flattener(&logical_, &ctx,
                           moa::FlattenOptions{.optimize = options.optimize});
  auto program = flattener.Compile(prepared.logical);
  if (!program.ok()) return program.status();
  prepared.program = program.TakeValue();
  return prepared;
}

base::Result<moa::EvalOutput> MirrorDb::ExecuteProgram(
    const mil::Program& program, const QueryOptions& options,
    mil::ExecutionContext* session) const {
  std::shared_lock<QuiesceGate> gate(gate_);
  return ExecuteProgramLocked(program, options, session);
}

base::Result<moa::EvalOutput> MirrorDb::ExecuteProgramLocked(
    const mil::Program& program, const QueryOptions& options,
    mil::ExecutionContext* session) const {
  if (recovery_ != nullptr) {
    // Instant recovery: force-load exactly the fragments this plan
    // touches (checkpoint file + the WAL's per-BAT slice) before the
    // engine runs; everything else keeps recovering in the background.
    std::vector<std::string> names;
    for (const mil::Instr& instr : program.instrs()) {
      if (instr.op == mil::OpCode::kLoadNamed) names.push_back(instr.name);
    }
    MIRROR_RETURN_IF_ERROR(EnsureRecovered(names));
  }
  // num_shards == 0 inherits the database default (LoadSharded), so
  // callers that never heard of sharding run sharded transparently; an
  // explicit 1 pins the unsharded engine.
  mil::ExecOptions exec = options.exec;
  if (exec.num_shards == 0) exec.num_shards = default_shards_;
  if (exec.recycle) {
    // Arm the server-wide recycler, capturing the generation BEFORE the
    // engine reads any catalog state: a mutation landing after this
    // point advances the generation twice (double fence), so whatever
    // this execution computes is refused on insert.
    exec.recycler = &recycler_;
    exec.recycler_generation = recycler_.generation();
  }
  base::Result<mil::RunResult> run =
      mil::ExecutionEngine(&logical_.catalog(), exec).Run(program, session);
  if (!run.ok()) return run.status();
  moa::EvalOutput out;
  if (run.value().is_scalar) {
    out.is_scalar = true;
    out.scalar = monet::Value::MakeDbl(run.value().scalar);
  } else {
    out.bat = run.value().bat;
  }
  return out;
}

base::Result<moa::EvalOutput> MirrorDb::Execute(
    const PreparedQuery& prepared, const QueryOptions& options,
    mil::ExecutionContext* session) const {
  std::shared_lock<QuiesceGate> gate(gate_);
  return ExecuteProgramLocked(prepared.program, options, session);
}

base::Result<moa::EvalOutput> MirrorDb::Query(
    const std::string& query_text, const moa::QueryContext& ctx,
    const QueryOptions& options, mil::ExecutionContext* session) const {
  // One shared hold spans the whole pipeline (parse, plan, execute): a
  // concurrent Load waits for the query to finish, and the query never
  // sees a half-swapped catalog. The gate is NOT re-entrant, hence the
  // *Locked bodies below instead of the public wrappers.
  std::shared_lock<QuiesceGate> gate(gate_);
  if (!options.flattened) {
    auto parsed = moa::ParseExpr(query_text);
    if (!parsed.ok()) return parsed.status();
    moa::NaiveEvaluator naive(&logical_, &ctx);
    return naive.Evaluate(parsed.value());
  }
  std::string key;
  if (session != nullptr) {
    key = PlanKey(query_text, ctx, options);
    if (std::shared_ptr<const mil::Program> plan = session->CachedPlan(key)) {
      return ExecuteProgramLocked(*plan, options, session);
    }
  }
  auto prepared = PrepareLocked(query_text, ctx, options);
  if (!prepared.ok()) return prepared.status();
  if (session == nullptr) {
    return ExecuteProgramLocked(prepared.value().program, options, session);
  }
  // The session takes the plan (moved, not copied) and caches it when
  // this key was compiled before; either way the shared copy runs.
  std::shared_ptr<const mil::Program> plan =
      session->CachePlan(key, std::move(prepared.value().program));
  return ExecuteProgramLocked(*plan, options, session);
}

}  // namespace mirror::db
