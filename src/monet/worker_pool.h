#ifndef MIRROR_MONET_WORKER_POOL_H_
#define MIRROR_MONET_WORKER_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mirror::monet {

/// A persistent pool of worker threads draining a task queue. The engine
/// runs every query on one process-wide instance (SharedWorkerPool) so
/// threads survive across queries and sessions: spawning threads per
/// query would dominate short plans, and a pool per session would
/// multiply threads (and their malloc arenas) by the connection count.
///
/// Lives below the kernel layer (not in monet/exec) so BAT operators can
/// split their own work into morsels without depending on the MIL engine.
class WorkerPool {
 public:
  WorkerPool() = default;
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;
  ~WorkerPool();

  /// Grows the pool to at least `n` threads (never shrinks).
  void EnsureWorkers(int n);

  /// Enqueues a task; some worker runs it eventually.
  void Submit(std::function<void()> task);

  int size() const;

 private:
  friend WorkerPool& SharedWorkerPool();

  /// Joins every worker once the queue has drained and returns how many
  /// there were; a later EnsureWorkers grows the pool again.
  int StopWorkers();
  void Loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  bool shutdown_ = false;
};

/// The process-wide pool every ExecutionEngine::Run schedules on, with or
/// without a session. It grows to the largest thread count any query
/// requests and never shrinks (a fork(2) joins its workers first; see
/// worker_pool.cc), so the engine's thread count is the maximum over
/// sessions, not their sum.
WorkerPool& SharedWorkerPool();

/// The thread count of an auto-threaded query: one per hardware thread
/// (at least 1). Bulk loads grow the shared pool to this count too, so
/// loading never adds threads a query would not.
int AutoThreads();

/// Runs `fn(0) .. fn(tasks-1)` and returns when all calls have finished.
/// Indices are claimed from the group's own counter by the calling
/// thread and by at most min(tasks - 1, pool size) helper tasks
/// submitted to the pool. The caller runs only this group's indices, and
/// once none is left unclaimed it waits only for indices other threads
/// are already running — so a call from inside another pool task (nested
/// morsels, shard fan-out) always finishes, even on a 1-thread pool, and
/// a waiting caller never picks up another query's work. A null pool (or
/// tasks <= 1) degenerates to a plain loop on the calling thread.
///
/// `fn` must tolerate concurrent invocation for distinct indexes; tasks
/// must not throw (kernel failures go through MIRROR_CHECK).
void ParallelFor(WorkerPool* pool, size_t tasks,
                 const std::function<void(size_t)>& fn);

/// Splits the domain [0, total) into `chunks` contiguous ranges and runs
/// `fn(chunk_index, lo, hi)` for each across the pool — the shared
/// chunking idiom of the morselized kernels. chunks <= 1 runs one inline
/// call covering the whole domain.
void ParallelForChunks(
    WorkerPool* pool, size_t total, size_t chunks,
    const std::function<void(size_t, size_t, size_t)>& fn);

}  // namespace mirror::monet

#endif  // MIRROR_MONET_WORKER_POOL_H_
