#include "monet/worker_pool.h"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <memory>

namespace mirror::monet {

WorkerPool::~WorkerPool() { StopWorkers(); }

int WorkerPool::StopWorkers() {
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    threads.swap(threads_);
  }
  cv_.notify_all();
  for (std::thread& t : threads) t.join();
  std::lock_guard<std::mutex> lock(mu_);
  shutdown_ = false;
  return static_cast<int>(threads.size());
}

void WorkerPool::EnsureWorkers(int n) {
  std::lock_guard<std::mutex> lock(mu_);
  // While StopWorkers joins, a new thread would exit at once; whoever
  // stopped the pool regrows it (the fork handlers do).
  if (shutdown_) return;
  while (static_cast<int>(threads_.size()) < n) {
    threads_.emplace_back([this] { Loop(); });
  }
}

void WorkerPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

int WorkerPool::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(threads_.size());
}

void WorkerPool::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
    if (queue_.empty()) return;  // shutdown with a drained queue
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    task();
    lock.lock();
  }
}

WorkerPool& SharedWorkerPool() {
  static WorkerPool pool;
  // fork(2) copies only the calling thread. So the pool is emptied around
  // it: prepare joins every worker once the queue drains and holds the
  // lock across the fork; the parent regrows to its old size, and the
  // child drops the parent's queue and grows on its first query. The
  // fork then happens single-threaded (ThreadSanitizer requires that)
  // and the child has no phantom workers.
  static int workers_before_fork = 0;
  static const int registered = ::pthread_atfork(
      [] {
        workers_before_fork = pool.StopWorkers();
        pool.mu_.lock();
      },
      [] {
        pool.mu_.unlock();
        pool.EnsureWorkers(workers_before_fork);
      },
      [] {
        pool.queue_.clear();
        pool.mu_.unlock();
      });
  (void)registered;
  return pool;
}

int AutoThreads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

void ParallelFor(WorkerPool* pool, size_t tasks,
                 const std::function<void(size_t)>& fn) {
  if (pool == nullptr || tasks <= 1) {
    for (size_t i = 0; i < tasks; ++i) fn(i);
    return;
  }
  struct Group {
    std::atomic<size_t> next{0};
    size_t tasks = 0;
    const std::function<void(size_t)>* fn = nullptr;
    std::mutex mu;
    std::condition_variable cv;
    size_t done = 0;  // finished indices, under mu
  };
  // Shared: a helper dequeued after the caller returned still touches
  // the group (to find nothing left to claim), but never `fn` — every
  // claimed index finishes before the caller stops waiting.
  auto group = std::make_shared<Group>();
  group->tasks = tasks;
  group->fn = &fn;
  auto drain = [](Group& g) {
    size_t ran = 0;
    for (size_t i; (i = g.next.fetch_add(1)) < g.tasks; ++ran) (*g.fn)(i);
    if (ran == 0) return;
    std::lock_guard<std::mutex> lock(g.mu);
    g.done += ran;
    if (g.done == g.tasks) g.cv.notify_all();
  };
  size_t helpers = std::min(tasks - 1, static_cast<size_t>(pool->size()));
  for (size_t h = 0; h < helpers; ++h) {
    pool->Submit([group, drain] { drain(*group); });
  }
  drain(*group);
  std::unique_lock<std::mutex> lock(group->mu);
  group->cv.wait(lock, [&] { return group->done == group->tasks; });
}

void ParallelForChunks(
    WorkerPool* pool, size_t total, size_t chunks,
    const std::function<void(size_t, size_t, size_t)>& fn) {
  if (chunks <= 1) {
    fn(0, 0, total);
    return;
  }
  size_t chunk = (total + chunks - 1) / chunks;
  ParallelFor(pool, chunks, [&](size_t j) {
    // Both bounds clamp: chunk counts larger than ceil-division needs
    // (legal per the contract) make trailing ranges empty, never inverted.
    size_t lo = std::min(total, j * chunk);
    fn(j, lo, std::min(total, lo + chunk));
  });
}

}  // namespace mirror::monet
