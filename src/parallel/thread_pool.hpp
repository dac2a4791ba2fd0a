#pragma once
// Fixed-size worker pool with a shared task queue. Used by the comm
// substrate (ranks), the serving dispatcher, and the compute fan-out of
// the tensor drivers (parallel_for.hpp).

#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "util/annotated_mutex.hpp"
#include "util/thread_annotations.hpp"

namespace streambrain::parallel {

class ThreadPool {
 public:
  /// `threads == 0` selects hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; the future resolves with its result (or exception).
  template <typename F>
  auto submit(F&& task) -> std::future<std::invoke_result_t<F>> {
    using Result = std::invoke_result_t<F>;
    auto packaged = std::make_shared<std::packaged_task<Result()>>(
        std::forward<F>(task));
    std::future<Result> future = packaged->get_future();
    {
      const sb::MutexLock lock(mutex_);
      if (stopping_) {
        throw std::runtime_error("ThreadPool::submit after shutdown");
      }
      queue_.emplace([packaged] { (*packaged)(); });
    }
    cv_.notify_one();
    return future;
  }

  /// Fire-and-forget enqueue: no packaged_task, no future — one queue
  /// slot and (at most) one std::function allocation. This is the
  /// serving dispatcher's per-batch path, where the future returned by
  /// submit() was pure overhead: nobody ever waited on it. The task must
  /// handle its own errors; an escaped exception terminates the worker.
  /// Throws std::runtime_error after shutdown.
  void post(std::function<void()> task) EXCLUDES(mutex_);

  [[nodiscard]] std::size_t size() const EXCLUDES(mutex_);

  /// Grow the pool to at least `threads` workers (a no-op when it is
  /// already that large). Serving layers call this so a shard fan-out is
  /// never throttled below the shard count by a small default pool.
  void grow(std::size_t threads) EXCLUDES(mutex_);

  /// Tasks queued but not yet started — a cheap saturation signal for
  /// schedulers deciding whether to submit or run inline.
  [[nodiscard]] std::size_t queue_depth() const EXCLUDES(mutex_);

  /// Block until every queued task has finished.
  void wait_idle() EXCLUDES(mutex_);

  /// True when the calling thread is a ThreadPool worker (any pool).
  /// The compute fan-out (parallel::task_count) uses this to run inline
  /// instead of submitting nested work and blocking a worker on it,
  /// which could deadlock a single-worker pool.
  [[nodiscard]] static bool in_worker() noexcept;

 private:
  void worker_loop() EXCLUDES(mutex_);

  /// Joined by the destructor; grown under mutex_ (grow()), but the
  /// join itself runs after every worker observed stopping_, so the
  /// vector is stable by then.
  std::vector<std::thread> workers_ GUARDED_BY(mutex_);
  std::queue<std::function<void()>> queue_ GUARDED_BY(mutex_);
  mutable sb::Mutex mutex_;
  sb::CondVar cv_;
  sb::CondVar idle_cv_;
  std::size_t active_ GUARDED_BY(mutex_) = 0;
  bool stopping_ GUARDED_BY(mutex_) = false;
};

/// Process-wide default pool (lazily constructed).
ThreadPool& global_pool();

}  // namespace streambrain::parallel
