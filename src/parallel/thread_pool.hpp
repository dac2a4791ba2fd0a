#pragma once
// Fixed-size worker pool with a shared task queue and one fan-out slot.
// The queue (submit / post) carries the serving dispatcher's batches; the
// slot carries the compute fan-out of the tensor drivers and the training
// step (parallel_for.hpp). The comm ranks of a thread-mode world are not
// pool tasks: comm::run_transport starts one std::thread per rank.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
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
  /// One fan-out task: task(body, t) runs task t of the job `body`.
  using FanOutTask = void (*)(const void* body, std::size_t t);

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
    enqueue([packaged] { (*packaged)(); }, "ThreadPool::submit");
    return future;
  }

  /// Fire-and-forget enqueue: no packaged_task, no future — one queue
  /// slot and (at most) one std::function allocation. This is the
  /// serving dispatcher's per-batch path, where the future returned by
  /// submit() was pure overhead: nobody ever waited on it. The task must
  /// handle its own errors; an escaped exception terminates the worker.
  /// Throws std::runtime_error after shutdown.
  void post(std::function<void()> task) EXCLUDES(mutex_);

  /// task(body, t) for every t in [0, tasks), on the calling thread and
  /// on up to `threads` - 1 workers that join in; returns once every task
  /// has finished, then rethrows the exception of the lowest t that threw,
  /// if any. Tasks are claimed in index order from a shared counter, so
  /// which thread runs task t varies and nothing may depend on it, and a
  /// thread on a slower core claims fewer of them. The caller never waits
  /// for a worker to become free: it runs every task no worker has
  /// claimed. An admitted worker polls for the next fan-out for up to
  /// 500 us (kFanOutSpin in the .cpp) before it parks, so the back-to-back
  /// fan-outs of a training step find it awake and an idle pool holds no
  /// core. One fan-out uses the pool at a time; a call made while another
  /// is running runs all its tasks on the calling thread.
  void fan_out(std::size_t tasks, std::size_t threads, FanOutTask task,
               const void* body) EXCLUDES(mutex_, error_mutex_);

  [[nodiscard]] std::size_t size() const noexcept {
    return size_.load(std::memory_order_relaxed);
  }

  /// Grow the pool to at least `threads` workers (a no-op when it is
  /// already that large). Serving layers call this so a shard fan-out is
  /// never throttled below the shard count by a small default pool.
  void grow(std::size_t threads) EXCLUDES(mutex_);

  /// Block until every queued task has finished.
  void wait_idle() EXCLUDES(mutex_);

  /// True when the calling thread is a ThreadPool worker (any pool).
  /// The compute fan-out (parallel::task_count) uses this to run inline
  /// instead of spreading nested work from inside a task.
  [[nodiscard]] static bool in_worker() noexcept;

 private:
  void enqueue(std::function<void()> task, const char* what)
      EXCLUDES(mutex_);
  void add_workers(std::size_t threads) REQUIRES(mutex_);
  void worker_loop() EXCLUDES(mutex_);
  /// Joins the open fan-out, if it admits one more worker, and runs the
  /// tasks left unclaimed; true when it was admitted.
  bool help_fan_out() EXCLUDES(error_mutex_);
  void run_fan_out_tasks() EXCLUDES(error_mutex_);

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
  /// Lock-free mirrors for the hot paths: the worker count, and the
  /// queue length a spinning worker checks to leave for a queued task.
  std::atomic<std::size_t> size_{0};
  std::atomic<std::size_t> queued_{0};

  // ---- the fan-out slot ----------------------------------------------------
  // The owner (the fan_out caller holding fan_busy_) writes the job and
  // resets the counters, then opens the slot and bumps fan_epoch_; the
  // epoch is what parked and spinning workers wait on. A worker counts
  // itself into fan_helpers_ before it looks at the slot, and the owner
  // closes the slot and waits for fan_helpers_ to drain before it
  // returns, so no worker touches a job that has gone out of scope.
  struct Job {
    FanOutTask task = nullptr;
    const void* body = nullptr;
    std::size_t tasks = 0;
    std::size_t helpers = 0;  ///< workers admitted beside the owner
  };
  std::atomic<bool> fan_busy_{false};
  std::atomic<bool> fan_open_{false};
  std::atomic<std::uint64_t> fan_epoch_{0};
  std::atomic<std::size_t> parked_{0};
  std::atomic<std::size_t> spinning_{0};
  alignas(64) std::atomic<std::size_t> fan_next_{0};
  alignas(64) std::atomic<std::size_t> fan_done_{0};
  alignas(64) std::atomic<std::size_t> fan_helpers_{0};
  std::atomic<std::size_t> fan_admitted_{0};
  Job job_;  ///< written before fan_open_ is set, read after it is seen
  sb::Mutex error_mutex_;
  std::size_t error_task_ GUARDED_BY(error_mutex_) = 0;
  std::exception_ptr error_ GUARDED_BY(error_mutex_);
};

/// Process-wide default pool (lazily constructed).
ThreadPool& global_pool();

}  // namespace streambrain::parallel
