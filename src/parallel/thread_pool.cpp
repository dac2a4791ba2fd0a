#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

namespace streambrain::parallel {

namespace {

thread_local bool t_in_pool_worker = false;

// How long a worker that just ran a fan-out task keeps polling for the
// next fan-out before it parks on the condition variable. A training batch
// of the paper's 1x300 network runs 100-250 us on one thread (the
// zero-skipping support and trace GEMMs, the serial noise draws) between
// its fan-outs, so a shorter bound parks the workers inside every batch:
// at 50 us the fit took 3.4 / 2.7 s against OpenMP's 2.3 / 2.4 s. With
// this polling loop (medians of 3 fits, two rounds, on a 4-vCPU VM where
// OpenMP took 1.9 / 2.1 s) 200 us took 1.6 / 1.9 s, 500 us 1.5 / 1.6 s and
// 1000 us 1.5 / 1.6 s; the shorter of the two ties holds a core less.
constexpr std::chrono::microseconds kFanOutSpin{500};
// A polling worker yields its core every this many polls, so a thread
// that shares the core with it (a fan-out owner, most of all) waits a few
// microseconds for it, not the rest of the polling window.
constexpr unsigned kPollsPerYield = 32;

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// The fan-out owner's wait for tasks other threads are finishing: they
/// are running already, so poll, and yield the core once the wait is
/// longer than a few microseconds.
template <typename Done>
void await(const Done& done) {
  for (unsigned polls = 0; !done(); ++polls) {
    if (polls < 64) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
}

}  // namespace

bool ThreadPool::in_worker() noexcept { return t_in_pool_worker; }

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  const sb::MutexLock lock(mutex_);
  add_workers(threads);
}

void ThreadPool::add_workers(std::size_t threads) {
  workers_.reserve(threads);
  while (workers_.size() < threads) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  size_.store(workers_.size(), std::memory_order_relaxed);
}

void ThreadPool::enqueue(std::function<void()> task, const char* what) {
  {
    const sb::MutexLock lock(mutex_);
    if (stopping_) {
      throw std::runtime_error(std::string(what) + " after shutdown");
    }
    queue_.push(std::move(task));
    queued_.store(queue_.size(), std::memory_order_relaxed);
  }
  cv_.notify_one();
}

void ThreadPool::post(std::function<void()> task) {
  enqueue(std::move(task), "ThreadPool::post");
}

void ThreadPool::grow(std::size_t threads) {
  const sb::MutexLock lock(mutex_);
  if (stopping_) {
    throw std::runtime_error("ThreadPool::grow after shutdown");
  }
  add_workers(threads);
}

ThreadPool::~ThreadPool() {
  {
    const sb::MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  t_in_pool_worker = true;
  std::uint64_t seen = fan_epoch_.load(std::memory_order_acquire);
  for (;;) {
    std::function<void()> task;
    {
      const sb::MutexLock lock(mutex_);
      // Counted before the epoch is read, both sequentially consistent:
      // a fan_out that bumps the epoch after this read sees the count, and
      // when it wants this worker it notifies under mutex_, so that
      // wake-up cannot be lost.
      parked_.fetch_add(1);
      while (!stopping_ && queue_.empty() && fan_epoch_.load() == seen) {
        cv_.wait(mutex_);
      }
      parked_.fetch_sub(1);
      if (!queue_.empty()) {
        task = std::move(queue_.front());
        queue_.pop();
        queued_.store(queue_.size(), std::memory_order_relaxed);
        ++active_;
      } else if (stopping_) {
        return;
      }
    }
    if (task) {
      task();
      const sb::MutexLock lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
      continue;
    }
    // A fan-out was published: help, then stay awake for the next one
    // while it keeps admitting this worker and no queued task is waiting.
    seen = fan_epoch_.load(std::memory_order_acquire);
    if (!help_fan_out()) continue;
    auto deadline = std::chrono::steady_clock::now() + kFanOutSpin;
    spinning_.fetch_add(1, std::memory_order_relaxed);
    for (unsigned polls = 1; queued_.load(std::memory_order_relaxed) == 0;
         ++polls) {
      const std::uint64_t epoch = fan_epoch_.load(std::memory_order_acquire);
      if (epoch != seen) {
        seen = epoch;
        if (!help_fan_out()) break;
        deadline = std::chrono::steady_clock::now() + kFanOutSpin;
      } else if (std::chrono::steady_clock::now() >= deadline) {
        break;
      } else if (polls % kPollsPerYield == 0) {
        std::this_thread::yield();
      } else {
        cpu_relax();
      }
    }
    spinning_.fetch_sub(1, std::memory_order_relaxed);
  }
}

bool ThreadPool::help_fan_out() {
  // Counted before the slot is read, both sequentially consistent: an
  // owner that closes the slot after this either is seen closing it or
  // sees the count and waits for it.
  fan_helpers_.fetch_add(1);
  // Only the job's helpers are admitted, so no more threads run or poll
  // than the job may use.
  const bool admitted =
      fan_open_.load() &&
      fan_admitted_.fetch_add(1, std::memory_order_relaxed) < job_.helpers;
  if (admitted) run_fan_out_tasks();
  fan_helpers_.fetch_sub(1, std::memory_order_release);
  return admitted;
}

void ThreadPool::run_fan_out_tasks() {
  const Job job = job_;
  for (std::size_t t = fan_next_.fetch_add(1, std::memory_order_relaxed);
       t < job.tasks; t = fan_next_.fetch_add(1, std::memory_order_relaxed)) {
    try {
      job.task(job.body, t);
    } catch (...) {
      const sb::MutexLock lock(error_mutex_);
      if (!error_ || t < error_task_) {
        error_task_ = t;
        error_ = std::current_exception();
      }
    }
    fan_done_.fetch_add(1, std::memory_order_release);
  }
}

void ThreadPool::fan_out(std::size_t tasks, std::size_t threads,
                         FanOutTask task, const void* body) {
  const std::size_t helpers = std::min(tasks, threads) - 1;
  bool idle = false;
  if (tasks < 2 || threads < 2 ||
      !fan_busy_.compare_exchange_strong(idle, true,
                                         std::memory_order_acquire)) {
    std::exception_ptr error;
    for (std::size_t t = 0; t < tasks; ++t) {
      try {
        task(body, t);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }
  job_ = {.task = task, .body = body, .tasks = tasks, .helpers = helpers};
  fan_next_.store(0, std::memory_order_relaxed);
  fan_done_.store(0, std::memory_order_relaxed);
  fan_admitted_.store(0, std::memory_order_relaxed);
  fan_open_.store(true, std::memory_order_release);
  fan_epoch_.fetch_add(1);
  // Wake parked workers only for the helpers the polling ones cannot be.
  // A wake-up costs the owner a system call and can preempt it, so a
  // stale count here only moves tasks onto the owner.
  const std::size_t polling = spinning_.load(std::memory_order_relaxed);
  const std::size_t parked = parked_.load();
  if (polling < helpers && parked != 0) {
    { const sb::MutexLock lock(mutex_); }
    for (std::size_t i = std::min(parked, helpers - polling); i > 0; --i) {
      cv_.notify_one();
    }
  }
  run_fan_out_tasks();
  await([&] { return fan_done_.load(std::memory_order_acquire) == tasks; });
  fan_open_.store(false);
  await([&] { return fan_helpers_.load() == 0; });
  std::exception_ptr error;
  {
    const sb::MutexLock lock(error_mutex_);
    error = std::exchange(error_, nullptr);
  }
  fan_busy_.store(false, std::memory_order_release);
  if (error) std::rethrow_exception(error);
}

void ThreadPool::wait_idle() {
  const sb::MutexLock lock(mutex_);
  while (!queue_.empty() || active_ != 0) idle_cv_.wait(mutex_);
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace streambrain::parallel
