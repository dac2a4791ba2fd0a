#include "serve/request_queue.hpp"

#include <stdexcept>
#include <utility>

namespace streambrain::serve {

// --- ServeRequest -----------------------------------------------------------

void ServeRequest::prepare(RequestKind new_kind) {
  // Only the consumed promise needs a fresh shared state; the other one
  // (if any) was never armed and is still usable. A recycled request
  // therefore costs one allocation here instead of two promise states
  // plus the object itself.
  if (labels_consumed_.load(std::memory_order_relaxed)) {
    labels_promise_ = std::promise<std::vector<int>>();
    labels_consumed_.store(false, std::memory_order_relaxed);
  }
  if (scores_consumed_.load(std::memory_order_relaxed)) {
    scores_promise_ = std::promise<std::vector<double>>();
    scores_consumed_.store(false, std::memory_order_relaxed);
  }
  kind = new_kind;
  chunks_remaining_.store(0, std::memory_order_relaxed);
  failed_.store(false, std::memory_order_relaxed);
  labels.clear();
  scores.clear();
}

void ServeRequest::ensure_result_storage() {
  if (kind == RequestKind::kLabels) {
    if (labels.size() != x.rows()) labels.assign(x.rows(), 0);
  } else {
    if (scores.size() != x.rows()) scores.assign(x.rows(), 0.0);
  }
}

void ServeRequest::add_chunks(std::size_t count) {
  chunks_remaining_.fetch_add(count, std::memory_order_acq_rel);
}

bool ServeRequest::complete_chunk() {
  // acq_rel: the release publishes this chunk's result rows, the acquire
  // on the final decrement makes every chunk's rows visible before the
  // promise is fulfilled.
  if (chunks_remaining_.fetch_sub(1, std::memory_order_acq_rel) != 1) {
    return false;
  }
  if (!failed_.load(std::memory_order_acquire)) {
    // First settle wins: a concurrent fail() from another batch of the
    // same request may have beaten us to the shared state.
    try {
      if (kind == RequestKind::kLabels) {
        labels_promise_.set_value(std::move(labels));
      } else {
        scores_promise_.set_value(std::move(scores));
      }
    } catch (const std::future_error&) {
    }
    if (kind == RequestKind::kLabels) {
      labels_consumed_.store(true, std::memory_order_relaxed);
    } else {
      scores_consumed_.store(true, std::memory_order_relaxed);
    }
  }
  return true;
}

void ServeRequest::fail(std::exception_ptr error) {
  const sb::MutexLock lock(fail_mutex_);
  if (failed_.load(std::memory_order_acquire)) return;
  failed_.store(true, std::memory_order_release);
  try {
    if (kind == RequestKind::kLabels) {
      labels_promise_.set_exception(std::move(error));
    } else {
      scores_promise_.set_exception(std::move(error));
    }
  } catch (const std::future_error&) {
    // A racing complete_chunk() settled first; the client gets the value.
  }
  if (kind == RequestKind::kLabels) {
    labels_consumed_.store(true, std::memory_order_relaxed);
  } else {
    scores_consumed_.store(true, std::memory_order_relaxed);
  }
}

// --- RequestQueue -----------------------------------------------------------

RequestQueue::RequestQueue(std::size_t capacity, OverflowPolicy policy)
    : capacity_(capacity), policy_(policy) {
  if (capacity_ == 0) {
    throw std::invalid_argument("RequestQueue: capacity must be > 0");
  }
}

bool RequestQueue::push(std::shared_ptr<ServeRequest> request) {
  sb::MutexLock lock(mutex_);
  if (closed_) throw std::runtime_error("RequestQueue: push after close");
  if (items_.size() >= capacity_) {
    if (policy_ == OverflowPolicy::kReject) {
      ++rejected_;
      return false;
    }
    ++push_waiters_;
    while (!closed_ && items_.size() >= capacity_) not_full_.wait(mutex_);
    --push_waiters_;
    if (closed_) throw std::runtime_error("RequestQueue: push after close");
  }
  items_.push_back(std::move(request));
  // Targeted wakeup: signal only when a pop() is actually blocked. With
  // the dispatcher keeping up this skips a futex call per request.
  const bool wake = pop_waiters_ > 0;
  lock.unlock();
  if (wake) not_empty_.notify_one();
  return true;
}

std::shared_ptr<ServeRequest> RequestQueue::pop() {
  return pop_until(std::chrono::steady_clock::time_point::max());
}

std::shared_ptr<ServeRequest> RequestQueue::pop_until(
    std::chrono::steady_clock::time_point deadline) {
  sb::MutexLock lock(mutex_);
  if (items_.empty() && !closed_) {
    ++pop_waiters_;
    if (deadline == std::chrono::steady_clock::time_point::max()) {
      while (items_.empty() && !closed_) not_empty_.wait(mutex_);
    } else {
      bool timed_out = false;
      while (items_.empty() && !closed_ && !timed_out) {
        timed_out = !not_empty_.wait_until(mutex_, deadline);
      }
    }
    --pop_waiters_;
  }
  if (items_.empty()) return nullptr;  // timed out, or closed and drained
  std::shared_ptr<ServeRequest> request = std::move(items_.front());
  items_.pop_front();
  // Only a kBlock submitter stalled on a full queue needs the signal.
  const bool wake = push_waiters_ > 0;
  lock.unlock();
  if (wake) not_full_.notify_one();
  return request;
}

void RequestQueue::close() {
  {
    const sb::MutexLock lock(mutex_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

bool RequestQueue::closed() const {
  const sb::MutexLock lock(mutex_);
  return closed_;
}

bool RequestQueue::drained() const {
  const sb::MutexLock lock(mutex_);
  return closed_ && items_.empty();
}

bool RequestQueue::empty() const {
  const sb::MutexLock lock(mutex_);
  return items_.empty();
}

std::size_t RequestQueue::size() const {
  const sb::MutexLock lock(mutex_);
  return items_.size();
}

std::uint64_t RequestQueue::rejected() const {
  const sb::MutexLock lock(mutex_);
  return rejected_;
}

}  // namespace streambrain::serve
