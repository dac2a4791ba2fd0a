#pragma once
// The serving layer's inbound side: one in-flight inference request and
// the bounded MPMC queue that carries requests from client threads to
// the AsyncPredictor's batching dispatcher.
//
// A ServeRequest completes through chunk accounting: the dispatcher may
// split a large request across several micro-batches (and several
// shards), so the request holds a chunk counter and fulfills its
// promise when the last chunk lands. Result rows are written by shard
// workers into disjoint ranges of the request's result vector, which is
// race-free by construction.
//
// The queue is bounded for backpressure: when it is full, push() either
// blocks the client (OverflowPolicy::kBlock) or refuses the request
// (kReject) so overload turns into explicit load-shedding instead of
// unbounded memory growth.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <stdexcept>
#include <vector>

#include "serve/freelist.hpp"
#include "tensor/matrix.hpp"
#include "util/annotated_mutex.hpp"
#include "util/thread_annotations.hpp"

namespace streambrain::serve {

enum class RequestKind { kLabels, kScores };

/// The documented admission-control rejection: carried by the future of
/// a request shed because accepted-but-unfulfilled rows already sit at
/// AsyncPredictorOptions::max_inflight_rows. Overload degrades to this
/// fast failure (no queue wait, no model time) instead of unbounded
/// queueing; clients catch it to back off or divert.
class OverloadError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class OverflowPolicy {
  kBlock,   ///< push() blocks until the queue has room.
  kReject,  ///< push() returns false immediately when full.
};

/// One inference request travelling through the async serving path.
/// Created by AsyncPredictor::submit*, completed by shard workers.
class ServeRequest {
 public:
  tensor::MatrixF x;
  RequestKind kind = RequestKind::kLabels;
  std::chrono::steady_clock::time_point enqueued_at{};

  /// Result storage, sized by the dispatcher; shard workers fill
  /// disjoint row ranges. Only the vector matching `kind` is used.
  std::vector<int> labels;
  std::vector<double> scores;

  [[nodiscard]] std::future<std::vector<int>> labels_future() {
    return labels_promise_.get_future();
  }
  [[nodiscard]] std::future<std::vector<double>> scores_future() {
    return scores_promise_.get_future();
  }

  /// Arm the request for (re)use with `kind`: reconstructs whichever
  /// promise the previous use consumed, clears the failure flag and
  /// chunk counter, and empties the result vectors (keeping their
  /// capacity). Called by RequestPool::acquire, so a recycled request
  /// costs one promise-state allocation instead of a full construction.
  void prepare(RequestKind new_kind);

  /// Drop the (possibly large) input matrix as the request returns to
  /// its RequestPool — only the object and its result-vector capacity
  /// are worth keeping warm.
  void recycle() noexcept { x = tensor::MatrixF(); }

  /// Size the result vector matching `kind` to x.rows() if it is not
  /// already — called by the dispatcher before a batch that scatters
  /// into row ranges is handed to shard workers (the whole-request
  /// zero-copy path skips it and moves the model's output in directly).
  void ensure_result_storage();

  /// Register `count` more outstanding chunks. The dispatcher arms the
  /// request with one guard chunk before splitting, so the promise can
  /// never fire while chunks are still being created.
  void add_chunks(std::size_t count);

  /// Mark one chunk finished; the last one fulfills the promise with the
  /// accumulated result (unless the request already failed). Returns
  /// true when THIS call retired the final chunk — the request is now
  /// complete, and exactly one caller observes it (the latency-
  /// accounting hook).
  bool complete_chunk();

  /// Fail the request (first failure wins; later chunks still count
  /// down normally but the promise already holds `error`).
  void fail(std::exception_ptr error);

  [[nodiscard]] bool failed() const {
    return failed_.load(std::memory_order_acquire);
  }

 private:
  /// The promises are NOT mutex-guarded: complete_chunk() settles them
  /// lock-free after winning the final chunk decrement, and fail() under
  /// fail_mutex_ — std::promise's internal shared-state synchronization
  /// plus the first-settle-wins catch blocks arbitrate the race, so no
  /// GUARDED_BY contract can be stated (or needed) here.
  std::promise<std::vector<int>> labels_promise_;
  std::promise<std::vector<double>> scores_promise_;
  std::atomic<std::size_t> chunks_remaining_{0};
  std::atomic<bool> failed_{false};
  sb::Mutex fail_mutex_;  ///< serializes fail() so the first error wins
  /// Which promises gave their shared state away (set_value /
  /// set_exception) — prepare() reconstructs exactly those on reuse.
  /// Atomic (relaxed) because a failing batch and the final completing
  /// chunk of the same request may both mark consumption; the reuse read
  /// is ordered by the shared_ptr refcount release that precedes it.
  std::atomic<bool> labels_consumed_{false};
  std::atomic<bool> scores_consumed_{false};
};

/// Recycler of ServeRequest objects (see serve/freelist.hpp).
using RequestPool = Freelist<ServeRequest>;

/// Bounded MPMC queue of requests; close() stops intake and lets the
/// queued requests drain, for a clean shutdown.
class RequestQueue {
 public:
  RequestQueue(std::size_t capacity, OverflowPolicy policy);

  /// Enqueue. Returns false when the queue is full under kReject; blocks
  /// until room under kBlock. Throws std::runtime_error after close().
  bool push(std::shared_ptr<ServeRequest> request) EXCLUDES(mutex_);

  /// Dequeue, blocking until an item arrives or the queue is closed and
  /// drained (then nullptr).
  [[nodiscard]] std::shared_ptr<ServeRequest> pop() EXCLUDES(mutex_);

  /// Dequeue with a deadline; nullptr on timeout or when drained.
  [[nodiscard]] std::shared_ptr<ServeRequest> pop_until(
      std::chrono::steady_clock::time_point deadline) EXCLUDES(mutex_);

  /// Stop accepting pushes. Queued items still drain through pop().
  void close() EXCLUDES(mutex_);

  [[nodiscard]] bool closed() const EXCLUDES(mutex_);
  [[nodiscard]] bool drained() const EXCLUDES(mutex_);  ///< closed and empty
  [[nodiscard]] bool empty() const EXCLUDES(mutex_);
  [[nodiscard]] std::size_t size() const EXCLUDES(mutex_);
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t rejected() const EXCLUDES(mutex_);  ///< kReject refusals

 private:
  const std::size_t capacity_;
  const OverflowPolicy policy_;

  mutable sb::Mutex mutex_;
  sb::CondVar not_empty_;
  sb::CondVar not_full_;
  std::deque<std::shared_ptr<ServeRequest>> items_ GUARDED_BY(mutex_);
  std::uint64_t rejected_ GUARDED_BY(mutex_) = 0;
  bool closed_ GUARDED_BY(mutex_) = false;
  /// Waiter counts gate the per-push/per-pop notifies: with nobody
  /// blocked (the dispatcher keeping up, no kBlock submitter stalled),
  /// the hot path skips the condition-variable call entirely instead of
  /// broadcasting into the void once per request.
  std::size_t pop_waiters_ GUARDED_BY(mutex_) = 0;
  std::size_t push_waiters_ GUARDED_BY(mutex_) = 0;
};

}  // namespace streambrain::serve
