#include "api/async_predictor.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "parallel/thread_pool.hpp"

namespace streambrain {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

AsyncPredictorOptions validated(AsyncPredictorOptions options) {
  if (options.shards == 0) {
    throw std::invalid_argument("AsyncPredictor: shards must be > 0");
  }
  if (options.max_batch_rows == 0) {
    throw std::invalid_argument("AsyncPredictor: max_batch_rows must be > 0");
  }
  if (options.queue_capacity == 0) {
    throw std::invalid_argument("AsyncPredictor: queue_capacity must be > 0");
  }
  return options;
}

}  // namespace

// --- AsyncPredictor ---------------------------------------------------------

AsyncPredictor::AsyncPredictor(std::shared_ptr<Estimator> model,
                               AsyncPredictorOptions options)
    : options_(validated(options)),
      shards_(std::move(model), options_.shards),
      queue_(options_.queue_capacity, options_.overflow_policy),
      cache_(options_.score_cache_rows),
      request_pool_(options_.queue_capacity + 64) {
  // Batches lease a shard before entering the pool, so `shards` tasks can
  // be in flight at once — make sure the pool can actually run them all.
  parallel::global_pool().grow(shards_.size());
  cache_.set_generation(shards_.generation());
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

AsyncPredictor::~AsyncPredictor() {
  queue_.close();
  if (dispatcher_.joinable()) dispatcher_.join();
  // The dispatcher exits only after every queued request was batched and
  // dispatched; wait for the shard tasks to finish fulfilling promises.
  // draining_ tells the completion path to start signaling — during
  // normal serving the per-batch wakeup is skipped entirely.
  const sb::MutexLock lock(inflight_mutex_);
  draining_ = true;
  while (inflight_batches_ != 0) inflight_cv_.wait(inflight_mutex_);
}

std::future<std::vector<int>> AsyncPredictor::submit(tensor::MatrixF x) {
  std::shared_ptr<serve::ServeRequest> request =
      request_pool_.acquire(serve::RequestKind::kLabels);
  request->x = std::move(x);
  std::future<std::vector<int>> future = request->labels_future();
  enqueue(request);
  return future;
}

std::future<std::vector<double>> AsyncPredictor::submit_scores(
    tensor::MatrixF x) {
  std::shared_ptr<serve::ServeRequest> request =
      request_pool_.acquire(serve::RequestKind::kScores);
  request->x = std::move(x);
  std::future<std::vector<double>> future = request->scores_future();
  enqueue(request);
  return future;
}

void AsyncPredictor::enqueue(
    const std::shared_ptr<serve::ServeRequest>& request) {
  const std::size_t rows = request->x.rows();
  request->enqueued_at = Clock::now();
  // Guard chunk: held through submission and (for accepted requests) the
  // dispatcher's splitting, so the promise cannot fire before every
  // chunk exists.
  request->add_chunks(1);

  if (rows == 0) {  // nothing to run — resolve immediately
    {
      const sb::MutexLock lock(stats_mutex_);
      stats_.requests += 1;
    }
    finish_chunk(*request);
    return;
  }

  // Admission control: shed into the fast-failure lane instead of
  // queueing work the pipeline is already saturated with. The future the
  // caller holds fails immediately with the documented OverloadError.
  if (options_.max_inflight_rows > 0) {
    const std::size_t prev =
        inflight_rows_.fetch_add(rows, std::memory_order_acq_rel);
    if (prev + rows > options_.max_inflight_rows) {
      inflight_rows_.fetch_sub(rows, std::memory_order_acq_rel);
      {
        const sb::MutexLock lock(stats_mutex_);
        stats_.shed_requests += 1;
        stats_.shed_rows += rows;
      }
      request->fail(std::make_exception_ptr(serve::OverloadError(
          "AsyncPredictor: overloaded — " + std::to_string(prev) +
          " rows in flight against max_inflight_rows = " +
          std::to_string(options_.max_inflight_rows) +
          "; request shed (retry with backoff or add capacity)")));
      (void)request->complete_chunk();
      return;
    }
  }

  if (!queue_.push(request)) {
    if (options_.max_inflight_rows > 0) {
      inflight_rows_.fetch_sub(rows, std::memory_order_acq_rel);
    }
    // Settle the promise so the pooled request recycles cleanly (the
    // caller's future dies with this throw, unobserved).
    const char* message =
        "AsyncPredictor: request queue is full (backpressure, "
        "OverflowPolicy::kReject)";
    request->fail(std::make_exception_ptr(std::runtime_error(message)));
    (void)request->complete_chunk();
    throw std::runtime_error(message);
  }
  const sb::MutexLock lock(stats_mutex_);
  stats_.requests += 1;
  stats_.rows += rows;
}

std::vector<int> AsyncPredictor::predict(const tensor::MatrixF& x) {
  return submit(x).get();
}

std::vector<double> AsyncPredictor::predict_scores(const tensor::MatrixF& x) {
  return submit_scores(x).get();
}

AsyncPredictorStats AsyncPredictor::stats() const {
  AsyncPredictorStats snapshot;
  {
    const sb::MutexLock lock(stats_mutex_);
    snapshot = stats_;
  }
  snapshot.rejected = queue_.rejected();
  const serve::ScoreCache::Stats cache_stats = cache_.stats();
  snapshot.cache_hits = cache_stats.hits;
  snapshot.cache_misses = cache_stats.misses;
  snapshot.cache_stale_drops = cache_stats.stale_drops;
  snapshot.p50_latency_seconds = latency_.quantile(0.50);
  snapshot.p99_latency_seconds = latency_.quantile(0.99);
  return snapshot;
}

std::uint64_t AsyncPredictor::swap_model(std::shared_ptr<Estimator> model) {
  const std::uint64_t generation = shards_.publish(std::move(model));
  // Publish-then-bump ordering: between the pool swap and this epoch
  // clear, new-generation batches see the old cache generation and
  // simply miss / drop their inserts (stale_drops) — never a wrong
  // score. Concurrent swaps can land their bumps out of order; the
  // cache's single-generation invariant holds either way, and the
  // transient extra misses cost latency, not correctness.
  cache_.set_generation(generation);
  const sb::MutexLock lock(stats_mutex_);
  stats_.model_swaps += 1;
  return generation;
}

void AsyncPredictor::dispatcher_loop() {
  OpenBatch batch;
  for (;;) {
    // With an open batch, wait only until its deadline; otherwise block
    // for the next request (close() ends the wait).
    std::shared_ptr<serve::ServeRequest> request =
        batch.chunks.empty() ? queue_.pop() : queue_.pop_until(batch.deadline);
    if (request != nullptr) {
      absorb(request, batch);
      finish_chunk(*request);  // drop the guard chunk
    }
    if (!batch.chunks.empty()) {
      if (queue_.drained()) {
        dispatch(batch, CloseReason::kFlush);
      } else if (Clock::now() >= batch.deadline) {
        dispatch(batch, CloseReason::kDeadline);
      } else if (queue_.empty() && shards_.free_count() > 0) {
        // Work-conserving close: nothing else to coalesce with and a
        // shard is idle — waiting out the deadline would buy no batching
        // and cost pure latency. Under load the queue is non-empty and
        // batches still fill to max_batch_rows, so depth drives size.
        dispatch(batch, CloseReason::kAdaptive);
      }
    }
    if (request == nullptr && batch.chunks.empty() && queue_.drained()) {
      return;
    }
  }
}

void AsyncPredictor::absorb(
    const std::shared_ptr<serve::ServeRequest>& request, OpenBatch& batch) {
  const std::size_t rows = request->x.rows();
  const std::size_t cols = request->x.cols();
  // A micro-batch is one model call: it must be homogeneous in request
  // kind and column width. (Counted as a full close: the batch cannot
  // grow further.)
  if (!batch.chunks.empty() &&
      (batch.kind != request->kind || batch.cols != cols)) {
    dispatch(batch, CloseReason::kFull);
  }
  std::size_t begin = 0;
  while (begin < rows) {
    if (batch.chunks.empty()) {
      batch.kind = request->kind;
      batch.cols = cols;
      batch.rows = 0;
      // The batch closes no later than when its oldest rows have waited
      // max_batch_delay.
      batch.deadline = request->enqueued_at + options_.max_batch_delay;
      batch.oldest_enqueue = request->enqueued_at;
    }
    const std::size_t take =
        std::min(rows - begin, options_.max_batch_rows - batch.rows);
    request->add_chunks(1);
    batch.chunks.push_back(Chunk{request, begin, begin + take});
    batch.rows += take;
    begin += take;
    if (batch.rows >= options_.max_batch_rows) {
      dispatch(batch, CloseReason::kFull);
    }
  }
}

void AsyncPredictor::dispatch(OpenBatch& batch, CloseReason reason) {
  std::shared_ptr<BatchJob> job = batch_pool_.acquire();
  job->chunks.swap(batch.chunks);  // both vectors keep their capacity
  job->kind = batch.kind;
  job->cols = batch.cols;
  job->reason = reason;
  job->oldest_enqueue = batch.oldest_enqueue;
  job->closed_at = Clock::now();
  batch.rows = 0;

  // Whole-request batch: the model can read the request's own matrix and
  // its output vector can be moved straight into the result — no gather
  // copy, no scatter, no result pre-sizing. (The cached-scores path
  // still needs per-row bookkeeping, so it keeps the scatter layout.)
  const Chunk& first = job->chunks.front();
  job->zero_copy =
      job->chunks.size() == 1 && first.begin == 0 &&
      first.end == first.request->x.rows() &&
      !(job->kind == serve::RequestKind::kScores && cache_.enabled());
  if (!job->zero_copy) {
    // Shard workers scatter into row ranges; size the result vectors on
    // this side of the pool hop so those writes are race-free. (For a
    // request split across batches the first dispatch allocates and
    // later ones see the size already matching.)
    for (const Chunk& chunk : job->chunks) {
      chunk.request->ensure_result_storage();
    }
  }

  {
    const sb::MutexLock lock(inflight_mutex_);
    ++inflight_batches_;
  }
  // Leasing here (not in the pool task) caps in-flight batches at the
  // shard count and backpressures the dispatcher when serving saturates.
  job->lease.emplace(shards_.acquire());
  job->shard = job->lease->shard();
  try {
    // Fire-and-forget: nobody waits on a per-batch future, so the
    // packaged_task/future machinery the old path allocated per batch is
    // gone with it.
    parallel::global_pool().post([this, job] { run_batch(*job); });
  } catch (...) {
    // Pool rejected the task (shutdown); serve the batch inline rather
    // than dropping it.
    run_batch(*job);
  }
}

void AsyncPredictor::run_batch(BatchJob& job) {
  const auto exec_start = Clock::now();
  Estimator& model = job.lease->model();
  // Captured before the lease resets below: every cache access in this
  // batch carries the generation the lease pinned, so a batch straddling
  // a hot swap can neither read the new model's scores nor poison its
  // cache.
  const std::uint64_t generation = job.lease->generation();
  const std::vector<Chunk>& chunks = job.chunks;

  double model_seconds = 0.0;
  std::size_t model_rows = 0;
  Clock::time_point model_end = exec_start;
  try {
    if (job.zero_copy) {
      serve::ServeRequest& request = *chunks.front().request;
      const auto model_start = Clock::now();
      if (job.kind == serve::RequestKind::kLabels) {
        request.labels = model.predict(request.x);
      } else {
        request.scores = model.predict_scores(request.x);
      }
      model_end = Clock::now();
      model_seconds = seconds_between(model_start, model_end);
      model_rows = request.x.rows();
    } else {
      // (request, target row) pairs, in batch order — the job's pooled
      // scratch, reused across batches.
      auto& rowrefs = job.rowrefs;
      rowrefs.clear();
      for (const Chunk& chunk : chunks) {
        for (std::size_t r = chunk.begin; r < chunk.end; ++r) {
          rowrefs.emplace_back(chunk.request.get(), r);
        }
      }
      tensor::MatrixF& input = job.input;
      if (job.kind == serve::RequestKind::kScores && cache_.enabled()) {
        // Serve cached rows directly; run the model only on the misses.
        auto& miss = job.miss;
        miss.clear();
        for (std::size_t i = 0; i < rowrefs.size(); ++i) {
          const auto& [request, row] = rowrefs[i];
          double cached = 0.0;
          if (cache_.lookup(request->x.row(row), job.cols, generation,
                            cached)) {
            request->scores[row] = cached;
          } else {
            miss.push_back(i);
          }
        }
        if (!miss.empty()) {
          input.resize_uninitialized(miss.size(), job.cols);
          for (std::size_t i = 0; i < miss.size(); ++i) {
            const auto& [request, row] = rowrefs[miss[i]];
            std::copy_n(request->x.row(row), job.cols, input.row(i));
          }
          const auto model_start = Clock::now();
          const std::vector<double> scores = model.predict_scores(input);
          model_end = Clock::now();
          model_seconds = seconds_between(model_start, model_end);
          model_rows = miss.size();
          for (std::size_t i = 0; i < miss.size(); ++i) {
            const auto& [request, row] = rowrefs[miss[i]];
            request->scores[row] = scores[i];
            cache_.insert(input.row(i), job.cols, generation, scores[i]);
          }
        }
      } else {
        input.resize_uninitialized(rowrefs.size(), job.cols);
        for (std::size_t i = 0; i < rowrefs.size(); ++i) {
          const auto& [request, row] = rowrefs[i];
          std::copy_n(request->x.row(row), job.cols, input.row(i));
        }
        const auto model_start = Clock::now();
        if (job.kind == serve::RequestKind::kLabels) {
          const std::vector<int> labels = model.predict(input);
          model_end = Clock::now();
          for (std::size_t i = 0; i < rowrefs.size(); ++i) {
            const auto& [request, row] = rowrefs[i];
            request->labels[row] = labels[i];
          }
        } else {
          const std::vector<double> scores = model.predict_scores(input);
          model_end = Clock::now();
          for (std::size_t i = 0; i < rowrefs.size(); ++i) {
            const auto& [request, row] = rowrefs[i];
            request->scores[row] = scores[i];
          }
        }
        model_seconds = seconds_between(model_start, model_end);
        model_rows = rowrefs.size();
      }
    }
  } catch (...) {
    // Fail every request touched by this batch (fail() is idempotent, so
    // multi-chunk requests are fine); chunk accounting still completes.
    model_end = Clock::now();
    const std::exception_ptr error = std::current_exception();
    for (const Chunk& chunk : chunks) chunk.request->fail(error);
  }
  // Fulfill: settle every chunk (the final one per request fires its
  // promise and records end-to-end latency).
  for (const Chunk& chunk : chunks) finish_chunk(*chunk.request);
  const auto done = Clock::now();

  // Free the shard before any signaling — the next batch can start
  // while this one finishes its accounting.
  job.lease.reset();

  {
    // One stats acquisition per batch: counters, per-stage pipeline
    // timing, and queue-wait accounting (each request once, at its
    // first chunk).
    const sb::MutexLock lock(stats_mutex_);
    stats_.batches += 1;
    stats_.model_seconds += model_seconds;
    stats_.model_rows += model_rows;
    stats_.stage_close_seconds +=
        seconds_between(job.oldest_enqueue, job.closed_at);
    stats_.stage_dispatch_seconds += seconds_between(job.closed_at, exec_start);
    stats_.stage_compute_seconds += model_seconds;
    stats_.stage_fulfill_seconds += seconds_between(model_end, done);
    stats_.closes[static_cast<std::size_t>(job.reason)] += 1;
    for (const Chunk& chunk : chunks) {
      if (chunk.begin != 0) continue;
      const double wait =
          seconds_between(chunk.request->enqueued_at, exec_start);
      stats_.total_queue_wait_seconds += wait;
      stats_.max_queue_wait_seconds =
          std::max(stats_.max_queue_wait_seconds, wait);
    }
  }

  {
    // Targeted completion signal: only the destructor ever waits here,
    // and only after setting draining_ — steady-state serving skips the
    // notify entirely. Signaling under the lock is required: the waiter
    // may destroy the condition variable the instant the count is zero.
    const sb::MutexLock lock(inflight_mutex_);
    --inflight_batches_;
    if (inflight_batches_ == 0 && draining_) inflight_cv_.notify_one();
  }
}

void AsyncPredictor::finish_chunk(serve::ServeRequest& request) {
  if (request.complete_chunk()) {
    latency_.record(seconds_between(request.enqueued_at, Clock::now()));
    if (options_.max_inflight_rows > 0) {
      inflight_rows_.fetch_sub(request.x.rows(), std::memory_order_acq_rel);
    }
  }
}

}  // namespace streambrain
