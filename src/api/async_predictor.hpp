#pragma once
// Sharded asynchronous serving session — the concurrent alternative to
// one model behind a mutex. Clients submit requests into a bounded
// queue and get std::futures back; a background dispatcher coalesces
// rows into micro-batches and closes each batch when it fills, when the
// oldest row has waited max_batch_delay (so a lone request is never
// stranded — the deferred-flush hang is impossible by construction), or
// as soon as the queue is empty and a shard sits idle (work-conserving:
// never hold rows for a coalescing partner that is not coming while
// capacity goes unused);
// closed batches run concurrently on a pool of read-only model replicas
// (serve::ShardPool) dispatched over parallel::ThreadPool.
//
//   auto model = std::make_shared<core::Model>();
//   model->load("model.sbrn");
//   AsyncPredictor server(model, {.shards = 4, .max_batch_rows = 256});
//   auto future = server.submit(rows);          // non-blocking
//   std::vector<int> labels = future.get();     // or server.predict(rows)
//
// Extras over a direct predict() call under a mutex:
//   - true concurrency: N shards run N batches in parallel, no global
//     inference mutex;
//   - backpressure: a bounded queue that blocks or rejects (throws) when
//     serving is saturated, instead of growing without bound;
//   - admission control: max_inflight_rows bounds accepted-but-
//     unfulfilled rows; past it, submissions fail fast through the
//     future with serve::OverloadError (load shedding, not queue wait);
//   - optional LRU score cache keyed by row digest (bit-identical hits);
//   - honest latency split: per-stage timing (close/dispatch/compute/
//     fulfill) plus p50/p99 end-to-end percentiles.
//
// The hot path is allocation-lean by design: request objects and batch
// jobs recycle through serve::Freelist, each job keeping its chunk
// vector and gather/scatter scratch warm, a whole-request batch feeds
// the model its input matrix zero-copy, and every wakeup (queue, shard
// pool, drain) is signaled only when someone is actually waiting.
//
// Results are bit-identical to the serial path regardless of shard
// count, batch splits, adaptive closes, or caching — every replica is a
// checkpoint round-trip clone and every model computes rows
// independently.

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "api/estimator.hpp"
#include "serve/latency_histogram.hpp"
#include "util/annotated_mutex.hpp"
#include "util/thread_annotations.hpp"
#include "serve/freelist.hpp"
#include "serve/request_queue.hpp"
#include "serve/score_cache.hpp"
#include "serve/shard_pool.hpp"
#include "tensor/matrix.hpp"

namespace streambrain {

struct AsyncPredictorOptions {
  /// Read-only model replicas serving batches concurrently. >1 requires
  /// a checkpointable core::Model (see serve::ShardPool).
  std::size_t shards = 1;
  /// Upper bound on rows per executed micro-batch.
  std::size_t max_batch_rows = 256;
  /// A batch closes when this much time has passed since its oldest row
  /// was enqueued, even if it is not full — bounds tail latency. It
  /// also closes early the moment the queue is empty and a shard is
  /// idle: under load the queue stays non-empty, so batches still fill
  /// to max_batch_rows; when traffic is light the deadline wait — pure
  /// added latency with idle capacity — is skipped.
  std::chrono::steady_clock::duration max_batch_delay =
      std::chrono::milliseconds(2);
  /// Bounded request-queue depth (requests, not rows).
  std::size_t queue_capacity = 1024;
  /// Full-queue behavior: block the submitter, or reject (submit throws).
  serve::OverflowPolicy overflow_policy = serve::OverflowPolicy::kBlock;
  /// Admission control: bound on accepted-but-unfulfilled rows across
  /// the whole pipeline (queued + batched + executing). 0 disables. A
  /// submission that would exceed it is shed: submit*() still returns a
  /// future, which fails immediately with serve::OverloadError — fast
  /// failure instead of unbounded queue wait. Distinct from
  /// queue_capacity/kReject, which guards request count at the queue
  /// and throws synchronously from submit().
  std::size_t max_inflight_rows = 0;
  /// LRU score-cache capacity in rows; 0 disables caching. Only
  /// submit_scores()/predict_scores() traffic is cached.
  std::size_t score_cache_rows = 0;
};

/// Why the dispatcher closed a micro-batch. kCount is the number of
/// reasons, not a reason.
enum class CloseReason : std::uint8_t {
  kFull,      ///< filled to max_batch_rows (or the next request differs
              ///< in kind or width)
  kDeadline,  ///< its oldest row waited max_batch_delay
  kAdaptive,  ///< idle close: the queue is empty and a shard is free
  kFlush,     ///< the drain/shutdown close: the queue is closed and empty
  kCount
};

/// Monotonic serving counters; snapshot via AsyncPredictor::stats().
struct AsyncPredictorStats {
  std::uint64_t requests = 0;   ///< submissions accepted
  std::uint64_t rejected = 0;   ///< submissions refused (kReject backpressure)
  std::uint64_t shed_requests = 0;  ///< shed by admission control
  std::uint64_t shed_rows = 0;      ///< rows in shed submissions
  std::uint64_t rows = 0;       ///< rows accepted
  std::uint64_t model_rows = 0;  ///< rows actually run on a shard (cache
                                 ///< hits never touch a model)
  std::uint64_t batches = 0;    ///< micro-batches executed on shards
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// Model generations published via swap_model() (0 = still serving
  /// the construction-time model).
  std::uint64_t model_swaps = 0;
  /// Cache lookups/inserts refused because their batch was pinned to a
  /// retired model generation (in-flight traffic straddling a swap).
  std::uint64_t cache_stale_drops = 0;
  /// Batches closed per CloseReason, indexed by the enum (sums to
  /// `batches`).
  std::array<std::uint64_t, static_cast<std::size_t>(CloseReason::kCount)>
      closes{};
  double model_seconds = 0.0;  ///< summed shard compute (can exceed wall time)
  /// Per-stage pipeline timing, summed over batches. A request's life is
  /// enqueue -> (batch) close -> dispatch (lease + pool hop) -> compute
  /// (the model call) -> fulfill (scatter + promise). compute is the
  /// only part that scales with the model; the other three are serving
  /// overhead — the thing this struct exists to keep honest.
  double stage_close_seconds = 0.0;    ///< oldest-row enqueue -> batch close
  double stage_dispatch_seconds = 0.0; ///< close -> shard execution start
  double stage_compute_seconds = 0.0;  ///< the model call itself
  double stage_fulfill_seconds = 0.0;  ///< compute end -> promises fulfilled
  /// Enqueue -> batch-execution-start wait, summed over requests (each
  /// request counted once, at its first chunk's execution).
  double total_queue_wait_seconds = 0.0;
  double max_queue_wait_seconds = 0.0;
  /// End-to-end (enqueue -> promise fulfilled) latency percentiles over
  /// completed requests, from a lock-free power-of-two-microsecond
  /// histogram: bucket-upper-edge estimates, within 2x of the true
  /// order statistic and never below it. 0 until a request completes.
  /// Shed requests are excluded (they never enter the pipeline).
  double p50_latency_seconds = 0.0;
  double p99_latency_seconds = 0.0;

  [[nodiscard]] double mean_queue_wait_seconds() const noexcept {
    return requests == 0 ? 0.0
                         : total_queue_wait_seconds /
                               static_cast<double>(requests);
  }
  [[nodiscard]] double mean_stage_close_seconds() const noexcept {
    return batches == 0 ? 0.0
                        : stage_close_seconds / static_cast<double>(batches);
  }
  [[nodiscard]] double mean_stage_dispatch_seconds() const noexcept {
    return batches == 0
               ? 0.0
               : stage_dispatch_seconds / static_cast<double>(batches);
  }
  [[nodiscard]] double mean_stage_compute_seconds() const noexcept {
    return batches == 0 ? 0.0
                        : stage_compute_seconds / static_cast<double>(batches);
  }
  [[nodiscard]] double mean_stage_fulfill_seconds() const noexcept {
    return batches == 0
               ? 0.0
               : stage_fulfill_seconds / static_cast<double>(batches);
  }
  /// Rows per second of actual shard compute — cache-served rows are
  /// excluded so the cache cannot inflate the model's apparent speed.
  [[nodiscard]] double model_throughput_rows_per_second() const noexcept {
    return model_seconds <= 0.0
               ? 0.0
               : static_cast<double>(model_rows) / model_seconds;
  }
  [[nodiscard]] std::uint64_t closes_by(CloseReason reason) const noexcept {
    return closes[static_cast<std::size_t>(reason)];
  }
  /// Sum of the per-reason close counters. Every CloseReason has a slot
  /// by construction, so the counters partition `batches`:
  /// close_reasons_total() == batches at any snapshot.
  [[nodiscard]] std::uint64_t close_reasons_total() const noexcept {
    std::uint64_t total = 0;
    for (const std::uint64_t count : closes) total += count;
    return total;
  }
};

class AsyncPredictor {
 public:
  /// The model must be compiled/loaded and is treated as frozen. With
  /// shards > 1 it is cloned via the checkpoint round-trip; the original
  /// serves shard 0.
  explicit AsyncPredictor(std::shared_ptr<Estimator> model,
                          AsyncPredictorOptions options = {});

  /// Drains: stops intake, closes the open batch (CloseReason::kFlush),
  /// completes every accepted request, then joins the dispatcher. No
  /// future is ever abandoned.
  ~AsyncPredictor();

  AsyncPredictor(const AsyncPredictor&) = delete;
  AsyncPredictor& operator=(const AsyncPredictor&) = delete;

  /// Queue a hard-label request; the future resolves once every row ran
  /// (or rethrows the model's error, e.g. a column-width mismatch, or
  /// serve::OverloadError when admission control shed the request).
  /// Throws std::runtime_error when the queue is full under kReject.
  [[nodiscard]] std::future<std::vector<int>> submit(tensor::MatrixF x);

  /// Queue a P(class == 1) scoring request (served from the score cache
  /// where enabled).
  [[nodiscard]] std::future<std::vector<double>> submit_scores(
      tensor::MatrixF x);

  /// Synchronous conveniences: submit + wait.
  [[nodiscard]] std::vector<int> predict(const tensor::MatrixF& x);
  [[nodiscard]] std::vector<double> predict_scores(const tensor::MatrixF& x);

  /// Zero-downtime hot swap: publish `model` as the new serving
  /// generation. Replica cloning (same contract as construction —
  /// checkpoint round-trip, preserving sparsified/quantized forms; with
  /// shards == 1 the model is adopted directly and treated as frozen)
  /// runs on the caller's thread while the old generation keeps serving;
  /// the swap itself is one pointer exchange in the shard pool. In-
  /// flight micro-batches finish on the generation their lease pinned —
  /// a batch can never mix model versions — new batches serve the new
  /// one, the score cache rolls its generation (epoch clear), and the
  /// retired replica set is destroyed when its last lease drops. No
  /// request is rejected, dropped, or blocked by a swap. Returns the new
  /// generation. Thread-safe; concurrent swaps serialize in the pool.
  std::uint64_t swap_model(std::shared_ptr<Estimator> model)
      EXCLUDES(stats_mutex_);

  /// Current serving generation (1 until the first swap_model()).
  [[nodiscard]] std::uint64_t generation() const {
    return shards_.generation();
  }

  [[nodiscard]] AsyncPredictorStats stats() const EXCLUDES(stats_mutex_);
  [[nodiscard]] const AsyncPredictorOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] std::size_t shards() const noexcept { return shards_.size(); }
  /// Accepted-but-unfulfilled rows right now (the admission-control
  /// gauge; tracked only when max_inflight_rows > 0).
  [[nodiscard]] std::size_t inflight_rows() const noexcept {
    return inflight_rows_.load(std::memory_order_acquire);
  }

 private:
  /// One request's contribution to a micro-batch: rows [begin, end).
  struct Chunk {
    std::shared_ptr<serve::ServeRequest> request;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  /// The dispatcher's open (not yet dispatched) micro-batch.
  struct OpenBatch {
    std::vector<Chunk> chunks;
    serve::RequestKind kind = serve::RequestKind::kLabels;
    std::size_t cols = 0;
    std::size_t rows = 0;
    std::chrono::steady_clock::time_point deadline{};
    std::chrono::steady_clock::time_point oldest_enqueue{};
  };

  /// A closed batch in flight to a shard. Pooled (with the capacity of
  /// its chunk vector and scratch) so the per-batch hot path allocates
  /// only the shared_ptr control block and the thread-pool closure.
  struct BatchJob {
    std::vector<Chunk> chunks;
    serve::RequestKind kind = serve::RequestKind::kLabels;
    std::size_t cols = 0;
    CloseReason reason = CloseReason::kFull;
    std::chrono::steady_clock::time_point oldest_enqueue{};
    std::chrono::steady_clock::time_point closed_at{};
    /// Single chunk spanning its entire request: the model reads the
    /// request's input matrix in place and its output vector is moved
    /// into the result — no gather, no scatter, no result pre-sizing.
    bool zero_copy = false;
    std::optional<serve::ShardPool::Lease> lease;
    std::size_t shard = 0;
    /// Gather/scatter scratch of the split path. A job belongs to one
    /// batch at a time — across a hot swap too, where shard s of the
    /// retired version and shard s of the new one run at once — so its
    /// scratch is never shared.
    std::vector<std::pair<serve::ServeRequest*, std::size_t>> rowrefs;
    std::vector<std::size_t> miss;
    tensor::MatrixF input;

    void prepare() noexcept {}  // dispatch() sets every field
    /// Drop the request references and the lease (an idle job must pin
    /// neither clients nor a retired model version); keep the capacity
    /// of every vector, which is the point of pooling the job.
    void recycle() noexcept {
      chunks.clear();
      lease.reset();
    }
  };

  /// Shared submit path: admission control, stats, zero-row fast path,
  /// backpressure.
  void enqueue(const std::shared_ptr<serve::ServeRequest>& request)
      EXCLUDES(stats_mutex_);

  /// Drop one chunk; when it was the request's last, record the
  /// end-to-end latency and release its admission-control rows. Every
  /// completion site routes through here so each request is counted
  /// exactly once.
  void finish_chunk(serve::ServeRequest& request);

  void dispatcher_loop() EXCLUDES(stats_mutex_, inflight_mutex_);
  /// Split `request` into chunks, closing batches as they fill.
  void absorb(const std::shared_ptr<serve::ServeRequest>& request,
              OpenBatch& batch);
  /// Lease a shard and hand the batch to the thread pool.
  void dispatch(OpenBatch& batch, CloseReason reason)
      EXCLUDES(stats_mutex_, inflight_mutex_);
  /// Runs on a pool worker: execute one batch on one shard, then release
  /// the lease and signal the drain waiter (if any).
  void run_batch(BatchJob& job) EXCLUDES(stats_mutex_, inflight_mutex_);

  AsyncPredictorOptions options_;
  serve::ShardPool shards_;
  serve::RequestQueue queue_;
  serve::ScoreCache cache_;
  serve::RequestPool request_pool_;
  /// Live jobs are bounded by the shard leases, far below the default
  /// cap.
  serve::Freelist<BatchJob> batch_pool_;

  mutable sb::Mutex stats_mutex_;
  AsyncPredictorStats stats_ GUARDED_BY(stats_mutex_);
  serve::LatencyHistogram latency_;  // lock-free (atomic buckets)

  std::atomic<std::size_t> inflight_rows_{0};

  /// Batches handed to the pool but not yet completed, plus the drain
  /// flag — both under inflight_mutex_; the completion path signals the
  /// condition variable only when the destructor is actually waiting.
  sb::Mutex inflight_mutex_;
  sb::CondVar inflight_cv_;
  std::size_t inflight_batches_ GUARDED_BY(inflight_mutex_) = 0;
  bool draining_ GUARDED_BY(inflight_mutex_) = false;

  std::thread dispatcher_;
};

}  // namespace streambrain
