// serve:: subsystem + AsyncPredictor: sharded async serving must be
// bit-identical to the serial reference at any shard count, resolve
// partial batches by deadline (no deferred-flush hang by construction),
// serve cache hits bit-identically, backpressure cleanly, survive
// destruction with requests in flight, and turn malformed requests into
// future errors instead of wedging the pipeline.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "api/async_predictor.hpp"
#include "core/model.hpp"
#include "core/serialization.hpp"
#include "data/higgs.hpp"
#include "encode/one_hot.hpp"
#include "serve/latency_histogram.hpp"
#include "serve/request_queue.hpp"
#include "serve/score_cache.hpp"
#include "serve/shard_pool.hpp"

namespace sc = streambrain::core;
namespace sv = streambrain::serve;
namespace st = streambrain::tensor;

using streambrain::AsyncPredictor;
using streambrain::AsyncPredictorOptions;
using streambrain::CloseReason;

namespace {

struct Serving {
  std::shared_ptr<sc::Model> model;
  st::MatrixF x_test;
  std::vector<int> reference_labels;
  std::vector<double> reference_scores;
};

const Serving& serving() {
  static const Serving instance = [] {
    streambrain::data::SyntheticHiggsGenerator generator;
    const auto train = generator.generate(700);
    streambrain::data::HiggsGeneratorOptions opts;
    opts.seed = 555;
    streambrain::data::SyntheticHiggsGenerator test_generator(opts);
    const auto test = test_generator.generate(200);
    streambrain::encode::OneHotEncoder encoder(10);

    Serving s;
    s.model = std::make_shared<sc::Model>();
    s.model->input(28, 10)
        .hidden(1, 40, 0.4)
        .classifier(2)
        .set_option("epochs", 3)
        .compile("simd", 42);
    s.model->fit(encoder.fit_transform(train.features), train.labels);
    s.x_test = encoder.transform(test.features);
    s.reference_labels = s.model->predict(s.x_test);
    s.reference_scores = s.model->predict_scores(s.x_test);
    return s;
  }();
  return instance;
}

st::MatrixF rows_slice(const st::MatrixF& x, std::size_t begin,
                       std::size_t end) {
  st::MatrixF out(end - begin, x.cols());
  for (std::size_t r = begin; r < end; ++r) {
    std::copy_n(x.row(r), x.cols(), out.row(r - begin));
  }
  return out;
}

/// An estimator that blocks in predict until released — for driving the
/// queue into backpressure deterministically.
class SlowEstimator final : public streambrain::Estimator {
 public:
  explicit SlowEstimator(std::shared_ptr<streambrain::Estimator> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return "slow(" + inner_->name() + ")"; }
  void fit(const st::MatrixF& x, const std::vector<int>& labels) override {
    inner_->fit(x, labels);
  }
  std::vector<int> predict(const st::MatrixF& x) override {
    wait();
    return inner_->predict(x);
  }
  std::vector<double> predict_scores(const st::MatrixF& x) override {
    wait();
    return inner_->predict_scores(x);
  }
  void release() { gate_.store(true, std::memory_order_release); }

 private:
  void wait() const {
    while (!gate_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  std::shared_ptr<streambrain::Estimator> inner_;
  std::atomic<bool> gate_{false};
};

/// Batch stats are recorded after the batch's promises resolve (the
/// result must never wait on the accounting lock), so a stats() read
/// racing the last batch's bookkeeping can miss it. Poll until `pred`
/// holds; returns the first satisfying snapshot (or the last one tried).
template <typename Pred>
streambrain::AsyncPredictorStats settled_stats(const AsyncPredictor& server,
                                               Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    const auto stats = server.stats();
    if (pred(stats) || std::chrono::steady_clock::now() >= deadline) {
      return stats;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace

// --- serve primitives -------------------------------------------------------

TEST(RequestQueue, BoundedFifoWithCloseDrain) {
  sv::RequestQueue queue(2, sv::OverflowPolicy::kReject);
  auto a = std::make_shared<sv::ServeRequest>();
  auto b = std::make_shared<sv::ServeRequest>();
  auto c = std::make_shared<sv::ServeRequest>();
  EXPECT_TRUE(queue.push(a));
  EXPECT_TRUE(queue.push(b));
  EXPECT_FALSE(queue.push(c));  // full -> rejected, not blocked
  EXPECT_EQ(queue.rejected(), 1u);

  queue.close();
  EXPECT_THROW((void)queue.push(c), std::runtime_error);
  EXPECT_EQ(queue.pop(), a);  // closed queues still drain in order
  EXPECT_EQ(queue.pop(), b);
  EXPECT_TRUE(queue.drained());
  EXPECT_EQ(queue.pop(), nullptr);
}

TEST(ScoreCache, LruHitMissEvict) {
  sv::ScoreCache cache(2);
  const std::uint64_t gen = cache.generation();
  const float row_a[3] = {1.0f, 2.0f, 3.0f};
  const float row_b[3] = {4.0f, 5.0f, 6.0f};
  const float row_c[3] = {7.0f, 8.0f, 9.0f};
  double score = 0.0;

  EXPECT_FALSE(cache.lookup(row_a, 3, gen, score));
  cache.insert(row_a, 3, gen, 0.25);
  cache.insert(row_b, 3, gen, 0.75);
  EXPECT_TRUE(cache.lookup(row_a, 3, gen, score));  // promotes a to MRU
  EXPECT_EQ(score, 0.25);
  cache.insert(row_c, 3, gen, 0.5);  // evicts b (LRU), not a
  EXPECT_TRUE(cache.lookup(row_a, 3, gen, score));
  EXPECT_FALSE(cache.lookup(row_b, 3, gen, score));
  EXPECT_TRUE(cache.lookup(row_c, 3, gen, score));
  EXPECT_EQ(score, 0.5);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 2u);

  sv::ScoreCache disabled(0);
  disabled.insert(row_a, 3, gen, 0.25);
  EXPECT_FALSE(disabled.lookup(row_a, 3, gen, score));
}

TEST(LatencyHistogram, QuantilesAreUpperEdgesAndNeverBelowTheSample) {
  sv::LatencyHistogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.quantile(0.50), 0.0);  // empty -> 0, not garbage

  // 90 fast samples in the 1-2us bucket, 10 slow ones near 1ms: p50 must
  // report the fast bucket's upper edge, p99 the slow one's. Every
  // quantile is a bucket upper edge, so it can overstate by at most 2x
  // and never understate.
  for (int i = 0; i < 90; ++i) histogram.record(1.5e-6);
  for (int i = 0; i < 10; ++i) histogram.record(0.9e-3);
  EXPECT_EQ(histogram.count(), 100u);
  const double p50 = histogram.quantile(0.50);
  const double p99 = histogram.quantile(0.99);
  EXPECT_GE(p50, 1.5e-6);
  EXPECT_LE(p50, 4.0e-6);
  EXPECT_GE(p99, 0.9e-3);
  EXPECT_LE(p99, 2.0e-3);
  EXPECT_LE(p50, p99);

  // Degenerate inputs clamp instead of indexing out of range.
  histogram.record(0.0);
  histogram.record(-1.0);
  histogram.record(1e12);
  EXPECT_EQ(histogram.count(), 103u);
  EXPECT_GT(histogram.quantile(1.0), 0.0);
}

TEST(ShardPool, ReplicasPredictBitIdentically) {
  sv::ShardPool pool(serving().model, 3);
  ASSERT_EQ(pool.size(), 3u);
  for (std::size_t s = 1; s < pool.size(); ++s) {
    // acquire_shard: the lease pins the replica and its version for the
    // whole verification — the raw-reference footgun is gone.
    const sv::ShardPool::Lease lease = pool.acquire_shard(s);
    EXPECT_EQ(lease.shard(), s);
    EXPECT_EQ(lease.model().predict(serving().x_test),
              serving().reference_labels);
    EXPECT_EQ(lease.model().predict_scores(serving().x_test),
              serving().reference_scores);
  }
}

TEST(ShardPool, RefusesUncloneableMultiShard) {
  std::shared_ptr<streambrain::Estimator> baseline =
      streambrain::make_baseline_estimator("logistic");
  EXPECT_THROW(sv::ShardPool(baseline, 2), std::invalid_argument);
  sv::ShardPool single(baseline, 1);  // shards=1 needs no clone
  EXPECT_EQ(single.size(), 1u);
}

// --- AsyncPredictor ---------------------------------------------------------

TEST(AsyncPredictor, SingleShardMatchesSerialReference) {
  AsyncPredictor server(serving().model, {/*shards=*/1,
                                          /*max_batch_rows=*/32});
  EXPECT_EQ(server.predict(serving().x_test), serving().reference_labels);
  EXPECT_EQ(server.predict_scores(serving().x_test),
            serving().reference_scores);
  const auto stats = server.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.rows, 2 * serving().x_test.rows());
  EXPECT_GT(stats.batches, 0u);
  EXPECT_GE(stats.max_queue_wait_seconds, 0.0);
}

TEST(AsyncPredictor, ServesAnyEstimatorOnOneShard) {
  // The session is generic over the Estimator contract, not Model-bound:
  // a baseline cannot be cloned, but one shard serves it in place.
  streambrain::data::SyntheticHiggsGenerator generator;
  const auto train = generator.generate(400);
  std::shared_ptr<streambrain::Estimator> baseline =
      streambrain::make_baseline_estimator("logistic");
  baseline->fit(train.features, train.labels);
  const std::vector<int> reference = baseline->predict(train.features);
  const std::vector<double> reference_scores =
      baseline->predict_scores(train.features);

  AsyncPredictor server(baseline, {/*shards=*/1, /*max_batch_rows=*/50});
  EXPECT_EQ(server.predict(train.features), reference);
  EXPECT_EQ(server.predict_scores(train.features), reference_scores);
}

TEST(AsyncPredictor, ShardedConcurrentTrafficStaysBitIdentical) {
  AsyncPredictorOptions options;
  options.shards = 4;
  options.max_batch_rows = 16;
  options.max_batch_delay = std::chrono::microseconds(200);
  AsyncPredictor server(serving().model, options);
  ASSERT_EQ(server.shards(), 4u);

  const std::size_t n = serving().x_test.rows();
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRounds = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        const std::size_t width = 1 + (t * 11 + round * 7) % 29;
        const std::size_t begin = (t * 17 + round * 31) % (n - width);
        const st::MatrixF slice =
            rows_slice(serving().x_test, begin, begin + width);
        const std::vector<int> labels = server.predict(slice);
        const std::vector<double> scores = server.predict_scores(slice);
        for (std::size_t i = 0; i < width; ++i) {
          if (labels[i] != serving().reference_labels[begin + i] ||
              scores[i] != serving().reference_scores[begin + i]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(server.stats().requests, kThreads * kRounds * 2);
}

TEST(AsyncPredictor, PartialBatchClosesByDeadlineWhileTheShardIsBusy) {
  // 8 rows can never fill a 64-row batch, and the only shard is held by
  // a gated batch, so the idle close cannot fire either: the deadline
  // must close the batch. The first request is a scores request, so it
  // can never coalesce with the labels request behind it; it closes
  // (idle close, or a kind change) and takes the shard. The gate stays
  // shut until the second request's deadline has passed, and the
  // dispatcher checks the deadline before the idle close, so the close
  // reason does not depend on scheduling.
  auto gated = std::make_shared<SlowEstimator>(serving().model);
  AsyncPredictorOptions options;
  options.max_batch_rows = 64;
  options.max_batch_delay = std::chrono::milliseconds(2);
  AsyncPredictor server(gated, options);
  auto busy = server.submit_scores(rows_slice(serving().x_test, 8, 9));
  auto partial = server.submit(rows_slice(serving().x_test, 0, 8));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gated->release();
  ASSERT_EQ(partial.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_EQ(partial.get(),
            std::vector<int>(serving().reference_labels.begin(),
                             serving().reference_labels.begin() + 8));
  EXPECT_EQ(busy.get(),
            std::vector<double>(serving().reference_scores.begin() + 8,
                                serving().reference_scores.begin() + 9));
  const auto stats = settled_stats(server, [](const auto& s) {
    return s.closes_by(CloseReason::kDeadline) >= 1;
  });
  EXPECT_GE(stats.closes_by(CloseReason::kDeadline), 1u);
}

TEST(AsyncPredictor, ZeroRowRequestResolvesEmpty) {
  AsyncPredictor server(serving().model);
  const st::MatrixF empty(0, serving().x_test.cols());
  EXPECT_TRUE(server.predict(empty).empty());
  EXPECT_TRUE(server.predict_scores(empty).empty());
  const auto stats = server.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.rows, 0u);
}

TEST(AsyncPredictor, MismatchedColumnsFailTheFutureNotThePipeline) {
  AsyncPredictor server(serving().model, {/*shards=*/2});
  const st::MatrixF wrong(3, serving().x_test.cols() + 1, 0.5f);
  auto bad = server.submit(wrong);
  EXPECT_THROW((void)bad.get(), std::invalid_argument);
  // The pipeline survives and keeps serving correct answers.
  EXPECT_EQ(server.predict(serving().x_test), serving().reference_labels);
}

TEST(AsyncPredictor, CachedScoresAreBitIdenticalToUncached) {
  AsyncPredictorOptions cached_options;
  cached_options.score_cache_rows = 4096;
  AsyncPredictor cached(serving().model, cached_options);

  const std::vector<double> first =
      cached.predict_scores(serving().x_test);  // all misses
  const std::vector<double> second =
      cached.predict_scores(serving().x_test);  // all hits
  EXPECT_EQ(first, serving().reference_scores);
  EXPECT_EQ(second, serving().reference_scores);

  const auto stats = cached.stats();
  EXPECT_EQ(stats.cache_misses, serving().x_test.rows());
  EXPECT_EQ(stats.cache_hits, serving().x_test.rows());

  // A tiny cache that thrashes must still be bit-identical.
  AsyncPredictorOptions tiny_options;
  tiny_options.score_cache_rows = 3;
  AsyncPredictor tiny(serving().model, tiny_options);
  EXPECT_EQ(tiny.predict_scores(serving().x_test),
            serving().reference_scores);
}

TEST(AsyncPredictor, RejectPolicyShedsLoadInsteadOfBlocking) {
  auto trained = std::make_shared<SlowEstimator>(serving().model);
  AsyncPredictorOptions options;
  options.queue_capacity = 2;
  options.overflow_policy = sv::OverflowPolicy::kReject;
  options.max_batch_rows = 4;
  options.max_batch_delay = std::chrono::microseconds(1);

  std::vector<std::future<std::vector<int>>> accepted;
  std::size_t rejections = 0;
  {
    AsyncPredictor server(trained, options);
    for (int i = 0; i < 32; ++i) {
      try {
        accepted.push_back(server.submit(rows_slice(serving().x_test, 0, 4)));
      } catch (const std::runtime_error&) {
        ++rejections;
      }
    }
    EXPECT_GT(rejections, 0u);  // the gate held the queue full
    trained->release();
  }  // destructor drains every accepted request
  for (auto& future : accepted) {
    EXPECT_EQ(future.get(),
              std::vector<int>(serving().reference_labels.begin(),
                               serving().reference_labels.begin() + 4));
  }
  EXPECT_EQ(accepted.size() + rejections, 32u);
}

TEST(AsyncPredictor, DestructionWithInFlightRequestsCompletesAllFutures) {
  std::vector<std::future<std::vector<int>>> futures;
  {
    AsyncPredictorOptions options;
    options.shards = 2;
    options.max_batch_rows = 8;
    options.max_batch_delay = std::chrono::milliseconds(50);
    AsyncPredictor server(serving().model, options);
    for (std::size_t i = 0; i < 24; ++i) {
      futures.push_back(server.submit(rows_slice(serving().x_test, i, i + 5)));
    }
    // Destroy immediately: everything accepted must still resolve.
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get(),
              std::vector<int>(serving().reference_labels.begin() + i,
                               serving().reference_labels.begin() + i + 5));
  }
}

TEST(AsyncPredictor, LargeRequestSplitsAcrossShardsCorrectly) {
  // One request far larger than max_batch_rows fans out over shards and
  // reassembles in order.
  AsyncPredictorOptions options;
  options.shards = 4;
  options.max_batch_rows = 8;
  AsyncPredictor server(serving().model, options);
  EXPECT_EQ(server.predict(serving().x_test), serving().reference_labels);
  const std::size_t expected_batches = serving().x_test.rows() / 8;
  const auto stats = settled_stats(
      server, [&](const auto& s) { return s.batches >= expected_batches; });
  EXPECT_GE(stats.batches, expected_batches);
}

TEST(AsyncPredictor, StatsExposeLatencyPercentiles) {
  AsyncPredictorOptions options;
  options.shards = 2;
  options.max_batch_rows = 16;
  AsyncPredictor server(serving().model, options);
  EXPECT_EQ(server.stats().p50_latency_seconds, 0.0);  // nothing completed
  EXPECT_EQ(server.stats().p99_latency_seconds, 0.0);

  for (int pass = 0; pass < 3; ++pass) {
    EXPECT_EQ(server.predict(serving().x_test), serving().reference_labels);
  }
  const auto stats = server.stats();
  // Three completed requests: percentiles are live, ordered, and bounded
  // by sanity (a request cannot appear to take less than the histogram's
  // smallest bucket or more than a minute here).
  EXPECT_GT(stats.p50_latency_seconds, 0.0);
  EXPECT_GT(stats.p99_latency_seconds, 0.0);
  EXPECT_LE(stats.p50_latency_seconds, stats.p99_latency_seconds);
  EXPECT_LT(stats.p99_latency_seconds, 60.0);
  // Zero-row requests complete (and are measured) too.
  EXPECT_TRUE(server.predict(st::MatrixF(0, serving().x_test.cols())).empty());
  EXPECT_GT(server.stats().p50_latency_seconds, 0.0);
}

TEST(AsyncPredictor, RejectsBadConstruction) {
  EXPECT_THROW(AsyncPredictor(nullptr), std::invalid_argument);
  EXPECT_THROW(AsyncPredictor(serving().model, {/*shards=*/0}),
               std::invalid_argument);
  AsyncPredictorOptions zero_batch;
  zero_batch.max_batch_rows = 0;
  EXPECT_THROW(AsyncPredictor(serving().model, zero_batch),
               std::invalid_argument);
}

// --- PR 7: overhead fixes, adaptive batching, admission control -------------

TEST(AsyncPredictor, AdmissionControlShedsWithOverloadError) {
  // Gate the model shut and pour requests in: once accepted-but-
  // unfulfilled rows reach max_inflight_rows, every further submission
  // must fail fast through its future with the documented OverloadError
  // — and the accepted ones must still resolve bit-identically.
  auto trained = std::make_shared<SlowEstimator>(serving().model);
  AsyncPredictorOptions options;
  options.max_batch_rows = 4;
  options.max_batch_delay = std::chrono::microseconds(1);
  options.max_inflight_rows = 8;  // two 4-row requests
  AsyncPredictor server(trained, options);

  std::vector<std::future<std::vector<int>>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(server.submit(rows_slice(serving().x_test, 0, 4)));
  }
  trained->release();

  const std::vector<int> expected(serving().reference_labels.begin(),
                                  serving().reference_labels.begin() + 4);
  std::size_t served = 0;
  std::size_t shed = 0;
  for (auto& future : futures) {
    try {
      EXPECT_EQ(future.get(), expected);
      ++served;
    } catch (const sv::OverloadError&) {
      ++shed;
    }
  }
  // The model is gated, so no rows leave flight during submission: the
  // outcome is exact, not merely "some were shed".
  EXPECT_EQ(served, 2u);
  EXPECT_EQ(shed, 14u);

  const auto stats = server.stats();
  EXPECT_EQ(stats.shed_requests, shed);
  EXPECT_EQ(stats.shed_rows, shed * 4);
  EXPECT_EQ(stats.requests, served);  // shed submissions are not "accepted"

  // The admission gauge drains back to zero (the promise resolves just
  // before the gauge is decremented, so allow the settle to land).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.inflight_rows() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.inflight_rows(), 0u);
}

TEST(AsyncPredictor, AdaptiveCloseServesLightTrafficWithoutDeadlineWait) {
  // A lone 8-row request against a 1024-row batch and a 10-second
  // deadline: the adaptive closer must notice the empty queue and idle
  // shard and dispatch immediately instead of stranding the request.
  AsyncPredictorOptions options;
  options.max_batch_rows = 1024;
  options.max_batch_delay = std::chrono::seconds(10);
  AsyncPredictor server(serving().model, options);
  auto future = server.submit(rows_slice(serving().x_test, 0, 8));
  ASSERT_EQ(future.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  EXPECT_EQ(future.get(),
            std::vector<int>(serving().reference_labels.begin(),
                             serving().reference_labels.begin() + 8));
  const auto stats = settled_stats(
      server, [](const auto& s) {
        return s.closes_by(CloseReason::kAdaptive) >= 1;
      });
  EXPECT_GE(stats.closes_by(CloseReason::kAdaptive), 1u);
}

TEST(AsyncPredictor, PerStageTimingAndCloseReasonsAccountForEveryBatch) {
  AsyncPredictorOptions options;
  options.shards = 2;
  options.max_batch_rows = 16;
  AsyncPredictor server(serving().model, options);
  for (int pass = 0; pass < 3; ++pass) {
    EXPECT_EQ(server.predict(serving().x_test), serving().reference_labels);
  }
  const auto stats =
      settled_stats(server, [](const auto& s) { return s.batches >= 1; });
  ASSERT_GT(stats.batches, 0u);
  // Close reasons partition the batches: the summing accessor agrees
  // with a sum over every reason the enum declares.
  std::uint64_t by_reason = 0;
  for (std::size_t r = 0; r < static_cast<std::size_t>(CloseReason::kCount);
       ++r) {
    by_reason += stats.closes_by(static_cast<CloseReason>(r));
  }
  EXPECT_EQ(by_reason, stats.batches);
  EXPECT_EQ(stats.close_reasons_total(), stats.batches);
  // Stage sums: compute mirrors the model clock exactly; the overhead
  // stages are non-negative and bounded by sanity.
  EXPECT_EQ(stats.stage_compute_seconds, stats.model_seconds);
  EXPECT_GT(stats.stage_compute_seconds, 0.0);
  EXPECT_GE(stats.stage_close_seconds, 0.0);
  EXPECT_GE(stats.stage_dispatch_seconds, 0.0);
  EXPECT_GE(stats.stage_fulfill_seconds, 0.0);
  EXPECT_LT(stats.stage_close_seconds + stats.stage_dispatch_seconds +
                stats.stage_fulfill_seconds,
            60.0);
  // Mean helpers divide by batches (and requests), not by zero.
  EXPECT_GT(stats.mean_stage_compute_seconds(), 0.0);
  EXPECT_GE(stats.mean_stage_dispatch_seconds(), 0.0);
  EXPECT_GE(stats.mean_queue_wait_seconds(), 0.0);
  const streambrain::AsyncPredictorStats empty_stats;
  EXPECT_EQ(empty_stats.mean_stage_compute_seconds(), 0.0);
}

TEST(AsyncPredictor, WholeRequestZeroCopyMatchesSplitGatherPath) {
  // A request that fits one batch takes the zero-copy path (model reads
  // the request matrix in place); a split request takes gather/scatter.
  // Both must be bit-identical to the serial reference.
  AsyncPredictorOptions whole_options;
  whole_options.max_batch_rows = 1024;  // whole x_test in one batch
  AsyncPredictor whole(serving().model, whole_options);
  EXPECT_EQ(whole.predict(serving().x_test), serving().reference_labels);
  EXPECT_EQ(whole.predict_scores(serving().x_test),
            serving().reference_scores);
  EXPECT_EQ(settled_stats(whole, [](const auto& s) { return s.batches >= 2; })
                .batches,
            2u);  // one batch per request

  AsyncPredictorOptions split_options;
  split_options.max_batch_rows = 8;
  AsyncPredictor split(serving().model, split_options);
  EXPECT_EQ(split.predict(serving().x_test), serving().reference_labels);
  EXPECT_EQ(split.predict_scores(serving().x_test),
            serving().reference_scores);
  EXPECT_GT(settled_stats(split, [](const auto& s) { return s.batches > 2; })
                .batches,
            2u);
}

TEST(AsyncPredictor, RepeatedDestructionWithInFlightTrafficDrains) {
  // Stress the shutdown edge the pooling refactor is most likely to
  // break: futures submitted right up to destruction must all resolve,
  // every round, with shard tasks still in flight. (TSan runs this.)
  for (int round = 0; round < 10; ++round) {
    std::vector<std::future<std::vector<int>>> futures;
    {
      AsyncPredictorOptions options;
      options.shards = 2;
      options.max_batch_rows = 8;
      AsyncPredictor server(serving().model, options);
      for (std::size_t i = 0; i < 8; ++i) {
        futures.push_back(
            server.submit(rows_slice(serving().x_test, i, i + 5)));
      }
    }  // destructor: close intake, flush, drain shard tasks
    for (std::size_t i = 0; i < futures.size(); ++i) {
      EXPECT_EQ(futures[i].get(),
                std::vector<int>(serving().reference_labels.begin() + i,
                                 serving().reference_labels.begin() + i + 5));
    }
  }
}

TEST(RequestPool, RecyclesRequestsAcrossKindsWithFreshPromises) {
  sv::RequestPool pool(/*max_pooled=*/4);
  EXPECT_EQ(pool.reused(), 0u);

  {  // first use: labels
    auto request = pool.acquire(sv::RequestKind::kLabels);
    auto future = request->labels_future();
    request->x = st::MatrixF(2, 3, 0.0f);
    request->add_chunks(1);
    request->ensure_result_storage();
    request->labels = {7, 9};
    EXPECT_TRUE(request->complete_chunk());
    EXPECT_EQ(future.get(), (std::vector<int>{7, 9}));
  }  // recycled
  EXPECT_EQ(pool.pooled(), 1u);

  {  // second use, other kind: the scores promise must be fresh and the
     // consumed labels promise reconstructed for use number three
    auto request = pool.acquire(sv::RequestKind::kScores);
    auto future = request->scores_future();
    request->x = st::MatrixF(1, 3, 0.0f);
    request->add_chunks(1);
    request->ensure_result_storage();
    request->scores = {0.5};
    EXPECT_TRUE(request->complete_chunk());
    EXPECT_EQ(future.get(), (std::vector<double>{0.5}));
  }
  EXPECT_EQ(pool.reused(), 1u);

  {  // third use: back to labels — get_future on the reconstructed
     // promise must not throw future_already_retrieved
    auto request = pool.acquire(sv::RequestKind::kLabels);
    auto future = request->labels_future();
    request->x = st::MatrixF(1, 3, 0.0f);
    request->add_chunks(1);
    request->fail(std::make_exception_ptr(std::runtime_error("boom")));
    EXPECT_TRUE(request->complete_chunk());
    EXPECT_THROW((void)future.get(), std::runtime_error);
  }
  EXPECT_EQ(pool.reused(), 2u);
  EXPECT_EQ(pool.pooled(), 1u);  // same object cycling, not accumulation
}
