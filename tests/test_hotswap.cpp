// Zero-downtime model rotation: ShardPool's RCU-style versioning (leases
// pin generations, retired versions die with their last lease), the
// generation-gated ScoreCache (a cached score can never cross model
// versions — the stale-serving regression test here fails on the
// pre-generation cache), and AsyncPredictor::swap_model under load
// (every future resolves, every request's scores are bit-identical to
// exactly one published version, destruction with a fresh swap pending
// drains cleanly).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "api/async_predictor.hpp"
#include "core/model.hpp"
#include "core/serialization.hpp"
#include "data/higgs.hpp"
#include "encode/one_hot.hpp"
#include "serve/score_cache.hpp"
#include "serve/shard_pool.hpp"

namespace sc = streambrain::core;
namespace sv = streambrain::serve;
namespace st = streambrain::tensor;

using streambrain::AsyncPredictor;
using streambrain::AsyncPredictorOptions;

namespace {

/// Two trained models over the same geometry whose scores differ — the
/// raw material for proving a swap actually changes what serves.
struct HotSwap {
  std::shared_ptr<sc::Model> model_a;
  std::shared_ptr<sc::Model> model_b;
  st::MatrixF x_test;
  std::vector<double> scores_a;
  std::vector<double> scores_b;
};

std::shared_ptr<sc::Model> train_model(std::uint64_t seed,
                                       const st::MatrixF& x_train,
                                       const std::vector<int>& labels) {
  auto model = std::make_shared<sc::Model>();
  model->input(28, 10)
      .hidden(1, 40, 0.4)
      .classifier(2)
      .set_option("epochs", 2)
      .compile("simd", seed);
  model->fit(x_train, labels);
  return model;
}

const HotSwap& fixture() {
  static const HotSwap instance = [] {
    streambrain::data::SyntheticHiggsGenerator generator;
    const auto train = generator.generate(600);
    streambrain::data::HiggsGeneratorOptions opts;
    opts.seed = 777;
    streambrain::data::SyntheticHiggsGenerator test_generator(opts);
    const auto test = test_generator.generate(200);
    streambrain::encode::OneHotEncoder encoder(10);

    HotSwap h;
    const st::MatrixF x_train = encoder.fit_transform(train.features);
    h.model_a = train_model(42, x_train, train.labels);
    h.model_b = train_model(4242, x_train, train.labels);
    h.x_test = encoder.transform(test.features);
    h.scores_a = h.model_a->predict_scores(h.x_test);
    h.scores_b = h.model_b->predict_scores(h.x_test);
    return h;
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

std::shared_ptr<sc::Model> clone_of(const sc::Model& model) {
  return std::make_shared<sc::Model>(sc::clone_model(model));
}

}  // namespace

// --- ShardPool versioning ---------------------------------------------------

TEST(HotSwapPool, PublishRotatesGenerationsAndRetiresOldVersions) {
  const HotSwap& h = fixture();
  sv::ShardPool pool(clone_of(*h.model_a), 2);
  EXPECT_EQ(pool.generation(), 1u);
  EXPECT_EQ(pool.live_versions(), 1u);

  // A lease taken before the publish pins generation 1 and model A.
  std::optional<sv::ShardPool::Lease> old_lease(pool.acquire());
  EXPECT_EQ(old_lease->generation(), 1u);

  EXPECT_EQ(pool.publish(clone_of(*h.model_b)), 2u);
  EXPECT_EQ(pool.generation(), 2u);
  // Old version still alive: the in-flight lease is its grace period.
  EXPECT_EQ(pool.live_versions(), 2u);

  // The pinned lease keeps serving the retired version's model...
  EXPECT_EQ(old_lease->model().predict_scores(h.x_test), h.scores_a);
  // ...while new leases get generation 2 / model B, concurrently.
  {
    const sv::ShardPool::Lease fresh = pool.acquire();
    EXPECT_EQ(fresh.generation(), 2u);
    EXPECT_EQ(fresh.model().predict_scores(h.x_test), h.scores_b);
  }

  // Dropping the last old lease destroys the retired version.
  old_lease.reset();
  EXPECT_EQ(pool.live_versions(), 1u);

  // All replicas of the current version are free again after the swap.
  EXPECT_EQ(pool.free_count(), pool.size());
}

TEST(HotSwapPool, AcquireShardLeasesTheSpecificReplica) {
  const HotSwap& h = fixture();
  sv::ShardPool pool(clone_of(*h.model_a), 3);
  for (std::size_t s = 0; s < pool.size(); ++s) {
    const sv::ShardPool::Lease lease = pool.acquire_shard(s);
    EXPECT_EQ(lease.shard(), s);
    EXPECT_EQ(lease.generation(), 1u);
  }
  EXPECT_THROW((void)pool.acquire_shard(pool.size()), std::out_of_range);
}

TEST(HotSwapPool, PublishRejectsANullPrimary) {
  const HotSwap& h = fixture();
  sv::ShardPool pool(clone_of(*h.model_a), 2);
  EXPECT_THROW(pool.publish(std::shared_ptr<streambrain::Estimator>()),
               std::invalid_argument);
  EXPECT_EQ(pool.generation(), 1u);  // failed publishes change nothing
}

TEST(HotSwapPool, SaturatedAcquireRollsOverToTheNewVersion) {
  const HotSwap& h = fixture();
  sv::ShardPool pool(clone_of(*h.model_a), 1);
  std::optional<sv::ShardPool::Lease> held(pool.acquire());

  // A waiter blocked on a fully-leased pool must be redirected to the
  // published version (whose replica is free) instead of sleeping until
  // the old lease returns.
  std::atomic<bool> acquired{false};
  std::uint64_t waiter_generation = 0;
  std::thread waiter([&] {
    const sv::ShardPool::Lease lease = pool.acquire();
    waiter_generation = lease.generation();
    acquired.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(acquired.load(std::memory_order_acquire));

  pool.publish(clone_of(*h.model_b));
  waiter.join();
  EXPECT_TRUE(acquired.load(std::memory_order_acquire));
  EXPECT_EQ(waiter_generation, 2u);
  held.reset();
  EXPECT_EQ(pool.live_versions(), 1u);
}

// --- ScoreCache generation gating -------------------------------------------

TEST(HotSwapCache, GenerationGateBlocksBothDirections) {
  sv::ScoreCache cache(8);
  const std::uint64_t gen1 = cache.generation();
  const float row[3] = {1.0f, 2.0f, 3.0f};
  double score = 0.0;

  cache.insert(row, 3, gen1, 0.25);
  ASSERT_TRUE(cache.lookup(row, 3, gen1, score));
  EXPECT_EQ(score, 0.25);

  // Publish: the epoch clear drops every entry...
  cache.set_generation(gen1 + 1);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  // ...a current-generation lookup misses rather than seeing old scores,
  EXPECT_FALSE(cache.lookup(row, 3, gen1 + 1, score));
  // ...a straggler batch pinned to the retired generation cannot read
  // the new generation's cache or poison it with old-model scores.
  cache.insert(row, 3, gen1 + 1, 0.75);
  EXPECT_FALSE(cache.lookup(row, 3, gen1, score));
  cache.insert(row, 3, gen1, 0.1);
  ASSERT_TRUE(cache.lookup(row, 3, gen1 + 1, score));
  EXPECT_EQ(score, 0.75);  // the stale insert was dropped

  const auto stats = cache.stats();
  EXPECT_EQ(stats.stale_drops, 2u);
  // Re-publishing the same generation is a no-op, not a clear.
  cache.set_generation(gen1 + 1);
  EXPECT_EQ(cache.size(), 1u);
}

// --- The stale-cache regression ---------------------------------------------

TEST(HotSwapServing, SwapInvalidatesCachedScores) {
  // THE regression this PR's cache fix exists for: with the cache keyed
  // by row bytes alone (no model identity), the lookups after swap_model
  // would hit generation-1 entries and serve model A's scores from a
  // server that now holds model B. This test fails on that cache.
  const HotSwap& h = fixture();
  AsyncPredictorOptions options;
  options.shards = 1;
  options.score_cache_rows = 1024;
  AsyncPredictor server(clone_of(*h.model_a), options);

  EXPECT_EQ(server.predict_scores(h.x_test), h.scores_a);
  EXPECT_EQ(server.predict_scores(h.x_test), h.scores_a);  // cache warm
  EXPECT_GT(server.stats().cache_hits, 0u);

  const std::uint64_t generation = server.swap_model(clone_of(*h.model_b));
  EXPECT_EQ(generation, 2u);
  EXPECT_EQ(server.generation(), 2u);
  EXPECT_EQ(server.stats().model_swaps, 1u);

  // Same rows, post-swap: model B's scores, never A's cached ones.
  EXPECT_EQ(server.predict_scores(h.x_test), h.scores_b);
  // And the new generation caches normally from here on.
  const std::uint64_t hits_before = server.stats().cache_hits;
  EXPECT_EQ(server.predict_scores(h.x_test), h.scores_b);
  EXPECT_GT(server.stats().cache_hits, hits_before);
}

// --- Swap under load ---------------------------------------------------------

TEST(HotSwapServing, SwapUnderLoadNeverMixesVersionsOrDropsRequests) {
  // Continuous submits race a publisher swapping A/B clones in a loop.
  // Every submission is sized to land in exactly one micro-batch
  // (rows == max_batch_rows), so each request must come back bit-
  // identical to ONE version's scores — a mixed vector would mean two
  // generations served one batch. No future may be dropped or rejected.
  const HotSwap& h = fixture();
  constexpr std::size_t kRows = 25;
  constexpr std::size_t kSubmitters = 2;
  constexpr std::size_t kRequestsPerThread = 60;
  constexpr std::size_t kSwaps = 12;

  AsyncPredictorOptions options;
  options.shards = 2;
  options.max_batch_rows = kRows;
  options.score_cache_rows = 512;
  AsyncPredictor server(clone_of(*h.model_a), options);

  const st::MatrixF slice = rows_slice(h.x_test, 0, kRows);
  const std::vector<double> slice_a(h.scores_a.begin(),
                                    h.scores_a.begin() + kRows);
  const std::vector<double> slice_b(h.scores_b.begin(),
                                    h.scores_b.begin() + kRows);
  ASSERT_NE(slice_a, slice_b);  // else purity would be unfalsifiable

  std::atomic<bool> done{false};
  std::thread publisher([&] {
    for (std::size_t i = 0; i < kSwaps; ++i) {
      server.swap_model(
          clone_of(i % 2 == 0 ? *h.model_b : *h.model_a));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> submitters;
  std::vector<std::vector<std::future<std::vector<double>>>> futures(
      kSubmitters);
  for (std::size_t t = 0; t < kSubmitters; ++t) {
    futures[t].reserve(kRequestsPerThread);
    submitters.emplace_back([&, t] {
      for (std::size_t i = 0; i < kRequestsPerThread; ++i) {
        futures[t].push_back(server.submit_scores(slice));
        if (i % 8 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  publisher.join();
  EXPECT_TRUE(done.load(std::memory_order_acquire));

  std::size_t served_a = 0;
  std::size_t served_b = 0;
  for (auto& lane : futures) {
    for (auto& future : lane) {
      const std::vector<double> scores = future.get();  // throws = dropped
      if (scores == slice_a) {
        ++served_a;
      } else if (scores == slice_b) {
        ++served_b;
      } else {
        ADD_FAILURE() << "scores match neither version wholesale — a "
                         "batch mixed model generations";
      }
    }
  }
  EXPECT_EQ(served_a + served_b, kSubmitters * kRequestsPerThread);

  const auto stats = server.stats();
  EXPECT_EQ(stats.requests, kSubmitters * kRequestsPerThread);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.shed_requests, 0u);
  EXPECT_EQ(stats.model_swaps, kSwaps);
  EXPECT_EQ(server.generation(), 1u + kSwaps);
}

TEST(HotSwapServing, DestructionWithPendingSwapDrainsCleanly) {
  const HotSwap& h = fixture();
  constexpr std::size_t kRows = 25;
  const st::MatrixF slice = rows_slice(fixture().x_test, 0, kRows);
  const std::vector<double> slice_a(h.scores_a.begin(),
                                    h.scores_a.begin() + kRows);
  const std::vector<double> slice_b(h.scores_b.begin(),
                                    h.scores_b.begin() + kRows);

  std::vector<std::future<std::vector<double>>> futures;
  {
    AsyncPredictorOptions options;
    options.shards = 2;
    options.max_batch_rows = kRows;
    AsyncPredictor server(clone_of(*h.model_a), options);
    for (int i = 0; i < 40; ++i) futures.push_back(server.submit_scores(slice));
    server.swap_model(clone_of(*h.model_b));
    for (int i = 0; i < 40; ++i) futures.push_back(server.submit_scores(slice));
    // Destructor runs here with both generations potentially in flight.
  }
  for (auto& future : futures) {
    const std::vector<double> scores = future.get();
    EXPECT_TRUE(scores == slice_a || scores == slice_b)
        << "drained batch mixed model generations";
  }
}
