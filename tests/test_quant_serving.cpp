// Serving bit-equivalence for the quantized inference form: an
// AsyncPredictor serving QUANTIZED shard replicas must match the serial
// quantized model bitwise at the scalar dispatch tier — across shard
// counts (1 vs 4), for both the quant-dense and quant-sparse (prune →
// sparsify → quantize) forms, with the ScoreCache enabled, under
// concurrent submitters, and through the raw ShardPool path. This suite
// runs in the TSan CI job: the quantized path adds new read-only data
// structures (QuantBlockMatrix, QuantCsr) shared across dispatcher, pool
// workers, and shard replicas, and any hidden mutation of them is a race
// TSan can see.

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "api/async_predictor.hpp"
#include "core/model.hpp"
#include "core/pruning.hpp"
#include "data/higgs.hpp"
#include "encode/one_hot.hpp"
#include "golden_util.hpp"
#include "serve/shard_pool.hpp"
#include "tensor/kernel_set.hpp"

namespace sc = streambrain::core;
namespace sv = streambrain::serve;
namespace st = streambrain::tensor;

using streambrain::AsyncPredictor;
using streambrain::AsyncPredictorOptions;
using streambrain::testing::ScopedDispatch;

namespace {

struct QuantServing {
  std::shared_ptr<sc::Model> quant_dense;   // quantize() of the dense model
  std::shared_ptr<sc::Model> quant_sparse;  // prune -> sparsify -> quantize
  st::MatrixF x_test;
  // Serial quantized inference at the scalar tier — the bitwise reference
  // that no amount of sharding, batching, or caching may perturb.
  std::vector<int> dense_labels;
  std::vector<double> dense_scores;
  std::vector<int> sparse_labels;
  std::vector<double> sparse_scores;
};

/// One fixture per head type; everything (training, quantization, the
/// serial reference inference) runs pinned to the scalar tier so the
/// serving comparisons can be exact.
const QuantServing& fixture(sc::HeadType head) {
  static const QuantServing instances[2] = {
      [] {
        const ScopedDispatch pin(st::DispatchLevel::kScalar);
        return [] {
          streambrain::data::SyntheticHiggsGenerator generator;
          const auto train = generator.generate(600);
          streambrain::data::HiggsGeneratorOptions opts;
          opts.seed = 655;
          streambrain::data::SyntheticHiggsGenerator test_generator(opts);
          const auto test = test_generator.generate(160);
          streambrain::encode::OneHotEncoder encoder(10);

          QuantServing q;
          auto dense = std::make_shared<sc::Model>();
          dense->input(28, 10)
              .hidden(1, 32, 0.4)
              .classifier(2, sc::HeadType::kBcpnn)
              .set_option("epochs", 3)
              .compile("simd", 46);
          dense->fit(encoder.fit_transform(train.features), train.labels);
          q.quant_dense = std::make_shared<sc::Model>(dense->quantize());
          sc::prune_model(*dense, 0.1);
          q.quant_sparse =
              std::make_shared<sc::Model>(dense->sparsify().quantize());
          q.x_test = encoder.transform(test.features);
          q.dense_labels = q.quant_dense->predict(q.x_test);
          q.dense_scores = q.quant_dense->predict_scores(q.x_test);
          q.sparse_labels = q.quant_sparse->predict(q.x_test);
          q.sparse_scores = q.quant_sparse->predict_scores(q.x_test);
          return q;
        }();
      }(),
      [] {
        const ScopedDispatch pin(st::DispatchLevel::kScalar);
        return [] {
          streambrain::data::SyntheticHiggsGenerator generator;
          const auto train = generator.generate(600);
          streambrain::data::HiggsGeneratorOptions opts;
          opts.seed = 656;
          streambrain::data::SyntheticHiggsGenerator test_generator(opts);
          const auto test = test_generator.generate(160);
          streambrain::encode::OneHotEncoder encoder(10);

          QuantServing q;
          auto dense = std::make_shared<sc::Model>();
          dense->input(28, 10)
              .hidden(1, 32, 0.4)
              .classifier(2, sc::HeadType::kSgd)
              .set_option("epochs", 3)
              .compile("simd", 47);
          dense->fit(encoder.fit_transform(train.features), train.labels);
          q.quant_dense = std::make_shared<sc::Model>(dense->quantize());
          sc::prune_model(*dense, 0.1);
          q.quant_sparse =
              std::make_shared<sc::Model>(dense->sparsify().quantize());
          q.x_test = encoder.transform(test.features);
          q.dense_labels = q.quant_dense->predict(q.x_test);
          q.dense_scores = q.quant_dense->predict_scores(q.x_test);
          q.sparse_labels = q.quant_sparse->predict(q.x_test);
          q.sparse_scores = q.quant_sparse->predict_scores(q.x_test);
          return q;
        }();
      }()};
  return instances[head == sc::HeadType::kBcpnn ? 0 : 1];
}

void expect_bitwise(const std::vector<int>& labels,
                    const std::vector<double>& scores,
                    const std::vector<int>& ref_labels,
                    const std::vector<double>& ref_scores,
                    const char* where) {
  EXPECT_EQ(labels, ref_labels) << where;
  ASSERT_EQ(scores.size(), ref_scores.size()) << where;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    ASSERT_EQ(scores[i], ref_scores[i]) << where << " row " << i;
  }
}

}  // namespace

TEST(QuantServing, AsyncPredictorSingleShardMatchesSerialQuantBitwise) {
  const ScopedDispatch pin(st::DispatchLevel::kScalar);
  for (const sc::HeadType head : {sc::HeadType::kBcpnn, sc::HeadType::kSgd}) {
    const QuantServing& q = fixture(head);
    AsyncPredictorOptions options;
    options.shards = 1;
    options.max_batch_rows = 32;
    options.score_cache_rows = 64;
    AsyncPredictor server(q.quant_dense, options);
    expect_bitwise(server.predict(q.x_test), server.predict_scores(q.x_test),
                   q.dense_labels, q.dense_scores,
                   head == sc::HeadType::kBcpnn ? "bcpnn/shard1"
                                                : "sgd/shard1");
  }
}

TEST(QuantServing, AsyncPredictorFourShardsServeQuantSparseBitwise) {
  // Four quantized-sparse replicas (cloned through the v4 checkpoint
  // round-trip) serving concurrent traffic: every result must still be
  // bitwise the serial quantized reference.
  const ScopedDispatch pin(st::DispatchLevel::kScalar);
  for (const sc::HeadType head : {sc::HeadType::kBcpnn, sc::HeadType::kSgd}) {
    const QuantServing& q = fixture(head);
    AsyncPredictorOptions options;
    options.shards = 4;
    options.max_batch_rows = 16;  // force multi-batch splits
    AsyncPredictor server(q.quant_sparse, options);

    constexpr int kThreads = 4;
    std::vector<std::thread> workers;
    std::vector<std::vector<int>> labels(kThreads);
    std::vector<std::vector<double>> scores(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        labels[t] = server.predict(q.x_test);
        scores[t] = server.predict_scores(q.x_test);
      });
    }
    for (auto& worker : workers) worker.join();
    for (int t = 0; t < kThreads; ++t) {
      expect_bitwise(labels[t], scores[t], q.sparse_labels, q.sparse_scores,
                     "shard4 worker");
    }
  }
}

TEST(QuantServing, ScoreCacheHitsStayBitIdenticalOnQuantReplicas) {
  const ScopedDispatch pin(st::DispatchLevel::kScalar);
  const QuantServing& q = fixture(sc::HeadType::kSgd);
  AsyncPredictorOptions options;
  options.shards = 2;
  options.score_cache_rows = 4096;  // large enough to hold the test set
  AsyncPredictor server(q.quant_sparse, options);

  // First pass populates the cache, second pass must serve hits that are
  // bitwise what the quantized model produced.
  expect_bitwise(server.predict(q.x_test), server.predict_scores(q.x_test),
                 q.sparse_labels, q.sparse_scores, "cache cold");
  expect_bitwise(server.predict(q.x_test), server.predict_scores(q.x_test),
                 q.sparse_labels, q.sparse_scores, "cache warm");
  const auto stats = server.stats();
  EXPECT_GT(stats.cache_hits, 0u);
}

TEST(QuantServing, ShardPoolReplicasPreserveQuantizedForm) {
  const ScopedDispatch pin(st::DispatchLevel::kScalar);
  const QuantServing& q = fixture(sc::HeadType::kSgd);
  sv::ShardPool pool(q.quant_sparse, 3);
  ASSERT_EQ(pool.size(), 3u);
  for (std::size_t shard = 0; shard < pool.size(); ++shard) {
    const sv::ShardPool::Lease lease = pool.acquire_shard(shard);
    auto* replica = dynamic_cast<sc::Model*>(&lease.model());
    ASSERT_NE(replica, nullptr);
    EXPECT_TRUE(replica->quantized())
        << "replica " << shard << " lost the quantized form in cloning";
    EXPECT_TRUE(replica->sparse())
        << "replica " << shard << " lost the sparse form in cloning";
    expect_bitwise(replica->predict(q.x_test),
                   replica->predict_scores(q.x_test), q.sparse_labels,
                   q.sparse_scores, "pool replica");
  }
}

TEST(QuantServing, QuantizedModelRejectsTrainingThroughServingStack) {
  // The read-only contract holds behind the serving facade too: the
  // underlying estimator refuses fit() while predictions keep flowing.
  const ScopedDispatch pin(st::DispatchLevel::kScalar);
  const QuantServing& q = fixture(sc::HeadType::kBcpnn);
  EXPECT_THROW(q.quant_dense->fit(q.x_test, q.dense_labels),
               std::logic_error);
  expect_bitwise(q.quant_dense->predict(q.x_test),
                 q.quant_dense->predict_scores(q.x_test), q.dense_labels,
                 q.dense_scores, "post-throw");
}
