// Serving bit-equivalence for the sparse inference form: an
// AsyncPredictor serving SPARSIFIED shard replicas must match the masked
// dense model bitwise at the scalar dispatch tier — across shard counts
// (1 vs 4), with the ScoreCache enabled, under concurrent submitters,
// and through the raw ShardPool path. This suite runs in the TSan CI
// job: the sparse path adds a new read-only data structure (CsrMatrix)
// shared across dispatcher, pool workers, and shard replicas, and any
// hidden mutation of it is a race TSan can see.

#include <gtest/gtest.h>

#include <future>
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

struct SparseServing {
  std::shared_ptr<sc::Model> dense;   // pruned, still dense (the reference)
  std::shared_ptr<sc::Model> sparse;  // sparsify() of `dense`
  st::MatrixF x_test;
  std::vector<int> reference_labels;    // dense model, serial, scalar tier
  std::vector<double> reference_scores;
};

/// One fixture per head type; everything (training, reference inference)
/// runs pinned to the scalar tier so comparisons can be exact.
const SparseServing& fixture(sc::HeadType head) {
  static const SparseServing instances[2] = {
      [] {
        const ScopedDispatch pin(st::DispatchLevel::kScalar);
        return [] {
          streambrain::data::SyntheticHiggsGenerator generator;
          const auto train = generator.generate(600);
          streambrain::data::HiggsGeneratorOptions opts;
          opts.seed = 555;
          streambrain::data::SyntheticHiggsGenerator test_generator(opts);
          const auto test = test_generator.generate(160);
          streambrain::encode::OneHotEncoder encoder(10);

          SparseServing s;
          s.dense = std::make_shared<sc::Model>();
          s.dense->input(28, 10)
              .hidden(1, 32, 0.4)
              .classifier(2, sc::HeadType::kBcpnn)
              .set_option("epochs", 3)
              .compile("simd", 42);
          s.dense->fit(encoder.fit_transform(train.features), train.labels);
          sc::prune_model(*s.dense, 0.1);
          s.sparse = std::make_shared<sc::Model>(s.dense->sparsify());
          s.x_test = encoder.transform(test.features);
          s.reference_labels = s.dense->predict(s.x_test);
          s.reference_scores = s.dense->predict_scores(s.x_test);
          return s;
        }();
      }(),
      [] {
        const ScopedDispatch pin(st::DispatchLevel::kScalar);
        return [] {
          streambrain::data::SyntheticHiggsGenerator generator;
          const auto train = generator.generate(600);
          streambrain::data::HiggsGeneratorOptions opts;
          opts.seed = 556;
          streambrain::data::SyntheticHiggsGenerator test_generator(opts);
          const auto test = test_generator.generate(160);
          streambrain::encode::OneHotEncoder encoder(10);

          SparseServing s;
          s.dense = std::make_shared<sc::Model>();
          s.dense->input(28, 10)
              .hidden(1, 32, 0.4)
              .classifier(2, sc::HeadType::kSgd)
              .set_option("epochs", 3)
              .compile("simd", 43);
          s.dense->fit(encoder.fit_transform(train.features), train.labels);
          sc::prune_model(*s.dense, 0.1);
          s.sparse = std::make_shared<sc::Model>(s.dense->sparsify());
          s.x_test = encoder.transform(test.features);
          s.reference_labels = s.dense->predict(s.x_test);
          s.reference_scores = s.dense->predict_scores(s.x_test);
          return s;
        }();
      }()};
  return instances[head == sc::HeadType::kBcpnn ? 0 : 1];
}

void expect_bitwise(const std::vector<int>& labels,
                    const std::vector<double>& scores,
                    const SparseServing& s, const char* where) {
  EXPECT_EQ(labels, s.reference_labels) << where;
  ASSERT_EQ(scores.size(), s.reference_scores.size()) << where;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    ASSERT_EQ(scores[i], s.reference_scores[i]) << where << " row " << i;
  }
}

}  // namespace

TEST(SparseServing, AsyncPredictorSingleShardMatchesMaskedDenseBitwise) {
  const ScopedDispatch pin(st::DispatchLevel::kScalar);
  for (const sc::HeadType head : {sc::HeadType::kBcpnn, sc::HeadType::kSgd}) {
    const SparseServing& s = fixture(head);
    AsyncPredictorOptions options;
    options.shards = 1;
    options.max_batch_rows = 32;
    options.score_cache_rows = 64;
    AsyncPredictor server(s.sparse, options);
    expect_bitwise(server.predict(s.x_test),
                   server.predict_scores(s.x_test), s,
                   head == sc::HeadType::kBcpnn ? "bcpnn/shard1"
                                                : "sgd/shard1");
  }
}

TEST(SparseServing, AsyncPredictorFourShardsMatchesMaskedDenseBitwise) {
  // Four sparsified replicas (cloned through the v3 sparse checkpoint
  // round-trip) serving concurrent traffic: every result must still be
  // bitwise the serial masked-dense reference.
  const ScopedDispatch pin(st::DispatchLevel::kScalar);
  for (const sc::HeadType head : {sc::HeadType::kBcpnn, sc::HeadType::kSgd}) {
    const SparseServing& s = fixture(head);
    AsyncPredictorOptions options;
    options.shards = 4;
    options.max_batch_rows = 16;  // force multi-batch splits
    AsyncPredictor server(s.sparse, options);

    constexpr int kThreads = 4;
    std::vector<std::thread> workers;
    std::vector<std::vector<int>> labels(kThreads);
    std::vector<std::vector<double>> scores(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        labels[t] = server.predict(s.x_test);
        scores[t] = server.predict_scores(s.x_test);
      });
    }
    for (auto& worker : workers) worker.join();
    for (int t = 0; t < kThreads; ++t) {
      expect_bitwise(labels[t], scores[t], s, "shard4 worker");
    }
  }
}

TEST(SparseServing, ScoreCacheHitsStayBitIdenticalOnSparseReplicas) {
  const ScopedDispatch pin(st::DispatchLevel::kScalar);
  const SparseServing& s = fixture(sc::HeadType::kSgd);
  AsyncPredictorOptions options;
  options.shards = 2;
  options.score_cache_rows = 4096;  // large enough to hold the test set
  AsyncPredictor server(s.sparse, options);

  // First pass populates the cache, second pass must serve hits that are
  // bitwise what the sparse model produced (== the dense reference).
  expect_bitwise(server.predict(s.x_test), server.predict_scores(s.x_test),
                 s, "cache cold");
  expect_bitwise(server.predict(s.x_test), server.predict_scores(s.x_test),
                 s, "cache warm");
  const auto stats = server.stats();
  EXPECT_GT(stats.cache_hits, 0u);
}

TEST(SparseServing, ShardPoolReplicasOfSparseModelAreSparseAndBitwise) {
  const ScopedDispatch pin(st::DispatchLevel::kScalar);
  const SparseServing& s = fixture(sc::HeadType::kSgd);
  sv::ShardPool pool(s.sparse, 3);
  ASSERT_EQ(pool.size(), 3u);
  for (std::size_t shard = 0; shard < pool.size(); ++shard) {
    const sv::ShardPool::Lease lease = pool.acquire_shard(shard);
    auto* replica = dynamic_cast<sc::Model*>(&lease.model());
    ASSERT_NE(replica, nullptr);
    EXPECT_TRUE(replica->sparse()) << "replica " << shard
                                   << " lost the sparse form in cloning";
    expect_bitwise(replica->predict(s.x_test),
                   replica->predict_scores(s.x_test), s, "pool replica");
  }
}

TEST(SparseServing, SparseModelRejectsTrainingThroughServingStack) {
  // The read-only contract holds behind the serving facade too: the
  // underlying estimator refuses fit() while predictions keep flowing.
  const ScopedDispatch pin(st::DispatchLevel::kScalar);
  const SparseServing& s = fixture(sc::HeadType::kBcpnn);
  EXPECT_THROW(s.sparse->fit(s.x_test, s.reference_labels),
               std::logic_error);
  expect_bitwise(s.sparse->predict(s.x_test),
                 s.sparse->predict_scores(s.x_test), s, "post-throw");
}
