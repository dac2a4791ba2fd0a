// Golden-regression digests for the sparse subsystem: (a) in-training
// prune/rewire (prune_density + prune_cadence options) trained at the
// scalar tier against committed digests under tests/golden/sparse_*.txt,
// and (b) Model::sparsify() round-trips — the sparse clone must predict
// BIT-identically (scalar tier) to the masked dense model it came from,
// survive a v3 checkpoint save/load bitwise, and match its own committed
// digest. Regenerate after an intentional behavior change with:
//   STREAMBRAIN_UPDATE_GOLDEN=1 ./test_sparse_golden

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "core/classifier.hpp"
#include "core/model.hpp"
#include "core/pruning.hpp"
#include "core/serialization.hpp"
#include "core/sgd_head.hpp"
#include "data/higgs.hpp"
#include "encode/one_hot.hpp"
#include "golden_util.hpp"
#include "parallel/engine_registry.hpp"
#include "tensor/kernel_set.hpp"
#include "tensor/weight_store.hpp"

namespace sc = streambrain::core;
namespace st = streambrain::tensor;
namespace sg = streambrain::testing;

namespace {

using sg::Digest;
using sg::ScopedDispatch;

struct FixtureData {
  st::MatrixF x_train;
  std::vector<int> y_train;
  st::MatrixF x_test;
  std::vector<int> y_test;
};

const FixtureData& fixture() {
  static const FixtureData data = [] {
    streambrain::data::SyntheticHiggsGenerator train_generator;
    const auto train = train_generator.generate(700);
    streambrain::data::HiggsGeneratorOptions opts;
    opts.seed = 4242;
    streambrain::data::SyntheticHiggsGenerator test_generator(opts);
    const auto test = test_generator.generate(200);
    streambrain::encode::OneHotEncoder encoder(10);
    FixtureData out;
    out.x_train = encoder.fit_transform(train.features);
    out.y_train = train.labels;
    out.x_test = encoder.transform(test.features);
    out.y_test = test.labels;
    return out;
  }();
  return data;
}

double binary_log_loss(const std::vector<double>& scores,
                       const std::vector<int>& labels) {
  double total = 0.0;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    const double p = std::min(std::max(scores[i], 1e-12), 1.0 - 1e-12);
    total -= labels[i] == 1 ? std::log(p) : std::log(1.0 - p);
  }
  return scores.empty() ? 0.0 : total / static_cast<double>(scores.size());
}

/// Small fixed-seed model trained with the in-training prune/rewire
/// cadence active (keep 25% of weights, re-selected every epoch).
sc::Model train_pruned_model(sc::HeadType head) {
  const FixtureData& data = fixture();
  sc::Model model;
  model.input(28, 10)
      .hidden(1, 30, 0.4)
      .classifier(2, head)
      .set_option("epochs", 3)
      .set_option("prune_density", 0.25)
      .set_option("prune_cadence", 1)
      .compile("simd", /*seed=*/7);
  model.fit(data.x_train, data.y_train);
  return model;
}

Digest digest_of(sc::Model& model) {
  const FixtureData& data = fixture();
  Digest digest;
  digest.labels = model.predict(data.x_test);
  digest.scores = model.predict_scores(data.x_test);
  digest.accuracy = model.evaluate(data.x_test, data.y_test);
  digest.log_loss = binary_log_loss(digest.scores, data.y_test);
  return digest;
}

void check_against_golden(const std::string& name, const Digest& actual) {
  if (sg::update_mode()) {
    sg::write_digest(name, actual);
    GTEST_SKIP() << "regenerated " << sg::golden_path(name);
  }
  Digest expected;
  ASSERT_TRUE(sg::read_digest(name, expected))
      << "missing golden digest " << sg::golden_path(name)
      << " — run with STREAMBRAIN_UPDATE_GOLDEN=1 to create it";
  EXPECT_EQ(actual.labels, expected.labels) << name << ": label drift";
  EXPECT_NEAR(actual.accuracy, expected.accuracy, 1e-9) << name;
  EXPECT_NEAR(actual.log_loss, expected.log_loss, 1e-7) << name;
  ASSERT_EQ(actual.scores.size(), expected.scores.size());
  for (std::size_t i = 0; i < actual.scores.size(); ++i) {
    EXPECT_NEAR(actual.scores[i], expected.scores[i], 1e-8)
        << name << ": score drift at row " << i;
  }
}

}  // namespace

TEST(SparseGolden, PrunedTrainingBcpnnHeadMatchesCommittedDigest) {
  const ScopedDispatch pin(st::DispatchLevel::kScalar);
  sc::Model model = train_pruned_model(sc::HeadType::kBcpnn);
  // The cadence actually pruned: hidden density at (or just above, from
  // the receptive-field overlap) the configured keep fraction.
  EXPECT_TRUE(model.network().mutable_layer(0).pruned());
  EXPECT_LE(model.network().layer(0).weight_density(), 0.25 + 1e-9);
  check_against_golden("sparse_pruned_training_bcpnn", digest_of(model));
}

TEST(SparseGolden, PrunedTrainingSgdHeadMatchesCommittedDigest) {
  const ScopedDispatch pin(st::DispatchLevel::kScalar);
  sc::Model model = train_pruned_model(sc::HeadType::kSgd);
  EXPECT_TRUE(model.network().sgd_head()->pruned());
  EXPECT_LE(model.network().sgd_head()->weight_density(), 0.25 + 1e-9);
  check_against_golden("sparse_pruned_training_sgd", digest_of(model));
}

TEST(SparseGolden, SparsifyIsBitIdenticalToMaskedDenseAndRoundTrips) {
  // The acceptance contract of the subsystem: at scalar dispatch, the
  // sparse clone of a pruned model predicts BITWISE like the masked
  // dense model, and the v3 sparse checkpoint reproduces it bitwise too.
  const ScopedDispatch pin(st::DispatchLevel::kScalar);
  const FixtureData& data = fixture();
  for (const sc::HeadType head : {sc::HeadType::kBcpnn, sc::HeadType::kSgd}) {
    sc::Model dense;
    dense.input(28, 10)
        .hidden(1, 30, 0.4)
        .classifier(2, head)
        .set_option("epochs", 3)
        .compile("simd", /*seed=*/7);
    dense.fit(data.x_train, data.y_train);
    sc::prune_model(dense, 0.1);
    const auto dense_labels = dense.predict(data.x_test);
    const auto dense_scores = dense.predict_scores(data.x_test);

    sc::Model sparse = dense.sparsify();
    ASSERT_TRUE(sparse.sparse());
    ASSERT_FALSE(dense.sparse()) << "sparsify must not mutate the original";
    EXPECT_LE(sparse.network().layer(0).inference_weights().csr().density(),
              0.1 + 1e-9);
    EXPECT_EQ(sparse.predict(data.x_test), dense_labels)
        << sc::head_name(head);
    const auto sparse_scores = sparse.predict_scores(data.x_test);
    ASSERT_EQ(sparse_scores.size(), dense_scores.size());
    for (std::size_t i = 0; i < dense_scores.size(); ++i) {
      ASSERT_EQ(sparse_scores[i], dense_scores[i])
          << sc::head_name(head) << " row " << i;
    }

    // v3 sparse checkpoint round-trip, through a stream (the ShardPool
    // replica-cloning path) — bitwise again.
    std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
    sc::save_model(buffer, sparse);
    sc::Model restored;
    sc::load_model(buffer, restored);
    ASSERT_TRUE(restored.sparse());
    EXPECT_EQ(restored.predict(data.x_test), dense_labels);
    const auto restored_scores = restored.predict_scores(data.x_test);
    for (std::size_t i = 0; i < dense_scores.size(); ++i) {
      ASSERT_EQ(restored_scores[i], dense_scores[i])
          << sc::head_name(head) << " row " << i << " after round-trip";
    }
  }
}

TEST(SparseGolden, SparsifyRoundTripMatchesCommittedDigest) {
  const ScopedDispatch pin(st::DispatchLevel::kScalar);
  const FixtureData& data = fixture();
  sc::Model dense;
  dense.input(28, 10)
      .hidden(1, 30, 0.4)
      .classifier(2, sc::HeadType::kBcpnn)
      .set_option("epochs", 3)
      .compile("simd", /*seed=*/7);
  dense.fit(data.x_train, data.y_train);
  sc::prune_model(dense, 0.1);
  sc::Model sparse = dense.sparsify();
  // Digest through a full save/load cycle so the committed file pins the
  // v3 sparse wire format, not just the in-memory conversion.
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  sc::save_model(buffer, sparse);
  sc::Model restored;
  sc::load_model(buffer, restored);
  check_against_golden("sparse_sparsify_roundtrip", digest_of(restored));
}

TEST(SparseGolden, SparseModelIsReadOnlyAndCompact) {
  const ScopedDispatch pin(st::DispatchLevel::kScalar);
  const FixtureData& data = fixture();
  sc::Model dense;
  dense.input(28, 10)
      .hidden(1, 30, 0.4)
      .classifier(2, sc::HeadType::kSgd)
      .set_option("epochs", 2)
      .compile("simd", /*seed=*/3);
  dense.fit(data.x_train, data.y_train);
  sc::prune_model(dense, 0.1);
  sc::Model sparse = dense.sparsify();

  EXPECT_THROW(sparse.fit(data.x_train, data.y_train), std::logic_error);
  EXPECT_THROW(sparse.network().mutable_layer(0).plasticity_step(),
               std::logic_error);
  EXPECT_THROW(sc::prune_model(sparse, 0.5), std::logic_error);
  EXPECT_NE(sparse.summary().find("sparse"), std::string::npos);

  // Compactness: the CSR weight payload is far below the dense matrix
  // (traces, which dominated the dense replica, are gone entirely).
  const auto& csr = sparse.network().layer(0).inference_weights().csr();
  const std::size_t dense_bytes = csr.rows() * csr.cols() * sizeof(float);
  EXPECT_LT(csr.memory_bytes(), dense_bytes / 2);
}

TEST(SparseGolden, DeepStackSparsifiesBitIdentically) {
  const ScopedDispatch pin(st::DispatchLevel::kScalar);
  const FixtureData& data = fixture();
  sc::Model dense;
  dense.input(28, 10)
      .hidden(2, 16, 0.4)
      .hidden(1, 16, 0.6)
      .classifier(2, sc::HeadType::kBcpnn)
      .set_option("epochs", 2)
      .compile("simd", /*seed=*/5);
  dense.fit(data.x_train, data.y_train);
  sc::prune_model(dense, 0.2);
  const auto dense_labels = dense.predict(data.x_test);
  const auto dense_scores = dense.predict_scores(data.x_test);

  sc::Model sparse = dense.sparsify();
  ASSERT_TRUE(sparse.sparse());
  EXPECT_EQ(sparse.predict(data.x_test), dense_labels);
  const auto sparse_scores = sparse.predict_scores(data.x_test);
  for (std::size_t i = 0; i < dense_scores.size(); ++i) {
    ASSERT_EQ(sparse_scores[i], dense_scores[i]) << "deep row " << i;
  }

  // And the deep sparse checkpoint round-trips bitwise.
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  sc::save_model(buffer, sparse);
  sc::Model restored;
  sc::load_model(buffer, restored);
  EXPECT_EQ(restored.predict(data.x_test), dense_labels);
}

TEST(SparseGolden, FrozenHeadRejectsAWrongWidthStore) {
  // sparsify() frees a head's weights and traces, so the width check of
  // adopt() cannot read the input width from them: a store one input
  // column too wide must still be rejected, by both head types.
  constexpr std::size_t kInputs = 24;
  const st::MatrixF wide(kInputs + 1, 2, 0.5f);
  const st::MatrixF fits(kInputs, 2, 0.5f);
  const std::vector<float> bias(2, 0.0f);

  sc::SgdHead sgd(kInputs, 2);
  sgd.sparsify();
  EXPECT_THROW(sgd.adopt(st::WeightStore::from_dense(wide), bias),
               std::invalid_argument);
  sgd.adopt(st::WeightStore::from_dense(fits), bias);
  EXPECT_EQ(sgd.inference_weights().cols(), kInputs);

  auto engine =
      streambrain::parallel::EngineRegistry::instance().create("simd");
  sc::BcpnnClassifier bcpnn(kInputs, 6, 2, *engine, 0.05f);
  bcpnn.sparsify();
  EXPECT_THROW(bcpnn.adopt(st::WeightStore::from_dense(wide), bias),
               std::invalid_argument);
  bcpnn.adopt(st::WeightStore::from_dense(fits), bias);
  EXPECT_EQ(bcpnn.inference_weights().cols(), kInputs);
}
