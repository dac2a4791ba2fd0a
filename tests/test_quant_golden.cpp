// Golden-regression digests for the quantized subsystem:
// Model::quantize() round-trips against a committed digest under
// tests/golden/quant_*.txt, quantized accuracy within a fixed epsilon
// of the fp32 model it came from, the v4 quantized checkpoint
// reproducing predictions bitwise, and the full composition
// prune -> sparsify -> quantize. The quantized SUPPORT sums are
// bit-identical across dispatch tiers (asserted here on the trained
// artifact); full predictions still pass through the tier-dependent
// fp32 softmax, so digests are pinned to the scalar tier like the
// sparse suite's. Regenerate after an intentional behavior change with:
//   STREAMBRAIN_UPDATE_GOLDEN=1 ./test_quant_golden

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/pruning.hpp"
#include "core/serialization.hpp"
#include "data/higgs.hpp"
#include "encode/one_hot.hpp"
#include "golden_util.hpp"
#include "tensor/kernel_set.hpp"

namespace sc = streambrain::core;
namespace st = streambrain::tensor;
namespace sg = streambrain::testing;

namespace {

using sg::Digest;
using sg::ScopedDispatch;

/// Quantized accuracy must stay within this of the fp32 model on the
/// 200-row fixture: int8 with per-block scales perturbs scores by well
/// under one quantization step per support sum, which at most flips
/// rows already sitting on the decision boundary.
constexpr double kAccuracyEpsilon = 0.05;

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

sc::Model trained_model(sc::HeadType head) {
  const FixtureData& data = fixture();
  sc::Model model;
  model.input(28, 10)
      .hidden(1, 30, 0.4)
      .classifier(2, head)
      .set_option("epochs", 3)
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

TEST(QuantGolden, QuantizedAccuracyWithinEpsilonOfFp32BothHeads) {
  const FixtureData& data = fixture();
  for (const sc::HeadType head : {sc::HeadType::kBcpnn, sc::HeadType::kSgd}) {
    sc::Model dense = trained_model(head);
    const double fp32_accuracy = dense.evaluate(data.x_test, data.y_test);

    sc::Model quant = dense.quantize();
    ASSERT_TRUE(quant.quantized()) << sc::head_name(head);
    ASSERT_FALSE(dense.quantized()) << "quantize must not mutate the original";
    const double quant_accuracy = quant.evaluate(data.x_test, data.y_test);
    EXPECT_NEAR(quant_accuracy, fp32_accuracy, kAccuracyEpsilon)
        << sc::head_name(head);
  }
}

TEST(QuantGolden, QuantizedSupportBitIdenticalAcrossTiersOnTrainedWeights) {
  // The cross-tier contract the sparse path never had: the quantized
  // SUPPORT sums come out the SAME bytes from every dispatch tier
  // (exact integer block sums + fmaf-pinned combine). Full predictions
  // still pass through the tier-dependent fp32 softmax, so the
  // guarantee — and this test — lives at the support level, on the real
  // trained weight artifact (280 inputs / block 32 leaves a ragged
  // 24-wide tail block per row).
  const FixtureData& data = fixture();
  sc::Model quant = trained_model(sc::HeadType::kBcpnn).quantize();
  const auto& wt = quant.network().hidden().inference_weights().quant();
  const auto& bias = quant.network().hidden().bias();
  ASSERT_EQ(wt.cols(), 280u);

  st::MatrixF ref;
  for (const st::DispatchLevel level :
       {st::DispatchLevel::kScalar, st::DispatchLevel::kSse42,
        st::DispatchLevel::kAvx2}) {
    if (st::kernel_set_for(level) == nullptr) continue;
    const ScopedDispatch pin(level);
    st::MatrixF s;
    st::quant_support(wt, data.x_test, bias.data(), s);
    if (ref.size() == 0) {
      ref = s;
      continue;
    }
    ASSERT_EQ(s.rows(), ref.rows());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(s.data()[i], ref.data()[i])
          << st::dispatch_level_name(level) << " elem " << i;
    }
  }
}

TEST(QuantGolden, QuantizeRoundTripMatchesCommittedDigest) {
  const ScopedDispatch pin(st::DispatchLevel::kScalar);
  sc::Model quant = trained_model(sc::HeadType::kBcpnn).quantize();
  // Digest through a full save/load cycle so the committed file pins the
  // v4 quantized wire format, not just the in-memory conversion.
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  sc::save_model(buffer, quant);
  sc::Model restored;
  sc::load_model(buffer, restored);
  ASSERT_TRUE(restored.quantized());
  check_against_golden("quant_quantize_roundtrip", digest_of(restored));
}

TEST(QuantGolden, QuantizedCheckpointRoundTripsBitwiseBothHeads) {
  const FixtureData& data = fixture();
  for (const sc::HeadType head : {sc::HeadType::kBcpnn, sc::HeadType::kSgd}) {
    sc::Model quant = trained_model(head).quantize(sc::QuantOptions{
        .block_size = 16});
    const auto labels = quant.predict(data.x_test);
    const auto scores = quant.predict_scores(data.x_test);

    std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
    sc::save_model(buffer, quant);
    sc::Model restored;
    sc::load_model(buffer, restored);
    ASSERT_TRUE(restored.quantized()) << sc::head_name(head);
    EXPECT_FALSE(restored.sparse()) << sc::head_name(head);
    EXPECT_EQ(restored.predict(data.x_test), labels) << sc::head_name(head);
    const auto restored_scores = restored.predict_scores(data.x_test);
    for (std::size_t i = 0; i < scores.size(); ++i) {
      ASSERT_EQ(restored_scores[i], scores[i])
          << sc::head_name(head) << " row " << i << " after round-trip";
    }
    // The restored clone preserved the block size, not just the codes.
    if (head == sc::HeadType::kBcpnn) {
      EXPECT_EQ(
          restored.network().hidden().inference_weights().quant().block_size(),
          16u);
    }
  }
}

TEST(QuantGolden, PruneSparsifyQuantizeComposesAndRoundTrips) {
  // The full pipeline of the subsystem: magnitude-prune, compact to CSR,
  // then quantize the surviving entries to int8 with per-row scales —
  // and the v4 quant-sparse checkpoint reproduces it bitwise.
  const FixtureData& data = fixture();
  sc::Model dense = trained_model(sc::HeadType::kBcpnn);
  sc::prune_model(dense, 0.1);
  sc::Model sparse = dense.sparsify();
  sc::Model quant = sparse.quantize();
  ASSERT_TRUE(quant.quantized());
  ASSERT_TRUE(quant.sparse()) << "quantizing a sparse model keeps the CSR form";
  ASSERT_FALSE(sparse.quantized());

  // Same index structure as the fp32 CSR, at ~0.1 density.
  const auto& qcsr = quant.network().hidden().inference_weights().quant_csr();
  const auto& csr = sparse.network().hidden().inference_weights().csr();
  EXPECT_EQ(qcsr.nnz(), csr.nnz());
  EXPECT_LE(qcsr.density(), 0.1 + 1e-9);
  EXPECT_LT(qcsr.memory_bytes(), csr.memory_bytes());

  const double sparse_accuracy = sparse.evaluate(data.x_test, data.y_test);
  const double quant_accuracy = quant.evaluate(data.x_test, data.y_test);
  EXPECT_NEAR(quant_accuracy, sparse_accuracy, kAccuracyEpsilon);

  const auto labels = quant.predict(data.x_test);
  const auto scores = quant.predict_scores(data.x_test);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  sc::save_model(buffer, quant);
  sc::Model restored;
  sc::load_model(buffer, restored);
  ASSERT_TRUE(restored.quantized());
  ASSERT_TRUE(restored.sparse());
  EXPECT_EQ(restored.predict(data.x_test), labels);
  const auto restored_scores = restored.predict_scores(data.x_test);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    ASSERT_EQ(restored_scores[i], scores[i]) << "row " << i;
  }
}

TEST(QuantGolden, QuantizedModelIsReadOnlyAndStateMachineHolds) {
  const FixtureData& data = fixture();
  sc::Model dense = trained_model(sc::HeadType::kSgd);
  sc::Model quant = dense.quantize();

  EXPECT_THROW(quant.fit(data.x_train, data.y_train), std::logic_error);
  EXPECT_THROW(sc::prune_model(quant, 0.5), std::logic_error);
  // Order is prune -> sparsify -> quantize; the reverse composition
  // would quantize twice (once per scale granularity) and is rejected.
  EXPECT_THROW(quant.network().mutable_hidden().sparsify(), std::logic_error);
  EXPECT_NE(quant.summary().find("quantized"), std::string::npos);

  // quantize() of an already-quantized model is an idempotent clone.
  sc::Model again = quant.quantize();
  EXPECT_TRUE(again.quantized());
  EXPECT_EQ(again.predict(data.x_test), quant.predict(data.x_test));

  // Compactness: int8 codes + per-block scales land well under the fp32
  // weight matrix (and the traces are gone entirely).
  const auto& q = quant.network().hidden().inference_weights().quant();
  const std::size_t dense_bytes = q.rows() * q.cols() * sizeof(float);
  EXPECT_LT(q.memory_bytes(), dense_bytes / 3);
}

TEST(QuantGolden, DeepStackQuantizesAndRoundTrips) {
  const FixtureData& data = fixture();
  sc::Model dense;
  dense.input(28, 10)
      .hidden(2, 16, 0.4)
      .hidden(1, 16, 0.6)
      .classifier(2, sc::HeadType::kBcpnn)
      .set_option("epochs", 2)
      .compile("simd", /*seed=*/5);
  dense.fit(data.x_train, data.y_train);
  const double fp32_accuracy = dense.evaluate(data.x_test, data.y_test);

  sc::Model quant = dense.quantize();
  ASSERT_TRUE(quant.quantized());
  EXPECT_NEAR(quant.evaluate(data.x_test, data.y_test), fp32_accuracy,
              kAccuracyEpsilon);

  const auto labels = quant.predict(data.x_test);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  sc::save_model(buffer, quant);
  sc::Model restored;
  sc::load_model(buffer, restored);
  ASSERT_TRUE(restored.quantized());
  EXPECT_EQ(restored.predict(data.x_test), labels);
}

TEST(QuantGolden, SparsifyGuardrailPredicate) {
  // Satellite of the quant PR: Model::sparsify() warns (through
  // util::log) when the weight density is at or above the measured
  // pessimization threshold. The log stream has no capture hook, so the
  // predicate that drives the warning is pinned here instead.
  EXPECT_FALSE(sc::sparsify_is_pessimization(0.0));
  EXPECT_FALSE(sc::sparsify_is_pessimization(0.10));
  EXPECT_FALSE(sc::sparsify_is_pessimization(
      sc::kSparsePessimizationDensity - 1e-9));
  EXPECT_TRUE(sc::sparsify_is_pessimization(sc::kSparsePessimizationDensity));
  EXPECT_TRUE(sc::sparsify_is_pessimization(0.5));
  EXPECT_TRUE(sc::sparsify_is_pessimization(1.0));

  // And the guardrailed conversion still proceeds (the warning is
  // advisory — the memory win may be the point): an unpruned model sits
  // far above 25% density and must still sparsify correctly. Scalar
  // pin: dense-vs-sparse bit-identity only holds at the scalar tier.
  const ScopedDispatch pin(st::DispatchLevel::kScalar);
  const FixtureData& data = fixture();
  sc::Model dense = trained_model(sc::HeadType::kBcpnn);
  ASSERT_TRUE(sc::sparsify_is_pessimization(
      dense.network().hidden().weight_density()));
  sc::Model sparse = dense.sparsify();
  EXPECT_TRUE(sparse.sparse());
  EXPECT_EQ(sparse.predict(data.x_test), dense.predict(data.x_test));
}
