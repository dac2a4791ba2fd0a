// Golden-regression tests: train one small fixed-seed model per head
// type, and one two-hidden-layer stack, on the scalar kernel tier (strict
// left-to-right accumulation, no libc exp/log on the model path — fully
// deterministic across hosts) and compare predictions, scores, accuracy,
// and log-loss against digests committed under tests/golden/. Any drift —
// a kernel swap changing numerics, a refactor reordering accumulation —
// fails loudly instead of silently changing learned behavior.
//
// The SIMD tiers are not pinned to these exact digests (FMA and lane
// reassociation legitimately change rounding); their contract is the
// property suite (test_kernels_property.cpp) plus the tolerance check at
// the end of each test here, which re-runs inference under the startup
// dispatch tier and bounds its drift from the scalar-trained goldens.
// GoldenModelAtTier pins each SIMD tier's own bits instead: a short
// 1x300 fit per head, trained and scored at that tier, against a digest
// of its own (tier_<tier>_<head>.txt). Those digests hold for one
// compiler's vectorization of the kernel bodies (GCC 12); a kernel
// change that keeps its tier's bits keeps them byte for byte.
// sgd_head_sparse_code trains the SGD head on an 8,000-event 1x300 code
// of density about 0.17, so its head products skip zeros; the 700-event
// codes are dense.
//
// Regenerate after an intentional behavior change with:
//   STREAMBRAIN_UPDATE_GOLDEN=1 ./test_golden_model

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "core/model.hpp"
#include "data/higgs.hpp"
#include "encode/one_hot.hpp"
#include "golden_util.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernel_set.hpp"

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

FixtureData make_fixture(std::size_t train_events) {
  streambrain::data::SyntheticHiggsGenerator train_generator;
  const auto train = train_generator.generate(train_events);
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
}

const FixtureData& fixture() {
  static const FixtureData data = make_fixture(700);
  return data;
}

/// Enough events that a 1x300 layer's trained code is mostly exact zeros
/// (density about 0.17), so the SGD head's products skip zeros.
const FixtureData& sparse_code_fixture() {
  static const FixtureData data = make_fixture(8000);
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

/// Declares the layers, head and options between input() and compile().
using Declare = std::function<void(sc::Model&)>;

Declare shallow(sc::HeadType head) {
  return [head](sc::Model& model) {
    model.hidden(1, 30, 0.4).classifier(2, head).set_option("epochs", 3);
  };
}

/// Two hidden layers under the BCPNN head. At two epochs per phase the
/// anneal start + (end - start) * p and start * (1 - p) give the same
/// noise levels (3 and 0), so the digest pins the stack's schedule.
Declare deep_stack() {
  return [](sc::Model& model) {
    model.hidden(4, 20, 0.3)
        .hidden(1, 30, 1.0)
        .classifier(2, sc::HeadType::kBcpnn)
        .set_option("epochs", 2)
        .set_option("head_epochs", 2);
  };
}

/// The held-out digest of a model trained on `data`.
Digest digest_of(sc::Model& model, const FixtureData& data) {
  Digest digest;
  digest.labels = model.predict(data.x_test);
  digest.scores = model.predict_scores(data.x_test);
  digest.accuracy = model.evaluate(data.x_test, data.y_test);
  digest.log_loss = binary_log_loss(digest.scores, data.y_test);
  return digest;
}

Digest run_model(const Declare& declare) {
  const FixtureData& data = fixture();
  sc::Model model;
  model.input(28, 10);
  declare(model);
  model.compile("simd", /*seed=*/7);
  model.fit(data.x_train, data.y_train);
  return digest_of(model, data);
}

Digest run_at(st::DispatchLevel level, const Declare& declare) {
  const ScopedDispatch pin(level);
  return run_model(declare);
}

// Compares `actual`, trained at `level`, with the committed digest
// `name` (rewrites it and skips the test in update mode).
void expect_matches_golden(const std::string& name, st::DispatchLevel level,
                           const Digest& actual, Digest& expected) {
  if (sg::update_mode()) {
    sg::write_digest(name, actual, st::dispatch_level_name(level));
    GTEST_SKIP() << "regenerated " << sg::golden_path(name);
  }
  ASSERT_TRUE(sg::read_digest(name, expected))
      << "missing golden digest " << sg::golden_path(name)
      << " — run with STREAMBRAIN_UPDATE_GOLDEN=1 to create it";

  // Exact label digest; tight numeric tolerances (the stored text has 12
  // significant digits, and std::log in the loss is the only libm call).
  EXPECT_EQ(actual.labels, expected.labels) << name << ": label drift";
  EXPECT_NEAR(actual.accuracy, expected.accuracy, 1e-9) << name;
  EXPECT_NEAR(actual.log_loss, expected.log_loss, 1e-7) << name;
  ASSERT_EQ(actual.scores.size(), expected.scores.size());
  for (std::size_t i = 0; i < actual.scores.size(); ++i) {
    EXPECT_NEAR(actual.scores[i], expected.scores[i], 1e-8)
        << name << ": score drift at row " << i;
  }
}

void check_against_golden(const std::string& name, const Declare& declare) {
  // Scalar tier: platform-stable ordered math for exact digests.
  const Digest actual = run_at(st::DispatchLevel::kScalar, declare);
  Digest expected;
  expect_matches_golden(name, st::DispatchLevel::kScalar, actual, expected);
  if (::testing::Test::IsSkipped() || ::testing::Test::HasFatalFailure()) {
    return;
  }

  // Secondary guard: training + inference under the startup dispatch
  // tier (possibly SSE4.2/AVX2) must stay within honest float tolerance
  // of the scalar goldens — kernel tiers may round differently but must
  // not change learned behavior.
  const Digest simd = run_model(declare);
  EXPECT_NEAR(simd.accuracy, expected.accuracy, 0.02) << name;
  EXPECT_NEAR(simd.log_loss, expected.log_loss, 0.02) << name;
  std::size_t label_mismatches = 0;
  for (std::size_t i = 0; i < simd.labels.size(); ++i) {
    if (simd.labels[i] != expected.labels[i]) ++label_mismatches;
  }
  // At most 2% of rows may sit close enough to the decision boundary to
  // flip under a different rounding of the same math.
  EXPECT_LE(label_mismatches, simd.labels.size() / 50 + 1)
      << name << ": " << label_mismatches << "/" << simd.labels.size()
      << " labels changed under '" << st::active_kernels().name
      << "' dispatch";
}

}  // namespace

TEST(GoldenModel, BcpnnHeadMatchesCommittedDigest) {
  check_against_golden("bcpnn_head", shallow(sc::HeadType::kBcpnn));
}

TEST(GoldenModel, SgdHeadMatchesCommittedDigest) {
  check_against_golden("sgd_head", shallow(sc::HeadType::kSgd));
}

TEST(GoldenModel, DeepStackMatchesCommittedDigest) {
  check_against_golden("deep_stack", deep_stack());
}

// The 700-event shallow goldens train the head on a code of density 1.0,
// so their head products never skip a zero. This one pins the head on a
// code below tensor::kSparseDensityCrossover, and checks that it is.
TEST(GoldenModel, SgdHeadOnASparseCodeMatchesCommittedDigest) {
  const FixtureData& data = sparse_code_fixture();
  const ScopedDispatch pin(st::DispatchLevel::kScalar);
  sc::Model model;
  model.input(28, 10)
      .hidden(1, 300, 0.4)
      .classifier(2, sc::HeadType::kSgd)
      .set_option("epochs", 8)
      .set_option("head_epochs", 4)
      .compile("simd", /*seed=*/7);
  model.fit(data.x_train, data.y_train);
  const st::MatrixF code = model.network().transform(data.x_train);
  std::size_t nonzeros = 0;
  for (const float value : code) nonzeros += value != 0.0f;
  EXPECT_LT(static_cast<double>(nonzeros) / static_cast<double>(code.size()),
            st::kSparseDensityCrossover);
  Digest expected;
  expect_matches_golden("sgd_head_sparse_code", st::DispatchLevel::kScalar,
                        digest_of(model, data), expected);
}

using TierAndHead = std::tuple<st::DispatchLevel, sc::HeadType>;

class GoldenModelAtTier : public ::testing::TestWithParam<TierAndHead> {};

TEST_P(GoldenModelAtTier, MatchesCommittedDigest) {
  const st::DispatchLevel level = std::get<0>(GetParam());
  const sc::HeadType head = std::get<1>(GetParam());
  if (st::kernel_set_for(level) == nullptr) {
    GTEST_SKIP() << st::dispatch_level_name(level) << " does not run here";
  }
  const std::string name =
      std::string("tier_") + st::dispatch_level_name(level) +
      (head == sc::HeadType::kSgd ? "_sgd_head" : "_bcpnn_head");
  const Digest actual = run_at(level, [head](sc::Model& model) {
    model.hidden(1, 300, 0.4).classifier(2, head).set_option("epochs", 2);
  });
  Digest expected;
  expect_matches_golden(name, level, actual, expected);
}

INSTANTIATE_TEST_SUITE_P(
    GoldenModel, GoldenModelAtTier,
    ::testing::Combine(::testing::Values(st::DispatchLevel::kSse42,
                                         st::DispatchLevel::kAvx2),
                       ::testing::Values(sc::HeadType::kBcpnn,
                                         sc::HeadType::kSgd)),
    [](const ::testing::TestParamInfo<TierAndHead>& info) {
      return std::string(st::dispatch_level_name(std::get<0>(info.param))) +
             (std::get<1>(info.param) == sc::HeadType::kSgd ? "_sgd"
                                                            : "_bcpnn");
    });

TEST(GoldenModel, UpdateModeIsOffInCommittedRuns) {
  // A committed tree must never run in regeneration mode by accident;
  // this test documents the env contract.
  if (sg::update_mode()) {
    GTEST_SKIP() << "STREAMBRAIN_UPDATE_GOLDEN is set (regeneration run)";
  }
  SUCCEED();
}
