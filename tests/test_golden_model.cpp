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
//
// Regenerate after an intentional behavior change with:
//   STREAMBRAIN_UPDATE_GOLDEN=1 ./test_golden_model

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "core/model.hpp"
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

Digest run_model(const Declare& declare) {
  const FixtureData& data = fixture();
  sc::Model model;
  model.input(28, 10);
  declare(model);
  model.compile("simd", /*seed=*/7);
  model.fit(data.x_train, data.y_train);
  Digest digest;
  digest.labels = model.predict(data.x_test);
  digest.scores = model.predict_scores(data.x_test);
  digest.accuracy = model.evaluate(data.x_test, data.y_test);
  digest.log_loss = binary_log_loss(digest.scores, data.y_test);
  return digest;
}

void check_against_golden(const std::string& name, const Declare& declare) {
  Digest actual;
  {
    // Scalar tier: platform-stable ordered math for exact digests.
    const ScopedDispatch pin(st::DispatchLevel::kScalar);
    actual = run_model(declare);
  }

  if (sg::update_mode()) {
    sg::write_digest(name, actual);
    GTEST_SKIP() << "regenerated " << sg::golden_path(name);
  }

  Digest expected;
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

TEST(GoldenModel, UpdateModeIsOffInCommittedRuns) {
  // A committed tree must never run in regeneration mode by accident;
  // this test documents the env contract.
  if (sg::update_mode()) {
    GTEST_SKIP() << "STREAMBRAIN_UPDATE_GOLDEN is set (regeneration run)";
  }
  SUCCEED();
}
