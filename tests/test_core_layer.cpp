// Tests for the BCPNN hidden layer, supervised classifier layer and SGD
// head: activation invariants, masking semantics, learning behaviour.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "core/classifier.hpp"
#include "core/layer.hpp"
#include "core/sgd_head.hpp"
#include "data/dataset.hpp"
#include "parallel/engine_registry.hpp"
#include "util/rng.hpp"

namespace sc = streambrain::core;
namespace sp = streambrain::parallel;
namespace st = streambrain::tensor;
namespace su = streambrain::util;

namespace {

sc::BcpnnConfig small_config() {
  sc::BcpnnConfig config;
  config.input_hypercolumns = 6;
  config.input_bins = 5;
  config.hcus = 2;
  config.mcus = 4;
  config.receptive_field = 0.5;
  config.epochs = 4;
  config.batch_size = 8;
  config.engine = "simd";
  return config;
}

/// One-hot batch where the active bin of every hypercolumn is label-driven
/// for hypercolumns < informative_hcs and random otherwise.
st::MatrixF synthetic_batch(const sc::BcpnnConfig& config, std::size_t rows,
                            su::Rng& rng, std::vector<int>* labels = nullptr,
                            std::size_t informative_hcs = 3) {
  st::MatrixF x(rows, config.input_units(), 0.0f);
  for (std::size_t r = 0; r < rows; ++r) {
    const int label = static_cast<int>(rng.uniform_index(2));
    if (labels != nullptr) (*labels).push_back(label);
    for (std::size_t f = 0; f < config.input_hypercolumns; ++f) {
      std::size_t bin;
      if (f < informative_hcs) {
        // Signal concentrates in high bins, background in low bins.
        bin = label == 1 ? 3 + rng.uniform_index(2) : rng.uniform_index(2);
      } else {
        bin = rng.uniform_index(config.input_bins);
      }
      x(r, f * config.input_bins + bin) = 1.0f;
    }
  }
  return x;
}

}  // namespace

// ------------------------------------------------------- support noise ----

TEST(SupportNoise, MatchesTheSerialStreamBitForBitAtEveryThreadCount) {
  // 7 x 3001 values is odd: one call leaves the second normal of its last
  // pair cached, and the next call starts from it. Its 10,500 pairs split
  // into 1, 8, 12 and 16 panels at 1, 2, 3 and 4 threads.
  constexpr std::size_t kValues = 7 * 3001;
  constexpr float kSigma = 2.5f;
  for (const std::size_t threads : {1, 2, 3, 4}) {
    su::Rng serial(99);
    su::Rng batched(99);
    // A pending cached normal before the first call too.
    EXPECT_EQ(serial.normal(), batched.normal());
    for (int call = 0; call < 4; ++call) {
      std::vector<float> expected(kValues);
      for (std::size_t i = 0; i < kValues; ++i) {
        expected[i] = static_cast<float>(i % 13) * 0.25f - 1.0f;
      }
      std::vector<float> actual = expected;
      for (float& v : expected) {
        v += static_cast<float>(serial.normal(0.0, kSigma));
      }
      sc::add_normal_noise(batched, actual.data(), actual.size(), kSigma,
                           threads);
      for (std::size_t i = 0; i < kValues; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(actual[i]),
                  std::bit_cast<std::uint32_t>(expected[i]))
            << threads << " threads, call " << call << ", value " << i;
      }
    }
    // Empty and one-value calls keep the stream in step as well.
    float one = 0.0f;
    sc::add_normal_noise(batched, &one, 0, kSigma, threads);
    sc::add_normal_noise(batched, &one, 1, kSigma, threads);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(one),
              std::bit_cast<std::uint32_t>(
                  static_cast<float>(serial.normal(0.0, kSigma))));
    for (int draw = 0; draw < 3; ++draw) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(batched.normal()),
                std::bit_cast<std::uint64_t>(serial.normal()))
          << threads << " threads";
      EXPECT_EQ(std::bit_cast<std::uint64_t>(batched.uniform()),
                std::bit_cast<std::uint64_t>(serial.uniform()))
          << threads << " threads";
    }
  }
}

// --------------------------------------------------------------- layer ----

TEST(BcpnnLayer, InitialWeightsAreZeroAndActivationsUniform) {
  auto config = small_config();
  auto engine = sp::EngineRegistry::instance().create("naive");
  su::Rng rng(1);
  sc::BcpnnLayer layer(config, *engine, rng);

  // With the independent uniform prior, w = log(pij/(pi pj)) = log(1) = 0
  // on unmasked connections.
  for (float w : layer.weights()) {
    EXPECT_NEAR(w, 0.0f, 1e-5f);
  }
  su::Rng data_rng(2);
  const auto x = synthetic_batch(config, 4, data_rng);
  st::MatrixF activations;
  layer.forward(x, activations);
  for (float a : activations) {
    EXPECT_NEAR(a, 1.0f / static_cast<float>(config.mcus), 1e-4f);
  }
}

TEST(BcpnnLayer, ActivationsFormSimplexPerHcu) {
  auto config = small_config();
  auto engine = sp::EngineRegistry::instance().create("simd");
  su::Rng rng(3);
  sc::BcpnnLayer layer(config, *engine, rng);
  su::Rng data_rng(4);
  const auto x = synthetic_batch(config, 16, data_rng);
  for (int step = 0; step < 10; ++step) layer.train_batch(x, 1.0f);

  st::MatrixF activations;
  layer.forward(x, activations);
  for (std::size_t r = 0; r < activations.rows(); ++r) {
    for (std::size_t h = 0; h < config.hcus; ++h) {
      float mass = 0.0f;
      for (std::size_t m = 0; m < config.mcus; ++m) {
        const float a = activations(r, h * config.mcus + m);
        EXPECT_GE(a, 0.0f);
        EXPECT_LE(a, 1.0f);
        mass += a;
      }
      EXPECT_NEAR(mass, 1.0f, 1e-4f);
    }
  }
}

TEST(BcpnnLayer, MaskedInputsContributeNothing) {
  auto config = small_config();
  auto engine = sp::EngineRegistry::instance().create("naive");
  su::Rng rng(5);
  sc::BcpnnLayer layer(config, *engine, rng);
  su::Rng data_rng(6);
  const auto x = synthetic_batch(config, 16, data_rng);
  for (int step = 0; step < 5; ++step) layer.train_batch(x, 0.5f);

  // Zero out a masked-out input hypercolumn in a probe: activations must
  // be identical because silent connections carry zero weight.
  std::size_t silent_hc = config.input_hypercolumns;
  for (std::size_t i = 0; i < config.input_hypercolumns; ++i) {
    if (!layer.masks().active(0, i)) {
      silent_hc = i;
      break;
    }
  }
  ASSERT_LT(silent_hc, config.input_hypercolumns) << "no silent hypercolumn";

  st::MatrixF probe = x;
  st::MatrixF base_act;
  layer.forward(probe, base_act);
  for (std::size_t r = 0; r < probe.rows(); ++r) {
    for (std::size_t b = 0; b < config.input_bins; ++b) {
      probe(r, silent_hc * config.input_bins + b) = 0.0f;
    }
  }
  st::MatrixF altered_act;
  layer.forward(probe, altered_act);
  for (std::size_t r = 0; r < probe.rows(); ++r) {
    for (std::size_t m = 0; m < config.mcus; ++m) {
      // Only HCU 0's block is guaranteed unaffected (the silent HC may be
      // active for HCU 1).
      EXPECT_NEAR(base_act(r, m), altered_act(r, m), 1e-5f);
    }
  }
}

TEST(BcpnnLayer, NoisyForwardDiffersFromDeterministic) {
  auto config = small_config();
  auto engine = sp::EngineRegistry::instance().create("simd");
  su::Rng rng(7);
  sc::BcpnnLayer layer(config, *engine, rng);
  su::Rng data_rng(8);
  const auto x = synthetic_batch(config, 8, data_rng);
  st::MatrixF a_det;
  st::MatrixF a_noisy;
  layer.forward(x, a_det);
  layer.forward_noisy(x, a_noisy, 3.0f);
  float max_diff = 0.0f;
  for (std::size_t i = 0; i < a_det.size(); ++i) {
    max_diff = std::max(max_diff,
                        std::abs(a_det.data()[i] - a_noisy.data()[i]));
  }
  EXPECT_GT(max_diff, 1e-3f);
}

TEST(BcpnnLayer, TrainingBreaksMcuSymmetry) {
  auto config = small_config();
  auto engine = sp::EngineRegistry::instance().create("simd");
  su::Rng rng(9);
  sc::BcpnnLayer layer(config, *engine, rng);
  su::Rng data_rng(10);
  const auto x = synthetic_batch(config, 32, data_rng);
  for (int step = 0; step < 40; ++step) layer.train_batch(x, 2.0f);

  // After noisy training, different MCUs should prefer different inputs:
  // the weight columns within an HCU must not all be identical.
  const auto& w = layer.weights();
  float total_column_spread = 0.0f;
  for (std::size_t i = 0; i < w.rows(); ++i) {
    float lo = w(i, 0);
    float hi = w(i, 0);
    for (std::size_t m = 1; m < config.mcus; ++m) {
      lo = std::min(lo, w(i, m));
      hi = std::max(hi, w(i, m));
    }
    total_column_spread += hi - lo;
  }
  EXPECT_GT(total_column_spread, 0.1f);
}

TEST(BcpnnLayer, ForwardRejectsWrongWidth) {
  auto config = small_config();
  auto engine = sp::EngineRegistry::instance().create("naive");
  su::Rng rng(11);
  sc::BcpnnLayer layer(config, *engine, rng);
  st::MatrixF bad(2, config.input_units() + 1);
  st::MatrixF out;
  EXPECT_THROW(layer.forward(bad, out), std::invalid_argument);
}

TEST(BcpnnLayer, SetStateRoundTrip) {
  auto config = small_config();
  auto engine = sp::EngineRegistry::instance().create("simd");
  su::Rng rng(13);
  sc::BcpnnLayer source(config, *engine, rng);
  su::Rng rng2(14);
  sc::BcpnnLayer target(config, *engine, rng2);
  su::Rng data_rng(15);
  const auto x = synthetic_batch(config, 16, data_rng);
  for (int step = 0; step < 10; ++step) source.train_batch(x, 1.0f);

  target.set_state(source.traces(), source.masks());
  st::MatrixF a_source;
  st::MatrixF a_target;
  source.forward(x, a_source);
  target.forward(x, a_target);
  for (std::size_t i = 0; i < a_source.size(); ++i) {
    EXPECT_NEAR(a_source.data()[i], a_target.data()[i], 1e-6f);
  }
}

TEST(BcpnnConfig, ValidateCatchesBadValues) {
  sc::BcpnnConfig config = small_config();
  config.receptive_field = 1.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = small_config();
  config.alpha = 0.0f;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = small_config();
  config.mcus = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(BcpnnConfig, MaskCardinalityCeilAndClamp) {
  sc::BcpnnConfig config = small_config();
  config.input_hypercolumns = 28;
  config.receptive_field = 0.30;
  EXPECT_EQ(config.mask_cardinality(), 9u);  // ceil(8.4)
  config.receptive_field = 0.0;
  EXPECT_EQ(config.mask_cardinality(), 1u);  // clamped to >= 1
  config.receptive_field = 1.0;
  EXPECT_EQ(config.mask_cardinality(), 28u);
}

TEST(BcpnnConfig, ApplyOverlaysConfigKeys) {
  sc::BcpnnConfig config = small_config();
  const auto overlay =
      su::Config::parse("hcus=4, mcus=77, receptive_field=0.8, engine=naive");
  config.apply(overlay);
  EXPECT_EQ(config.hcus, 4u);
  EXPECT_EQ(config.mcus, 77u);
  EXPECT_DOUBLE_EQ(config.receptive_field, 0.8);
  EXPECT_EQ(config.engine, "naive");
  EXPECT_EQ(config.input_bins, 5u);  // untouched keys preserved
}

// ---------------------------------------------------------- classifier ----

TEST(BcpnnClassifier, LearnsLinearlySeparableHiddenCodes) {
  auto engine = sp::EngineRegistry::instance().create("simd");
  sc::BcpnnClassifier classifier(8, 2, 2, *engine, 0.1f);
  su::Rng rng(17);
  st::MatrixF hidden(32, 8);
  st::MatrixF targets(32, 2, 0.0f);
  std::vector<int> labels(32);
  for (int epoch = 0; epoch < 30; ++epoch) {
    hidden.fill(0.0f);
    targets.fill(0.0f);
    for (std::size_t r = 0; r < 32; ++r) {
      const int label = static_cast<int>(rng.uniform_index(2));
      labels[r] = label;
      // class-dependent hidden pattern with noise
      for (std::size_t c = 0; c < 8; ++c) {
        hidden(r, c) = static_cast<float>(rng.uniform(0.0, 0.2));
      }
      hidden(r, label == 1 ? 1 : 5) += 0.8f;
      targets(r, static_cast<std::size_t>(label)) = 1.0f;
    }
    classifier.train_batch(hidden, targets);
  }
  const auto predictions = classifier.predict_labels(hidden);
  std::size_t correct = 0;
  for (std::size_t r = 0; r < 32; ++r) {
    correct += predictions[r] == labels[r] ? 1 : 0;
  }
  EXPECT_GT(correct, 28u);
}

TEST(BcpnnClassifier, ProbabilitiesSumToOne) {
  auto engine = sp::EngineRegistry::instance().create("naive");
  sc::BcpnnClassifier classifier(6, 1, 3, *engine, 0.1f);
  st::MatrixF hidden(5, 6, 0.3f);
  st::MatrixF probs;
  classifier.predict(hidden, probs);
  for (std::size_t r = 0; r < probs.rows(); ++r) {
    float mass = 0.0f;
    for (std::size_t c = 0; c < 3; ++c) mass += probs(r, c);
    EXPECT_NEAR(mass, 1.0f, 1e-5f);
  }
}

TEST(BcpnnClassifier, ScoresMatchClassOneProbability) {
  auto engine = sp::EngineRegistry::instance().create("naive");
  sc::BcpnnClassifier classifier(4, 1, 2, *engine, 0.1f);
  st::MatrixF hidden(3, 4, 0.25f);
  st::MatrixF probs;
  classifier.predict(hidden, probs);
  const auto scores = classifier.predict_scores(hidden);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_NEAR(scores[r], probs(r, 1), 1e-6);
  }
}

TEST(BcpnnClassifier, RejectsBadShapes) {
  auto engine = sp::EngineRegistry::instance().create("naive");
  EXPECT_THROW(sc::BcpnnClassifier(4, 1, 1, *engine, 0.1f),
               std::invalid_argument);
  sc::BcpnnClassifier classifier(4, 1, 2, *engine, 0.1f);
  st::MatrixF hidden(2, 4);
  st::MatrixF bad_targets(2, 3);
  EXPECT_THROW(classifier.train_batch(hidden, bad_targets),
               std::invalid_argument);
}

// ------------------------------------------------------------ sgd head ----

TEST(SgdHead, LearnsLinearlySeparableData) {
  sc::SgdHeadConfig config;
  config.learning_rate = 0.5f;
  sc::SgdHead head(2, 2, config);
  su::Rng rng(19);
  st::MatrixF x(64, 2);
  st::MatrixF targets(64, 2, 0.0f);
  std::vector<int> labels(64);
  for (std::size_t r = 0; r < 64; ++r) {
    const int label = static_cast<int>(rng.uniform_index(2));
    labels[r] = label;
    x(r, 0) = static_cast<float>(rng.normal(label == 1 ? 1.0 : -1.0, 0.3));
    x(r, 1) = static_cast<float>(rng.normal(0.0, 0.3));
    targets(r, static_cast<std::size_t>(label)) = 1.0f;
  }
  double last_loss = 1e9;
  for (int epoch = 0; epoch < 30; ++epoch) {
    last_loss = head.train_epoch(x, targets);
  }
  EXPECT_LT(last_loss, 0.2);
  const auto predictions = head.predict_labels(x);
  std::size_t correct = 0;
  for (std::size_t r = 0; r < 64; ++r) {
    correct += predictions[r] == labels[r] ? 1 : 0;
  }
  EXPECT_GT(correct, 60u);
}

TEST(SgdHead, LossDecreasesOverEpochs) {
  sc::SgdHead head(3, 2);
  su::Rng rng(23);
  st::MatrixF x(128, 3);
  st::MatrixF targets(128, 2, 0.0f);
  for (std::size_t r = 0; r < 128; ++r) {
    const int label = static_cast<int>(rng.uniform_index(2));
    for (std::size_t c = 0; c < 3; ++c) {
      x(r, c) =
          static_cast<float>(rng.normal(label == 1 ? 0.5 : -0.5, 1.0));
    }
    targets(r, static_cast<std::size_t>(label)) = 1.0f;
  }
  const double first = head.train_epoch(x, targets);
  double last = first;
  for (int epoch = 0; epoch < 20; ++epoch) last = head.train_epoch(x, targets);
  EXPECT_LT(last, first);
}

TEST(SgdHead, PredictionSimplex) {
  sc::SgdHead head(4, 3);
  st::MatrixF x(6, 4, 0.5f);
  st::MatrixF probs;
  head.predict(x, probs);
  for (std::size_t r = 0; r < probs.rows(); ++r) {
    float mass = 0.0f;
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_GE(probs(r, c), 0.0f);
      mass += probs(r, c);
    }
    EXPECT_NEAR(mass, 1.0f, 1e-5f);
  }
}

TEST(SgdHead, RejectsShapeMismatch) {
  sc::SgdHead head(4, 2);
  st::MatrixF x(2, 4);
  st::MatrixF bad(3, 2);
  EXPECT_THROW(head.train_epoch(x, bad), std::invalid_argument);
}
