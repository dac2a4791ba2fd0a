// Tests for the BCPNN hidden layer, supervised classifier layer and SGD
// head: activation invariants, masking semantics, learning behaviour.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "core/classifier.hpp"
#include "core/layer.hpp"
#include "core/serialization.hpp"
#include "core/sgd_head.hpp"
#include "data/dataset.hpp"
#include "parallel/engine_registry.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernel_set.hpp"
#include "tensor/kernels.hpp"
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

namespace {

/// Whether every weight of the layer's receptive-field-silenced blocks is
/// +0.0, the bits the simd engine's masked support relies on to skip them.
::testing::AssertionResult silenced_blocks_hold_positive_zero(
    const sc::BcpnnLayer& layer) {
  const sc::BcpnnConfig& config = layer.config();
  const st::MatrixF& w = layer.weights();
  std::size_t silenced = 0;
  for (std::size_t h = 0; h < config.hcus; ++h) {
    for (std::size_t i = 0; i < config.input_hypercolumns; ++i) {
      if (layer.masks().active(h, i)) continue;
      ++silenced;
      for (std::size_t b = 0; b < config.input_bins; ++b) {
        for (std::size_t m = 0; m < config.mcus; ++m) {
          const float value = w(i * config.input_bins + b, h * config.mcus + m);
          if (std::bit_cast<std::uint32_t>(value) != 0) {
            return ::testing::AssertionFailure()
                   << "HCU " << h << ", input hypercolumn " << i
                   << " holds " << value << " at bin " << b << ", MCU " << m;
          }
        }
      }
    }
  }
  if (silenced == 0) {
    return ::testing::AssertionFailure() << "no silenced block to check";
  }
  return ::testing::AssertionSuccess();
}

}  // namespace

// W is written only by recompute_weights and learn_batch, each followed
// by the block masks; every path that changes the weights or the masks
// goes through one of them.
TEST(BcpnnLayer, SilencedBlocksHoldPositiveZeroAfterEveryWrite) {
  for (const char* engine_name : {"simd", "naive"}) {
    for (const std::size_t hcus : {1UL, 3UL}) {
      SCOPED_TRACE(std::string(engine_name) + ", " + std::to_string(hcus) +
                   " HCUs");
      sc::BcpnnConfig config = small_config();
      config.input_hypercolumns = 8;
      config.hcus = hcus;
      config.receptive_field = 0.5;
      auto engine = sp::EngineRegistry::instance().create(engine_name);
      su::Rng rng(40 + hcus);
      sc::BcpnnLayer layer(config, *engine, rng);
      EXPECT_TRUE(silenced_blocks_hold_positive_zero(layer))
          << "after construction";

      su::Rng data_rng(50 + hcus);
      const st::MatrixF x = synthetic_batch(config, 16, data_rng);
      layer.train_batch(x, 1.0f);
      EXPECT_TRUE(silenced_blocks_hold_positive_zero(layer))
          << "after a training batch";

      std::size_t swaps = 0;
      for (int epoch = 0; epoch < 40 && swaps == 0; ++epoch) {
        for (int step = 0; step < 4; ++step) layer.train_batch(x, 0.5f);
        swaps = layer.plasticity_step();
      }
      ASSERT_GT(swaps, 0U) << "no plasticity step swapped";
      EXPECT_TRUE(silenced_blocks_hold_positive_zero(layer))
          << "after a plasticity step that swapped";

      su::Rng other_rng(60 + hcus);
      sc::BcpnnLayer adopted(config, *engine, other_rng);
      adopted.set_state(layer.traces(), layer.masks());
      EXPECT_TRUE(silenced_blocks_hold_positive_zero(adopted))
          << "after set_state";

      const std::string path = "/tmp/streambrain_silenced_blocks_" +
                               std::string(engine_name) + "_" +
                               std::to_string(hcus) + ".ckpt";
      sc::save_layer(path, layer);
      su::Rng load_rng(70 + hcus);
      sc::BcpnnLayer loaded(config, *engine, load_rng);
      sc::load_layer(path, loaded);
      std::remove(path.c_str());
      EXPECT_TRUE(silenced_blocks_hold_positive_zero(loaded))
          << "after a dense checkpoint load";
    }
  }
}

TEST(BcpnnLayer, SetStateRejectsMasksOfAnotherGeometry) {
  // 4 HCUs x 2 MCUs has the same trace shape as 2 x 4, not the same masks.
  auto config = small_config();
  auto other_config = small_config();
  other_config.hcus = 4;
  other_config.mcus = 2;
  auto engine = sp::EngineRegistry::instance().create("simd");
  su::Rng rng(16);
  sc::BcpnnLayer layer(config, *engine, rng);
  sc::BcpnnLayer other(other_config, *engine, rng);
  EXPECT_THROW(layer.set_state(other.traces(), other.masks()),
               std::invalid_argument);
}

TEST(BcpnnLayer, EmptyBatchChangesNothing) {
  // 1/B with B = 0 turned every trace into NaN on "naive"; "simd" decayed
  // them by (1 - alpha). Both layers must treat an empty batch as a no-op.
  const auto same = [](const auto& expected, const auto& actual) {
    return std::equal(expected.begin(), expected.end(), actual.begin(),
                      actual.end(), [](float lhs, float rhs) {
                        return std::bit_cast<std::uint32_t>(lhs) ==
                               std::bit_cast<std::uint32_t>(rhs);
                      });
  };
  for (const char* name : {"naive", "simd"}) {
    auto config = small_config();
    auto engine = sp::EngineRegistry::instance().create(name);
    su::Rng rng(17);
    sc::BcpnnLayer layer(config, *engine, rng);
    su::Rng data_rng(18);
    layer.train_batch(synthetic_batch(config, 8, data_rng), 0.5f);
    const sc::ProbabilityTraces traces = layer.traces();
    const st::MatrixF weights = layer.weights();
    const std::vector<float> bias = layer.bias();
    layer.train_batch(st::MatrixF(0, config.input_units()), 0.5f);
    EXPECT_TRUE(same(traces.pi(), layer.traces().pi())) << name;
    EXPECT_TRUE(same(traces.pj(), layer.traces().pj())) << name;
    EXPECT_TRUE(same(traces.pij(), layer.traces().pij())) << name;
    EXPECT_TRUE(same(weights, layer.weights())) << name;
    EXPECT_TRUE(same(bias, layer.bias())) << name;

    sc::BcpnnClassifier head(config.hidden_units(), config.hcus, 2, *engine,
                             0.1f);
    const sc::ProbabilityTraces head_traces = head.traces();
    const std::vector<float> head_bias = head.bias();
    head.train_batch(st::MatrixF(0, config.hidden_units()),
                     st::MatrixF(0, 2));
    EXPECT_TRUE(same(head_traces.pi(), head.traces().pi())) << name;
    EXPECT_TRUE(same(head_traces.pj(), head.traces().pj())) << name;
    EXPECT_TRUE(same(head_traces.pij(), head.traces().pij())) << name;
    EXPECT_TRUE(same(head_bias, head.bias())) << name;
  }
}

// -------------------------------------------------- fused training step ----

namespace {

/// Restores the dispatch tier that was active at construction.
class DispatchGuard {
 public:
  DispatchGuard() : original_(st::active_kernels().level) {}
  ~DispatchGuard() { st::force_dispatch(original_); }
  DispatchGuard(const DispatchGuard&) = delete;
  DispatchGuard& operator=(const DispatchGuard&) = delete;

 private:
  st::DispatchLevel original_;
};

/// The trace and weight buffers one learn_batch call writes.
struct StepState {
  std::vector<float> pi;
  std::vector<float> pj;
  st::MatrixF pij;
  st::MatrixF w;
  std::vector<float> bias;

  void learn(sp::Engine& engine, bool reference, const st::MatrixF& x,
             const st::MatrixF& a, const sp::WeightMask& mask) {
    if (reference) {
      engine.sp::Engine::learn_batch(x, a, 0.05f, 1e-4f, 1.0f, mask,
                                     pi.data(), pj.data(), pij, w,
                                     bias.data());
    } else {
      engine.learn_batch(x, a, 0.05f, 1e-4f, 1.0f, mask, pi.data(),
                         pj.data(), pij, w, bias.data());
    }
  }
};

::testing::AssertionResult same_bits(const float* expected,
                                     const float* actual, std::size_t n,
                                     const char* what) {
  for (std::size_t i = 0; i < n; ++i) {
    if (std::bit_cast<std::uint32_t>(expected[i]) !=
        std::bit_cast<std::uint32_t>(actual[i])) {
      return ::testing::AssertionFailure()
             << what << "[" << i << "]: expected " << expected[i] << ", got "
             << actual[i];
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_state(const StepState& expected,
                                      const StepState& actual) {
  for (const auto& result :
       {same_bits(expected.pi.data(), actual.pi.data(), expected.pi.size(),
                  "pi"),
        same_bits(expected.pj.data(), actual.pj.data(), expected.pj.size(),
                  "pj"),
        same_bits(expected.pij.data(), actual.pij.data(),
                  expected.pij.size(), "pij"),
        same_bits(expected.w.data(), actual.w.data(), expected.w.size(), "w"),
        same_bits(expected.bias.data(), actual.bias.data(),
                  expected.bias.size(), "bias")}) {
    if (!result) return result;
  }
  return ::testing::AssertionSuccess();
}

}  // namespace

TEST(LearnBatch, SimdStepIsBitIdenticalToTheReferenceComposition) {
  // The paper's input (28 features x 10 quantile bins, batch 64) at the
  // 1 x 300 MCU shape, and at 3 HCUs x 77 MCUs, where masked blocks cut
  // W's rows into segments, with a keep-mask on top.
  struct Shape {
    std::size_t hcus;
    std::size_t mcus;
    double receptive_field;
    bool pruned;
  };
  enum class Seed { kPlain, kNegativeZero, kNegativeZeroAndNan };
  constexpr std::size_t kHcs = 28;
  constexpr std::size_t kBins = 10;
  constexpr std::size_t kBatch = 64;
  constexpr std::size_t kInputs = kHcs * kBins;
  // Two input units no row activates: the column of X of the first holds
  // -0.0, a zero the nonzero lists drop but gemm's dense fallback reads;
  // the second's holds +0.0, which turns a -0.0 in its p_ij row into +0.0
  // on the dense fallback only.
  constexpr std::size_t kNegativeZeroInput = 3;
  constexpr std::size_t kSilentInput = 6;
  const DispatchGuard guard;
  auto engine = sp::EngineRegistry::instance().create("simd");
  for (const Shape shape : {Shape{1, 300, 0.4, false}, Shape{3, 77, 0.6, true}}) {
    const std::size_t outputs = shape.hcus * shape.mcus;
    su::Rng rng(outputs);
    st::MatrixF x(kBatch, kInputs, 0.0f);
    for (std::size_t r = 0; r < kBatch; ++r) {
      x(r, kNegativeZeroInput) = -0.0f;
      for (std::size_t f = 0; f < kHcs; ++f) {
        std::size_t unit = f * kBins + rng.uniform_index(kBins);
        if (unit == kNegativeZeroInput || unit == kSilentInput) ++unit;
        x(r, unit) = 1.0f;
      }
    }
    std::size_t busy_input = kBins;
    while (x(0, busy_input) == 0.0f) ++busy_input;
    st::MatrixF a(kBatch, outputs);
    for (float& v : a) v = static_cast<float>(rng.uniform(-2.0, 2.0));
    engine->softmax_hcu(a, shape.mcus, 1.0f);

    std::vector<std::uint8_t> active(kHcs * shape.hcus);
    for (auto& flag : active) flag = rng.uniform() < shape.receptive_field;
    std::vector<std::uint8_t> keep;
    if (shape.pruned) {
      keep.resize(kInputs * outputs);
      for (auto& flag : keep) flag = rng.uniform() < 0.7;
    }
    const sp::WeightMask mask{
        .block_rows = kBins,
        .block_cols = shape.mcus,
        .active = active.data(),
        .keep = keep.empty() ? nullptr : keep.data()};

    StepState start{.pi = std::vector<float>(kInputs),
                    .pj = std::vector<float>(outputs),
                    .pij = st::MatrixF(kInputs, outputs),
                    .w = st::MatrixF(kInputs, outputs, 7.0f),
                    .bias = std::vector<float>(outputs, 7.0f)};
    for (float& p : start.pi) p = static_cast<float>(rng.uniform(0.01, 0.2));
    for (float& p : start.pj) p = static_cast<float>(rng.uniform(1e-3, 1e-2));
    for (float& p : start.pij) p = static_cast<float>(rng.uniform(1e-6, 1e-3));

    for (const Seed seed :
         {Seed::kPlain, Seed::kNegativeZero, Seed::kNegativeZeroAndNan}) {
      StepState seeded = start;
      st::MatrixF acts = a;
      if (seed != Seed::kPlain) {
        // -0.0 sends these rows down the dense fallback: two whose inputs
        // never fire and one whose input does.
        seeded.pij(kNegativeZeroInput, 1) = -0.0f;
        seeded.pij(kSilentInput, 1) = -0.0f;
        seeded.pij(busy_input, 2) = -0.0f;
      }
      if (seed == Seed::kNegativeZeroAndNan) {
        // gemm's -0.0 fallback is whole-matrix: with a NaN activation it
        // spreads 0 * NaN over column 4 of every row, which per-row
        // fallbacks would not.
        acts(5, 4) = std::numeric_limits<float>::quiet_NaN();
      }
      for (const st::DispatchLevel level :
           {st::DispatchLevel::kScalar, st::DispatchLevel::kSse42,
            st::DispatchLevel::kAvx2}) {
        if (st::kernel_set_for(level) == nullptr) continue;
        st::force_dispatch(level);
        StepState expected = seeded;
        expected.learn(*engine, true, x, acts, mask);
        if (seed == Seed::kNegativeZero) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(
                        expected.pij(kNegativeZeroInput, 1)),
                    0x80000000u);
          ASSERT_EQ(std::bit_cast<std::uint32_t>(
                        expected.pij(kSilentInput, 1)),
                    0u);
        }
        for (const bool in_pool : {false, true}) {
          StepState fused = seeded;
          const auto step = [&] { fused.learn(*engine, false, x, acts, mask); };
          if (in_pool) {
            sp::global_pool().submit(step).get();
          } else {
            step();
          }
          EXPECT_TRUE(same_state(expected, fused))
              << st::dispatch_level_name(level) << " " << shape.hcus << "x"
              << shape.mcus << " seed " << static_cast<int>(seed)
              << (in_pool ? " in a pool task" : " inline");
        }
      }
    }
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
  EXPECT_THROW(classifier.train_batch(st::MatrixF(2, 5), st::MatrixF(2, 2)),
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
  st::MatrixF targets(2, 2);
  EXPECT_THROW(head.train_epoch(st::MatrixF(2, 5), targets),
               std::invalid_argument);
  // Nonzero lists of another row count than the features.
  st::NonzeroRows lists;
  lists.row_ptr.assign(4, 0);
  EXPECT_THROW(head.train_epoch(x, &lists, targets), std::invalid_argument);
}

namespace {

/// One epoch of SgdHead::train_epoch written out over dense batch copies
/// and tensor::gemm_blocked: the head's zero-skipping batches must match
/// it bit for bit. `rng` replays the head's shuffle stream.
void reference_epoch(sc::SgdHead& head, su::Rng& rng, const st::MatrixF& x,
                     const st::MatrixF& targets) {
  const std::size_t n = x.rows();
  const std::size_t classes = head.classes();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  st::MatrixF grad(head.inputs(), classes);
  std::vector<float> bias_grad(classes);
  for (std::size_t start = 0; start < n; start += head.config().batch_size) {
    const std::size_t b = std::min(head.config().batch_size, n - start);
    st::MatrixF batch_x(b, x.cols());
    for (std::size_t r = 0; r < b; ++r) {
      std::copy_n(x.row(order[start + r]), x.cols(), batch_x.row(r));
    }
    st::MatrixF probs(b, classes);
    st::gemm_blocked(st::Transpose::kNo, st::Transpose::kNo, 1.0f, batch_x,
                     head.weights(), 0.0f, probs);
    st::add_row_bias(probs, head.bias().data());
    st::softmax_blocks(probs, classes);
    for (std::size_t r = 0; r < b; ++r) {
      for (std::size_t c = 0; c < classes; ++c) {
        probs(r, c) -= targets(order[start + r], c);
      }
    }
    const float inv_b = 1.0f / static_cast<float>(b);
    st::gemm_blocked(st::Transpose::kYes, st::Transpose::kNo, inv_b, batch_x,
                     probs, 0.0f, grad);
    st::col_sums(probs, bias_grad.data());
    st::scale(inv_b, bias_grad.data(), classes);
    head.apply_gradient(grad, bias_grad);
  }
  head.end_epoch();
}

/// A fresh head and an Rng at the point of the head's stream where its
/// first shuffle draws.
struct ReferenceHead {
  ReferenceHead(std::size_t inputs, std::size_t classes,
                const sc::SgdHeadConfig& config)
      : head(inputs, classes, config), rng(config.seed) {
    for (std::size_t i = 0; i < inputs * classes; ++i) {
      (void)rng.normal(0.0, 0.01);
    }
  }
  sc::SgdHead head;
  su::Rng rng;
};

::testing::AssertionResult same_head(const sc::SgdHead& expected,
                                     const sc::SgdHead& actual) {
  const auto weights =
      same_bits(expected.weights().data(), actual.weights().data(),
                expected.weights().size(), "weights");
  if (!weights) return weights;
  return same_bits(expected.bias().data(), actual.bias().data(),
                   expected.classes(), "bias");
}

}  // namespace

TEST(SgdHead, NonzeroListEpochsAreBitIdenticalToDenseBatches) {
  // 150 rows in batches of 32 leave a final batch of 22. Rows 3 and 40
  // are all zero, and one entry of row 5 is -0.0, which the nonzero lists
  // drop and the dense batches multiply.
  constexpr std::size_t kRows = 150;
  constexpr std::size_t kInputs = 40;
  constexpr std::size_t kClasses = 2;
  constexpr std::size_t kEpochs = 3;
  sc::SgdHeadConfig config;
  config.batch_size = 32;
  config.learning_rate = 0.5f;
  const DispatchGuard guard;
  for (const double density : {0.2, 0.6}) {
    su::Rng rng(static_cast<std::uint64_t>(density * 10));
    st::MatrixF code(kRows, kInputs, 0.0f);
    st::MatrixF targets(kRows, kClasses, 0.0f);
    for (std::size_t r = 0; r < kRows; ++r) {
      targets(r, rng.uniform_index(kClasses)) = 1.0f;
      if (r == 3 || r == 40) continue;
      for (float& value : std::span(code.row(r), kInputs)) {
        if (rng.uniform() < density) {
          value = static_cast<float>(rng.uniform(0.01, 1.0));
        }
      }
    }
    std::size_t zero_input = 0;
    while (code(5, zero_input) != 0.0f) ++zero_input;
    code(5, zero_input) = -0.0f;

    st::NonzeroRows lists;
    const bool sparse = st::collect_sparse_rows(code, lists);
    ASSERT_EQ(sparse, density < st::kSparseDensityCrossover);
    for (const st::DispatchLevel level :
         {st::DispatchLevel::kScalar, st::DispatchLevel::kSse42,
          st::DispatchLevel::kAvx2}) {
      if (st::kernel_set_for(level) == nullptr) continue;
      st::force_dispatch(level);
      const std::string where = std::string(st::dispatch_level_name(level)) +
                                " at density " + std::to_string(density);

      // Network::train_head's form: lists collected once, many epochs.
      ReferenceHead reference(kInputs, kClasses, config);
      sc::SgdHead head(kInputs, kClasses, config);
      for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
        reference_epoch(reference.head, reference.rng, code, targets);
        head.train_epoch(code, sparse ? &lists : nullptr, targets);
        EXPECT_TRUE(same_head(reference.head, head))
            << where << ", epoch " << epoch;
      }

      // partial_fit's and OnlineTrainer's form: one call that collects.
      ReferenceHead one_call(kInputs, kClasses, config);
      sc::SgdHead streamed(kInputs, kClasses, config);
      reference_epoch(one_call.head, one_call.rng, code, targets);
      streamed.train_epoch(code, targets);
      EXPECT_TRUE(same_head(one_call.head, streamed)) << where << ", one call";
    }
  }
}
