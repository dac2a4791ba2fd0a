#include "core/layer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <tuple>

#include "parallel/parallel_for.hpp"

namespace streambrain::core {

namespace {

// Minimum Box-Muller pairs per noise panel: about 15 us of libm work.
constexpr std::size_t kMinNoisePairsPerPanel = 256;

}  // namespace

void add_normal_noise(util::Rng& rng, float* values, std::size_t n,
                      float stddev, std::size_t threads) {
  // normal(0.0, stddev)'s own arithmetic, so -0.0 noise reads +0.0 too.
  const double sigma = stddev;
  const auto noise = [sigma](double z) {
    return static_cast<float>(0.0 + sigma * z);
  };
  std::size_t first = 0;
  if (n > 0) {
    if (const std::optional<double> cached = rng.take_cached_normal()) {
      values[0] += noise(*cached);
      first = 1;
    }
  }
  const std::size_t pairs = (n - first) / 2;
  thread_local std::vector<double> uniforms;
  uniforms.resize(2 * pairs);
  for (std::size_t p = 0; p < pairs; ++p) {
    std::tie(uniforms[2 * p], uniforms[2 * p + 1]) = rng.normal_uniforms();
  }
  if (first + 2 * pairs < n) {
    // An odd tail: the last value is the first normal of one more pair,
    // whose second normal stays cached for the next draw.
    const auto [u1, u2] = rng.normal_uniforms();
    const util::NormalPair pair = util::box_muller(u1, u2);
    values[n - 1] += noise(pair.first);
    rng.cache_normal(pair.second);
  }
  float* out = values + first;
  const double* u = uniforms.data();
  const auto panel = [&](std::size_t p0, std::size_t p1) {
    for (std::size_t p = p0; p < p1; ++p) {
      const util::NormalPair pair = util::box_muller(u[2 * p], u[2 * p + 1]);
      out[2 * p] += noise(pair.first);
      out[2 * p + 1] += noise(pair.second);
    }
  };
  parallel::for_row_panels(pairs, kMinNoisePairsPerPanel, threads, panel);
}

void add_normal_noise(util::Rng& rng, tensor::MatrixF& values,
                      float stddev) {
  add_normal_noise(
      rng, values.data(), values.size(), stddev,
      parallel::task_count(values.size() / 2 / kMinNoisePairsPerPanel));
}

BcpnnLayer::BcpnnLayer(const BcpnnConfig& config, parallel::Engine& engine,
                       util::Rng& rng)
    : Weights(config.input_units(), config.hidden_units(), "BcpnnLayer"),
      config_(config),
      engine_(&engine),
      rng_(rng.split()),
      traces_(config.input_units(), config.input_bins, config.hidden_units(),
              config.mcus),
      masks_(config.hcus, config.input_hypercolumns,
             config.mask_cardinality(), rng) {
  config_.validate();
  refresh_block_flags();
  recompute_weights();
}

void BcpnnLayer::forward(const tensor::MatrixF& x,
                         tensor::MatrixF& activations) {
  if (x.cols() != input_units()) {
    throw std::invalid_argument("BcpnnLayer::forward: input width mismatch");
  }
  if (!read_only_support(x, activations)) {
    engine_->support_masked(x, weights(), bias().data(), weight_mask(),
                            activations);
  }
  engine_->softmax_hcu(activations, config_.mcus, config_.inverse_temperature);
}

void BcpnnLayer::forward_noisy(const tensor::MatrixF& x,
                               tensor::MatrixF& activations, float noise_std) {
  forward_noisy(x, activations, noise_std, rng_);
}

void BcpnnLayer::forward_noisy(const tensor::MatrixF& x,
                               tensor::MatrixF& activations, float noise_std,
                               util::Rng& rng) {
  if (noise_std <= 0.0f) {
    forward(x, activations);
    return;
  }
  require_mutable("forward_noisy");
  if (x.cols() != input_units()) {
    throw std::invalid_argument(
        "BcpnnLayer::forward_noisy: input width mismatch");
  }
  engine_->support_masked(x, weights(), bias().data(), weight_mask(),
                          activations);
  add_normal_noise(rng, activations, noise_std);
  engine_->softmax_hcu(activations, config_.mcus, config_.inverse_temperature);
}

void BcpnnLayer::forward_spiking(const tensor::MatrixF& x,
                                 tensor::MatrixF& activations,
                                 std::size_t timesteps) {
  if (timesteps == 0) {
    throw std::invalid_argument("forward_spiking: need at least 1 timestep");
  }
  // Rate distribution first, then Poisson-style categorical sampling.
  forward(x, activations);
  const std::size_t mcus = config_.mcus;
  const float spike_value = 1.0f / static_cast<float>(timesteps);
  std::vector<double> block(mcus);
  for (std::size_t r = 0; r < activations.rows(); ++r) {
    float* row = activations.row(r);
    for (std::size_t h = 0; h < config_.hcus; ++h) {
      float* unit = row + h * mcus;
      for (std::size_t m = 0; m < mcus; ++m) block[m] = unit[m];
      for (std::size_t m = 0; m < mcus; ++m) unit[m] = 0.0f;
      for (std::size_t t = 0; t < timesteps; ++t) {
        unit[rng_.categorical(block)] += spike_value;
      }
    }
  }
}

void BcpnnLayer::train_batch(const tensor::MatrixF& x, float noise_std) {
  require_mutable("train_batch");
  if (x.rows() == 0) return;
  forward_noisy(x, noise_scratch_, noise_std);
  traces_.learn(*engine_, x, noise_scratch_, config_.alpha, config_.eps,
                config_.k_beta, weight_mask(), mutable_weights(),
                mutable_bias().data());
}

void BcpnnLayer::recompute_weights() {
  require_mutable("recompute_weights");
  engine_->recompute_weights(traces_.pi().data(), traces_.pj().data(),
                             traces_.pij(), config_.eps, config_.k_beta,
                             mutable_weights(), mutable_bias().data());
  weight_mask().apply(mutable_weights());
}

parallel::WeightMask BcpnnLayer::weight_mask() const noexcept {
  // A silent connection contributes nothing to the support: zero the
  // weight block (all input units of hypercolumn i) x (all MCUs of HCU h).
  // Element-level magnitude pruning rides on top of the block masks: the
  // keep-mask survives every weight recomputation until re-pruned.
  return {.block_rows = config_.input_bins,
          .block_cols = config_.mcus,
          .active = block_active_.data(),
          .keep = keep()};
}

void BcpnnLayer::refresh_block_flags() {
  block_active_.resize(config_.input_hypercolumns * config_.hcus);
  for (std::size_t i = 0; i < config_.input_hypercolumns; ++i) {
    for (std::size_t h = 0; h < config_.hcus; ++h) {
      block_active_[i * config_.hcus + h] = masks_.active(h, i) ? 1 : 0;
    }
  }
}

void BcpnnLayer::release_trainable_state() noexcept {
  noise_scratch_ = tensor::MatrixF();
  traces_.release();
}

std::size_t BcpnnLayer::plasticity_step() {
  require_mutable("plasticity_step");
  PlasticityConfig plasticity;
  plasticity.swaps_per_hcu = config_.plasticity_swaps;
  plasticity.hysteresis = config_.plasticity_hysteresis;
  const std::size_t swaps = structural_plasticity_step(
      masks_, traces_, config_.input_bins, config_.mcus, config_.eps,
      plasticity);
  if (swaps > 0) {
    refresh_block_flags();
    recompute_weights();
  }
  return swaps;
}

void BcpnnLayer::set_state(const ProbabilityTraces& traces,
                           const ReceptiveFieldMasks& masks) {
  require_mutable("set_state");
  if (traces.inputs() != traces_.inputs() ||
      traces.outputs() != traces_.outputs()) {
    throw std::invalid_argument("BcpnnLayer::set_state: trace shape mismatch");
  }
  if (masks.hcus() != config_.hcus ||
      masks.input_hypercolumns() != config_.input_hypercolumns) {
    throw std::invalid_argument("BcpnnLayer::set_state: mask shape mismatch");
  }
  traces_ = traces;
  masks_ = masks;
  refresh_block_flags();
  recompute_weights();
}

std::vector<std::vector<float>> BcpnnLayer::mi_map() const {
  require_mutable("mi_map");
  return mutual_information_map(traces_, config_.input_bins, config_.hcus,
                                config_.mcus, config_.eps);
}

}  // namespace streambrain::core
