#include "core/layer.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/pruning.hpp"

namespace streambrain::core {

BcpnnLayer::BcpnnLayer(const BcpnnConfig& config, parallel::Engine& engine,
                       util::Rng& rng)
    : config_(config),
      engine_(&engine),
      rng_(rng.split()),
      traces_(config.input_units(), config.input_bins, config.hidden_units(),
              config.mcus),
      masks_(config.hcus, config.input_hypercolumns,
             config.mask_cardinality(), rng),
      weights_(config.input_units(), config.hidden_units(), 0.0f),
      bias_(config.hidden_units(), 0.0f) {
  config_.validate();
  recompute_weights();
}

void BcpnnLayer::forward(const tensor::MatrixF& x,
                         tensor::MatrixF& activations) {
  if (x.cols() != input_units()) {
    throw std::invalid_argument("BcpnnLayer::forward: input width mismatch");
  }
  if (store_) {
    store_->support(x, bias_.data(), activations);
  } else {
    engine_->support(x, weights_, bias_.data(), activations);
  }
  engine_->softmax_hcu(activations, config_.mcus, config_.inverse_temperature);
}

void BcpnnLayer::forward_noisy(const tensor::MatrixF& x,
                               tensor::MatrixF& activations, float noise_std) {
  if (noise_std <= 0.0f) {
    forward(x, activations);
    return;
  }
  require_mutable("forward_noisy");
  engine_->support(x, weights_, bias_.data(), activations);
  for (float& v : activations) {
    v += static_cast<float>(rng_.normal(0.0, noise_std));
  }
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
  forward_noisy(x, noise_scratch_, noise_std);
  traces_.update(*engine_, x, noise_scratch_, config_.alpha);
  recompute_weights();
}

void BcpnnLayer::recompute_weights() {
  require_mutable("recompute_weights");
  engine_->recompute_weights(traces_.pi().data(), traces_.pj().data(),
                             traces_.pij(), config_.eps, config_.k_beta,
                             weights_, bias_.data());
  apply_masks();
}

void BcpnnLayer::apply_masks() {
  // A silent connection contributes nothing to the support: zero the
  // weight block (all input units of hypercolumn i) x (all MCUs of HCU h).
  const std::size_t bins = config_.input_bins;
  const std::size_t mcus = config_.mcus;
#pragma omp parallel for schedule(static) collapse(2)
  for (std::size_t h = 0; h < config_.hcus; ++h) {
    for (std::size_t i = 0; i < config_.input_hypercolumns; ++i) {
      if (masks_.active(h, i)) continue;
      for (std::size_t bi = 0; bi < bins; ++bi) {
        float* w_row = weights_.row(i * bins + bi);
        for (std::size_t bj = 0; bj < mcus; ++bj) {
          w_row[h * mcus + bj] = 0.0f;
        }
      }
    }
  }
  // Element-level magnitude pruning rides on top of the block masks: the
  // keep-mask survives every weight recomputation until re-pruned.
  if (!prune_keep_.empty()) {
    float* w = weights_.data();
    const std::size_t n = weights_.size();
#pragma omp parallel for schedule(static)
    for (std::size_t i = 0; i < n; ++i) {
      if (prune_keep_[i] == 0) w[i] = 0.0f;
    }
  }
}

std::size_t BcpnnLayer::prune_to_density(double density) {
  require_mutable("prune_to_density");
  prune_keep_ = magnitude_keep_mask(weights_.data(), weights_.size(), density);
  std::size_t dropped = 0;
  for (const std::uint8_t keep : prune_keep_) dropped += keep == 0;
  apply_masks();
  return dropped;
}

void BcpnnLayer::clear_pruning() {
  require_mutable("clear_pruning");
  prune_keep_.clear();
  prune_keep_.shrink_to_fit();
  recompute_weights();
}

void BcpnnLayer::set_prune_mask(std::vector<std::uint8_t> mask) {
  require_mutable("set_prune_mask");
  if (!mask.empty() && mask.size() != weights_.size()) {
    throw std::invalid_argument("BcpnnLayer::set_prune_mask: size mismatch");
  }
  prune_keep_ = std::move(mask);
  apply_masks();
}

double BcpnnLayer::weight_density() const noexcept {
  if (store_) return store_->density();
  return nonzero_density(weights_);
}

void BcpnnLayer::sparsify() {
  if (store_) {
    store_->sparsify();
    return;
  }
  freeze(tensor::WeightStore::from_dense(weights_), std::move(bias_));
}

void BcpnnLayer::quantize(std::size_t block_size) {
  if (store_) {
    store_->quantize();
    return;
  }
  freeze(tensor::WeightStore::quantize_dense(weights_, block_size),
         std::move(bias_));
}

const tensor::WeightStore& BcpnnLayer::inference_weights() const {
  if (!store_) {
    throw std::logic_error("BcpnnLayer::inference_weights: layer is dense");
  }
  return *store_;
}

void BcpnnLayer::adopt(tensor::WeightStore store, std::vector<float> bias) {
  if (store.rows() != hidden_units() || store.cols() != input_units() ||
      bias.size() != hidden_units()) {
    throw std::invalid_argument("BcpnnLayer::adopt: shape mismatch");
  }
  freeze(std::move(store), std::move(bias));
}

void BcpnnLayer::freeze(tensor::WeightStore store, std::vector<float> bias) {
  store_ = std::move(store);
  bias_ = std::move(bias);
  weights_ = tensor::MatrixF();
  noise_scratch_ = tensor::MatrixF();
  traces_.release();
  prune_keep_.clear();
  prune_keep_.shrink_to_fit();
}

void BcpnnLayer::require_mutable(const char* what) const {
  if (store_) {
    throw std::logic_error(std::string("BcpnnLayer::") + what +
                           ": layer is in the read-only " +
                           (quantized() ? "quantized" : "sparse") + " form");
  }
}

std::size_t BcpnnLayer::plasticity_step() {
  require_mutable("plasticity_step");
  PlasticityConfig plasticity;
  plasticity.swaps_per_hcu = config_.plasticity_swaps;
  plasticity.hysteresis = config_.plasticity_hysteresis;
  const std::size_t swaps = structural_plasticity_step(
      masks_, traces_, config_.input_bins, config_.mcus, config_.eps,
      plasticity);
  if (swaps > 0) recompute_weights();
  return swaps;
}

void BcpnnLayer::set_state(const ProbabilityTraces& traces,
                           const ReceptiveFieldMasks& masks) {
  require_mutable("set_state");
  if (traces.inputs() != traces_.inputs() ||
      traces.outputs() != traces_.outputs()) {
    throw std::invalid_argument("BcpnnLayer::set_state: trace shape mismatch");
  }
  traces_ = traces;
  masks_ = masks;
  recompute_weights();
}

std::vector<std::vector<float>> BcpnnLayer::mi_map() const {
  require_mutable("mi_map");
  return mutual_information_map(traces_, config_.input_bins, config_.hcus,
                                config_.mcus, config_.eps);
}

}  // namespace streambrain::core
