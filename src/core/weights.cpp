#include "core/weights.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

namespace streambrain::core {

namespace {

/// Keep-mask (1 = keep) over `n` weights retaining the
/// ceil(density * n) entries with the largest |w|.
std::vector<std::uint8_t> magnitude_keep_mask(const float* w, std::size_t n,
                                              double density) {
  if (density <= 0.0 || density > 1.0) {
    throw std::invalid_argument("prune_to_density: density not in (0,1]");
  }
  std::vector<std::uint8_t> keep(n, 1);
  if (n == 0 || density == 1.0) return keep;
  const std::size_t target = std::min<std::size_t>(
      n, static_cast<std::size_t>(
             std::ceil(density * static_cast<double>(n))));
  if (target == n) return keep;

  // Threshold = target-th largest magnitude; entries strictly above it
  // are always kept, the remaining quota is filled from the == threshold
  // ties in ascending index order (fully deterministic, so the golden
  // digests of pruned training are stable).
  std::vector<float> magnitudes(n);
  for (std::size_t i = 0; i < n; ++i) magnitudes[i] = std::abs(w[i]);
  std::nth_element(magnitudes.begin(), magnitudes.begin() + (target - 1),
                   magnitudes.end(), std::greater<float>());
  const float threshold = magnitudes[target - 1];

  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::abs(w[i]) > threshold) {
      ++kept;
    } else {
      keep[i] = 0;
    }
  }
  for (std::size_t i = 0; i < n && kept < target; ++i) {
    if (keep[i] == 0 && std::abs(w[i]) == threshold) {
      keep[i] = 1;
      ++kept;
    }
  }
  return keep;
}

}  // namespace

Weights::Weights(std::size_t inputs, std::size_t outputs,
                 const char* component)
    : component_(component),
      inputs_(inputs),
      outputs_(outputs),
      weights_(inputs, outputs, 0.0f),
      bias_(outputs, 0.0f) {}

std::size_t Weights::prune_to_density(double density) {
  require_mutable("prune_to_density");
  prune_keep_ = magnitude_keep_mask(weights_.data(), weights_.size(), density);
  apply_keep_mask();
  return static_cast<std::size_t>(
      std::count(prune_keep_.begin(), prune_keep_.end(), 0));
}

void Weights::set_prune_mask(std::vector<std::uint8_t> mask) {
  require_mutable("set_prune_mask");
  if (!mask.empty() && mask.size() != weights_.size()) {
    throw std::invalid_argument(std::string(component_) +
                                "::set_prune_mask: size mismatch");
  }
  prune_keep_ = std::move(mask);
  apply_keep_mask();
}

void Weights::apply_keep_mask(float* companion) {
  if (prune_keep_.empty()) return;
  float* w = weights_.data();
  for (std::size_t i = 0; i < prune_keep_.size(); ++i) {
    if (prune_keep_[i] == 0) {
      w[i] = 0.0f;
      if (companion != nullptr) companion[i] = 0.0f;
    }
  }
}

double Weights::weight_density() const noexcept {
  if (store_) return store_->density();
  if (weights_.empty()) return 1.0;
  const auto nnz = static_cast<double>(
      weights_.size() -
      static_cast<std::size_t>(
          std::count(weights_.begin(), weights_.end(), 0.0f)));
  return nnz / static_cast<double>(weights_.size());
}

void Weights::sparsify() {
  if (store_) {
    store_->sparsify();
    return;
  }
  freeze(tensor::WeightStore::from_dense(weights_), std::move(bias_));
}

void Weights::quantize(std::size_t block_size) {
  if (store_) {
    store_->quantize();
    return;
  }
  freeze(tensor::WeightStore::quantize_dense(weights_, block_size),
         std::move(bias_));
}

const tensor::WeightStore& Weights::inference_weights() const {
  if (!store_) {
    throw std::logic_error(std::string(component_) +
                           "::inference_weights: the weights are dense");
  }
  return *store_;
}

void Weights::adopt(tensor::WeightStore store, std::vector<float> bias) {
  if (store.rows() != outputs_ || store.cols() != inputs_ ||
      bias.size() != outputs_) {
    throw std::invalid_argument(std::string(component_) +
                                "::adopt: shape mismatch");
  }
  freeze(std::move(store), std::move(bias));
}

bool Weights::read_only_support(const tensor::MatrixF& x,
                                tensor::MatrixF& s) const {
  if (!store_) return false;
  store_->support(x, bias_.data(), s);
  return true;
}

void Weights::require_mutable(const char* what) const {
  if (store_) {
    throw std::logic_error(std::string(component_) + "::" + what +
                           ": the weights are in the read-only " +
                           (quantized() ? "quantized" : "sparse") + " form");
  }
}

void Weights::freeze(tensor::WeightStore store, std::vector<float> bias) {
  store_ = std::move(store);
  bias_ = std::move(bias);
  weights_ = tensor::MatrixF();
  prune_keep_.clear();
  prune_keep_.shrink_to_fit();
  release_trainable_state();
}

}  // namespace streambrain::core
