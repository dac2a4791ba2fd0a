#include "core/sgd_head.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/pruning.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernels.hpp"

namespace streambrain::core {

SgdHead::SgdHead(std::size_t inputs, std::size_t classes, SgdHeadConfig config)
    : inputs_(inputs),
      classes_(classes),
      config_(config),
      current_lr_(config.learning_rate),
      weights_(inputs, classes, 0.0f),
      bias_(classes, 0.0f),
      velocity_(inputs, classes, 0.0f),
      bias_velocity_(classes, 0.0f),
      rng_(config.seed) {
  if (classes < 2) {
    throw std::invalid_argument("SgdHead: need at least 2 classes");
  }
  // Small symmetric init so momentum has gradients to work with.
  for (float& w : weights_) {
    w = static_cast<float>(rng_.normal(0.0, 0.01));
  }
}

void SgdHead::forward(const tensor::MatrixF& features,
                      tensor::MatrixF& probs) const {
  if (store_) {
    store_->support(features, bias_.data(), probs);
  } else {
    probs.resize(features.rows(), classes_);
    tensor::gemm(tensor::Transpose::kNo, tensor::Transpose::kNo, 1.0f,
                 features, weights_, 0.0f, probs);
    tensor::add_row_bias(probs, bias_.data());
  }
  tensor::softmax_blocks(probs, classes_);
}

double SgdHead::train_epoch(const tensor::MatrixF& features,
                            const tensor::MatrixF& targets) {
  require_mutable("train_epoch");
  if (features.rows() != targets.rows() || targets.cols() != classes_) {
    throw std::invalid_argument("SgdHead::train_epoch: shape mismatch");
  }
  const std::size_t n = features.rows();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng_.shuffle(order);

  tensor::MatrixF batch_x;
  tensor::MatrixF batch_t;
  tensor::MatrixF probs;
  tensor::MatrixF grad(weights_.rows(), classes_);
  std::vector<float> bias_grad(classes_);
  double total_loss = 0.0;
  std::size_t batches = 0;

  for (std::size_t start = 0; start < n; start += config_.batch_size) {
    const std::size_t end = std::min(start + config_.batch_size, n);
    const std::size_t b = end - start;
    batch_x.resize(b, features.cols());
    batch_t.resize(b, classes_);
    for (std::size_t r = 0; r < b; ++r) {
      std::copy_n(features.row(order[start + r]), features.cols(),
                  batch_x.row(r));
      std::copy_n(targets.row(order[start + r]), classes_, batch_t.row(r));
    }

    forward(batch_x, probs);

    // Cross-entropy loss + softmax gradient (probs - targets).
    for (std::size_t r = 0; r < b; ++r) {
      for (std::size_t c = 0; c < classes_; ++c) {
        if (batch_t(r, c) > 0.5f) {
          total_loss -= std::log(std::max(probs(r, c), 1e-12f));
        }
        probs(r, c) -= batch_t(r, c);
      }
    }
    ++batches;

    // grad = X^T (probs - targets) / b  (+ L2)
    tensor::gemm(tensor::Transpose::kYes, tensor::Transpose::kNo,
                 1.0f / static_cast<float>(b), batch_x, probs, 0.0f, grad);

    const float lr = current_lr_;
    const float l2 = config_.l2;
    const float mu = config_.momentum;
    tensor::momentum_update(mu, lr, l2, grad.data(), weights_.data(),
                            velocity_.data(), weights_.size());
    // Bias gradient: column means of (probs - targets), then the same
    // fused momentum kernel as the weights (l2 = 0 for biases).
    tensor::col_sums(probs, bias_grad.data());
    tensor::scale(1.0f / static_cast<float>(b), bias_grad.data(), classes_);
    tensor::momentum_update(mu, lr, 0.0f, bias_grad.data(), bias_.data(),
                            bias_velocity_.data(), classes_);
    apply_prune_mask();
  }
  current_lr_ *= config_.learning_rate_decay;
  return batches > 0 ? total_loss / static_cast<double>(n) : 0.0;
}

void SgdHead::apply_gradient(const tensor::MatrixF& grad,
                             const std::vector<float>& bias_grad) {
  require_mutable("apply_gradient");
  if (grad.rows() != weights_.rows() || grad.cols() != weights_.cols() ||
      bias_grad.size() != bias_.size()) {
    throw std::invalid_argument("SgdHead::apply_gradient: shape mismatch");
  }
  tensor::momentum_update(config_.momentum, current_lr_, config_.l2,
                          grad.data(), weights_.data(), velocity_.data(),
                          weights_.size());
  tensor::momentum_update(config_.momentum, current_lr_, 0.0f,
                          bias_grad.data(), bias_.data(),
                          bias_velocity_.data(), classes_);
  apply_prune_mask();
}

void SgdHead::set_parameters(const tensor::MatrixF& weights,
                             const std::vector<float>& bias) {
  require_mutable("set_parameters");
  if (weights.rows() != weights_.rows() || weights.cols() != weights_.cols() ||
      bias.size() != bias_.size()) {
    throw std::invalid_argument("SgdHead::set_parameters: shape mismatch");
  }
  weights_ = weights;
  bias_ = bias;
  apply_prune_mask();
}

void SgdHead::set_state(const tensor::MatrixF& weights,
                        const std::vector<float>& bias) {
  require_mutable("set_state");
  if (weights.rows() != weights_.rows() || weights.cols() != weights_.cols() ||
      bias.size() != bias_.size()) {
    throw std::invalid_argument("SgdHead::set_state: shape mismatch");
  }
  weights_ = weights;
  bias_ = bias;
  velocity_.fill(0.0f);
  std::fill(bias_velocity_.begin(), bias_velocity_.end(), 0.0f);
  apply_prune_mask();
}

std::size_t SgdHead::prune_to_density(double density) {
  require_mutable("prune_to_density");
  prune_keep_ = magnitude_keep_mask(weights_.data(), weights_.size(), density);
  std::size_t dropped = 0;
  for (const std::uint8_t keep : prune_keep_) dropped += keep == 0;
  apply_prune_mask();
  return dropped;
}

void SgdHead::set_prune_mask(std::vector<std::uint8_t> mask) {
  require_mutable("set_prune_mask");
  if (!mask.empty() && mask.size() != weights_.size()) {
    throw std::invalid_argument("SgdHead::set_prune_mask: size mismatch");
  }
  prune_keep_ = std::move(mask);
  apply_prune_mask();
}

void SgdHead::apply_prune_mask() {
  if (prune_keep_.empty()) return;
  float* w = weights_.data();
  float* v = velocity_.data();
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    if (prune_keep_[i] == 0) {
      w[i] = 0.0f;
      v[i] = 0.0f;
    }
  }
}

double SgdHead::weight_density() const noexcept {
  if (store_) return store_->density();
  return nonzero_density(weights_);
}

void SgdHead::sparsify() {
  if (store_) {
    store_->sparsify();
    return;
  }
  freeze(tensor::WeightStore::from_dense(weights_), std::move(bias_));
}

void SgdHead::quantize(std::size_t block_size) {
  if (store_) {
    store_->quantize();
    return;
  }
  freeze(tensor::WeightStore::quantize_dense(weights_, block_size),
         std::move(bias_));
}

const tensor::WeightStore& SgdHead::inference_weights() const {
  if (!store_) {
    throw std::logic_error("SgdHead::inference_weights: head is dense");
  }
  return *store_;
}

void SgdHead::adopt(tensor::WeightStore store, std::vector<float> bias) {
  if (store.rows() != classes_ || store.cols() != inputs_ ||
      bias.size() != classes_) {
    throw std::invalid_argument("SgdHead::adopt: shape mismatch");
  }
  freeze(std::move(store), std::move(bias));
}

void SgdHead::freeze(tensor::WeightStore store, std::vector<float> bias) {
  store_ = std::move(store);
  bias_ = std::move(bias);
  weights_ = tensor::MatrixF();
  velocity_ = tensor::MatrixF();
  bias_velocity_.clear();
  bias_velocity_.shrink_to_fit();
  prune_keep_.clear();
  prune_keep_.shrink_to_fit();
}

void SgdHead::require_mutable(const char* what) const {
  if (store_) {
    throw std::logic_error(std::string("SgdHead::") + what +
                           ": head is in the read-only " +
                           (quantized() ? "quantized" : "sparse") + " form");
  }
}

void SgdHead::predict(const tensor::MatrixF& features,
                      tensor::MatrixF& probs) const {
  forward(features, probs);
}

std::vector<int> SgdHead::predict_labels(const tensor::MatrixF& features) const {
  tensor::MatrixF probs;
  forward(features, probs);
  std::vector<std::size_t> best(probs.rows());
  tensor::argmax_rows(probs, best.data());
  std::vector<int> labels(probs.rows());
  for (std::size_t r = 0; r < probs.rows(); ++r) {
    labels[r] = static_cast<int>(best[r]);
  }
  return labels;
}

std::vector<double> SgdHead::predict_scores(
    const tensor::MatrixF& features) const {
  tensor::MatrixF probs;
  forward(features, probs);
  std::vector<double> scores(probs.rows());
  for (std::size_t r = 0; r < probs.rows(); ++r) scores[r] = probs(r, 1);
  return scores;
}

}  // namespace streambrain::core
