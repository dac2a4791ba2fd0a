#include "core/classifier.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "core/pruning.hpp"
#include "tensor/kernels.hpp"

namespace streambrain::core {

BcpnnClassifier::BcpnnClassifier(std::size_t inputs, std::size_t input_hcs,
                                 std::size_t classes,
                                 parallel::Engine& engine, float alpha,
                                 float eps, float k_beta)
    : inputs_(inputs),
      classes_(classes),
      engine_(&engine),
      alpha_(alpha),
      eps_(eps),
      k_beta_(k_beta),
      traces_(inputs, input_hcs == 0 ? inputs : inputs / input_hcs, classes,
              classes),
      weights_(inputs, classes, 0.0f),
      bias_(classes, 0.0f) {
  if (classes < 2) {
    throw std::invalid_argument("BcpnnClassifier: need at least 2 classes");
  }
  recompute_weights();
}

void BcpnnClassifier::train_batch(const tensor::MatrixF& hidden,
                                  const tensor::MatrixF& targets) {
  require_mutable("train_batch");
  if (targets.cols() != classes_ || targets.rows() != hidden.rows()) {
    throw std::invalid_argument("BcpnnClassifier::train_batch: shape");
  }
  if (hidden.rows() == 0) return;
  traces_.learn(*engine_, hidden, targets, alpha_, eps_, k_beta_,
                weight_mask(), weights_, bias_.data());
}

void BcpnnClassifier::recompute_weights() {
  require_mutable("recompute_weights");
  engine_->recompute_weights(traces_.pi().data(), traces_.pj().data(),
                             traces_.pij(), eps_, k_beta_, weights_,
                             bias_.data());
  weight_mask().apply(weights_);
}

parallel::WeightMask BcpnnClassifier::weight_mask() const noexcept {
  return {.keep = prune_keep_.empty() ? nullptr : prune_keep_.data()};
}

void BcpnnClassifier::predict(const tensor::MatrixF& hidden,
                              tensor::MatrixF& probs) {
  if (store_) {
    store_->support(hidden, bias_.data(), probs);
  } else {
    engine_->support(hidden, weights_, bias_.data(), probs);
  }
  engine_->softmax_hcu(probs, classes_, 1.0f);
}

std::size_t BcpnnClassifier::prune_to_density(double density) {
  require_mutable("prune_to_density");
  prune_keep_ = magnitude_keep_mask(weights_.data(), weights_.size(), density);
  std::size_t dropped = 0;
  for (const std::uint8_t keep : prune_keep_) dropped += keep == 0;
  weight_mask().apply(weights_);
  return dropped;
}

void BcpnnClassifier::set_prune_mask(std::vector<std::uint8_t> mask) {
  require_mutable("set_prune_mask");
  if (!mask.empty() && mask.size() != weights_.size()) {
    throw std::invalid_argument(
        "BcpnnClassifier::set_prune_mask: size mismatch");
  }
  prune_keep_ = std::move(mask);
  weight_mask().apply(weights_);
}

double BcpnnClassifier::weight_density() const noexcept {
  if (store_) return store_->density();
  return nonzero_density(weights_);
}

void BcpnnClassifier::sparsify() {
  if (store_) {
    store_->sparsify();
    return;
  }
  freeze(tensor::WeightStore::from_dense(weights_), std::move(bias_));
}

void BcpnnClassifier::quantize(std::size_t block_size) {
  if (store_) {
    store_->quantize();
    return;
  }
  freeze(tensor::WeightStore::quantize_dense(weights_, block_size),
         std::move(bias_));
}

const tensor::WeightStore& BcpnnClassifier::inference_weights() const {
  if (!store_) {
    throw std::logic_error(
        "BcpnnClassifier::inference_weights: head is dense");
  }
  return *store_;
}

void BcpnnClassifier::adopt(tensor::WeightStore store,
                            std::vector<float> bias) {
  if (store.rows() != classes_ || store.cols() != inputs_ ||
      bias.size() != classes_) {
    throw std::invalid_argument("BcpnnClassifier::adopt: shape mismatch");
  }
  freeze(std::move(store), std::move(bias));
}

void BcpnnClassifier::freeze(tensor::WeightStore store,
                             std::vector<float> bias) {
  store_ = std::move(store);
  bias_ = std::move(bias);
  weights_ = tensor::MatrixF();
  scratch_ = tensor::MatrixF();
  traces_.release();
  prune_keep_.clear();
  prune_keep_.shrink_to_fit();
}

void BcpnnClassifier::require_mutable(const char* what) const {
  if (store_) {
    throw std::logic_error(std::string("BcpnnClassifier::") + what +
                           ": head is in the read-only " +
                           (quantized() ? "quantized" : "sparse") + " form");
  }
}

std::vector<int> BcpnnClassifier::predict_labels(
    const tensor::MatrixF& hidden) {
  predict(hidden, scratch_);
  std::vector<std::size_t> best(scratch_.rows());
  tensor::argmax_rows(scratch_, best.data());
  std::vector<int> labels(scratch_.rows());
  for (std::size_t r = 0; r < scratch_.rows(); ++r) {
    labels[r] = static_cast<int>(best[r]);
  }
  return labels;
}

std::vector<double> BcpnnClassifier::predict_scores(
    const tensor::MatrixF& hidden) {
  predict(hidden, scratch_);
  std::vector<double> scores(scratch_.rows());
  for (std::size_t r = 0; r < scratch_.rows(); ++r) {
    scores[r] = scratch_(r, 1);
  }
  return scores;
}

}  // namespace streambrain::core
