#include "core/classifier.hpp"

#include <stdexcept>

#include "core/head.hpp"

namespace streambrain::core {

BcpnnClassifier::BcpnnClassifier(std::size_t inputs, std::size_t input_hcs,
                                 std::size_t classes,
                                 parallel::Engine& engine, float alpha,
                                 float eps, float k_beta)
    : Weights(inputs, classes, "BcpnnClassifier"),
      engine_(&engine),
      alpha_(alpha),
      eps_(eps),
      k_beta_(k_beta),
      traces_(inputs, input_hcs == 0 ? inputs : inputs / input_hcs, classes,
              classes) {
  if (classes < 2) {
    throw std::invalid_argument("BcpnnClassifier: need at least 2 classes");
  }
  recompute_weights();
}

void BcpnnClassifier::train_batch(const tensor::MatrixF& hidden,
                                  const tensor::MatrixF& targets) {
  require_mutable("train_batch");
  if (targets.cols() != classes() || targets.rows() != hidden.rows()) {
    throw std::invalid_argument("BcpnnClassifier::train_batch: shape");
  }
  if (hidden.rows() == 0) return;
  traces_.learn(*engine_, hidden, targets, alpha_, eps_, k_beta_,
                weight_mask(), mutable_weights(), mutable_bias().data());
}

void BcpnnClassifier::recompute_weights() {
  require_mutable("recompute_weights");
  engine_->recompute_weights(traces_.pi().data(), traces_.pj().data(),
                             traces_.pij(), eps_, k_beta_, mutable_weights(),
                             mutable_bias().data());
  weight_mask().apply(mutable_weights());
}

parallel::WeightMask BcpnnClassifier::weight_mask() const noexcept {
  return {.keep = keep()};
}

void BcpnnClassifier::predict(const tensor::MatrixF& hidden,
                              tensor::MatrixF& probs) {
  if (!read_only_support(hidden, probs)) {
    engine_->support(hidden, weights(), bias().data(), probs);
  }
  engine_->softmax_hcu(probs, classes(), 1.0f);
}

void BcpnnClassifier::release_trainable_state() noexcept {
  scratch_ = tensor::MatrixF();
  traces_.release();
}

std::vector<int> BcpnnClassifier::predict_labels(
    const tensor::MatrixF& hidden) {
  predict(hidden, scratch_);
  return predicted_labels(scratch_);
}

std::vector<double> BcpnnClassifier::predict_scores(
    const tensor::MatrixF& hidden) {
  predict(hidden, scratch_);
  return positive_scores(scratch_);
}

}  // namespace streambrain::core
