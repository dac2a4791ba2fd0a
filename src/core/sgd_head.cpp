#include "core/sgd_head.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/head.hpp"
#include "tensor/kernels.hpp"

namespace streambrain::core {

SgdHead::SgdHead(std::size_t inputs, std::size_t classes, SgdHeadConfig config)
    : Weights(inputs, classes, "SgdHead"),
      config_(config),
      current_lr_(config.learning_rate),
      velocity_(inputs, classes, 0.0f),
      bias_velocity_(classes, 0.0f),
      rng_(config.seed) {
  if (classes < 2) {
    throw std::invalid_argument("SgdHead: need at least 2 classes");
  }
  // Small symmetric init so momentum has gradients to work with.
  for (float& w : mutable_weights()) {
    w = static_cast<float>(rng_.normal(0.0, 0.01));
  }
}

void SgdHead::predict(const tensor::MatrixF& features,
                      tensor::MatrixF& probs) const {
  if (!read_only_support(features, probs)) {
    probs.resize(features.rows(), classes());
    tensor::gemm(tensor::Transpose::kNo, tensor::Transpose::kNo, 1.0f,
                 features, weights(), 0.0f, probs);
    tensor::add_row_bias(probs, bias().data());
  }
  tensor::softmax_blocks(probs, classes());
}

namespace {

// The lists of rows[0, count) of `code`, in that order.
void gather_rows(const tensor::NonzeroRows& code, const std::size_t* rows,
                 std::size_t count, tensor::NonzeroRows& out) {
  out.row_ptr.assign(1, 0);
  out.col_idx.clear();
  out.values.clear();
  for (std::size_t r = 0; r < count; ++r) {
    const std::uint64_t begin = code.row_ptr[rows[r]];
    const std::uint64_t end = code.row_ptr[rows[r] + 1];
    out.col_idx.insert(out.col_idx.end(), code.col_idx.begin() + begin,
                       code.col_idx.begin() + end);
    out.values.insert(out.values.end(), code.values.begin() + begin,
                      code.values.begin() + end);
    out.row_ptr.push_back(out.col_idx.size());
  }
}

}  // namespace

double SgdHead::train_epoch(const tensor::MatrixF& features,
                            const tensor::MatrixF& targets) {
  tensor::NonzeroRows code;
  return train_epoch(features,
                     tensor::collect_sparse_rows(features, code) ? &code
                                                                 : nullptr,
                     targets);
}

double SgdHead::train_epoch(const tensor::MatrixF& features,
                            const tensor::NonzeroRows* nonzeros,
                            const tensor::MatrixF& targets) {
  require_mutable("train_epoch");
  if (features.rows() != targets.rows() || targets.cols() != classes() ||
      features.cols() != inputs() ||
      (nonzeros != nullptr && nonzeros->rows() != features.rows())) {
    throw std::invalid_argument("SgdHead::train_epoch: shape mismatch");
  }
  const std::size_t n = features.rows();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng_.shuffle(order);

  // A batch is its rows' nonzero lists (and, for the gradient, their
  // transpose) when `nonzeros` is given, else a copy of its dense rows.
  tensor::NonzeroRows batch_rows;
  tensor::NonzeroRows batch_cols;
  tensor::MatrixF batch_x;
  tensor::MatrixF batch_t;
  tensor::MatrixF probs;
  tensor::MatrixF grad(inputs(), classes());
  std::vector<float> bias_grad(classes());
  double total_loss = 0.0;
  std::size_t batches = 0;

  for (std::size_t start = 0; start < n; start += config_.batch_size) {
    const std::size_t end = std::min(start + config_.batch_size, n);
    const std::size_t b = end - start;
    const std::size_t* rows = order.data() + start;
    batch_t.resize(b, classes());
    for (std::size_t r = 0; r < b; ++r) {
      std::copy_n(targets.row(rows[r]), classes(), batch_t.row(r));
    }
    if (nonzeros != nullptr) {
      gather_rows(*nonzeros, rows, b, batch_rows);
    } else {
      batch_x.resize(b, features.cols());
      for (std::size_t r = 0; r < b; ++r) {
        std::copy_n(features.row(rows[r]), features.cols(), batch_x.row(r));
      }
    }

    // Forward: the softmax of X W + bias.
    probs.resize(b, classes());
    if (nonzeros != nullptr) {
      tensor::gemm_nonzero_rows(1.0f, batch_rows, weights(), 0.0f, probs);
    } else {
      tensor::gemm_blocked(tensor::Transpose::kNo, tensor::Transpose::kNo,
                           1.0f, batch_x, weights(), 0.0f, probs);
    }
    tensor::add_row_bias(probs, bias().data());
    tensor::softmax_blocks(probs, classes());

    // Cross-entropy loss + softmax gradient (probs - targets).
    for (std::size_t r = 0; r < b; ++r) {
      for (std::size_t c = 0; c < classes(); ++c) {
        if (batch_t(r, c) > 0.5f) {
          total_loss -= std::log(std::max(probs(r, c), 1e-12f));
        }
        probs(r, c) -= batch_t(r, c);
      }
    }
    ++batches;

    // grad = X^T (probs - targets) / b  (+ L2)
    const float inv_b = 1.0f / static_cast<float>(b);
    if (nonzeros != nullptr) {
      tensor::transpose_nonzero_rows(batch_rows, inputs(), batch_cols);
      tensor::gemm_nonzero_rows(inv_b, batch_cols, probs, 0.0f, grad);
    } else {
      tensor::gemm_blocked(tensor::Transpose::kYes, tensor::Transpose::kNo,
                           inv_b, batch_x, probs, 0.0f, grad);
    }

    const float lr = current_lr_;
    const float l2 = config_.l2;
    const float mu = config_.momentum;
    tensor::momentum_update(mu, lr, l2, grad.data(), mutable_weights().data(),
                            velocity_.data(), velocity_.size());
    // Bias gradient: column means of (probs - targets), then the same
    // fused momentum kernel as the weights (l2 = 0 for biases).
    tensor::col_sums(probs, bias_grad.data());
    tensor::scale(inv_b, bias_grad.data(), classes());
    tensor::momentum_update(mu, lr, 0.0f, bias_grad.data(),
                            mutable_bias().data(), bias_velocity_.data(),
                            classes());
    apply_keep_mask(velocity_.data());
  }
  current_lr_ *= config_.learning_rate_decay;
  return batches > 0 ? total_loss / static_cast<double>(n) : 0.0;
}

void SgdHead::apply_gradient(const tensor::MatrixF& grad,
                             const std::vector<float>& bias_grad) {
  require_mutable("apply_gradient");
  if (grad.rows() != inputs() || grad.cols() != classes() ||
      bias_grad.size() != classes()) {
    throw std::invalid_argument("SgdHead::apply_gradient: shape mismatch");
  }
  tensor::momentum_update(config_.momentum, current_lr_, config_.l2,
                          grad.data(), mutable_weights().data(),
                          velocity_.data(), velocity_.size());
  tensor::momentum_update(config_.momentum, current_lr_, 0.0f,
                          bias_grad.data(), mutable_bias().data(),
                          bias_velocity_.data(), classes());
  apply_keep_mask(velocity_.data());
}

void SgdHead::set_parameters(const tensor::MatrixF& weights,
                             const std::vector<float>& bias) {
  require_mutable("set_parameters");
  if (weights.rows() != inputs() || weights.cols() != classes() ||
      bias.size() != classes()) {
    throw std::invalid_argument("SgdHead::set_parameters: shape mismatch");
  }
  mutable_weights() = weights;
  mutable_bias() = bias;
  apply_keep_mask(velocity_.data());
}

void SgdHead::set_state(const tensor::MatrixF& weights,
                        const std::vector<float>& bias) {
  set_parameters(weights, bias);
  velocity_.fill(0.0f);
  std::fill(bias_velocity_.begin(), bias_velocity_.end(), 0.0f);
}

void SgdHead::release_trainable_state() noexcept {
  velocity_ = tensor::MatrixF();
  bias_velocity_.clear();
  bias_velocity_.shrink_to_fit();
}

std::vector<int> SgdHead::predict_labels(const tensor::MatrixF& features) const {
  tensor::MatrixF probs;
  predict(features, probs);
  return predicted_labels(probs);
}

std::vector<double> SgdHead::predict_scores(
    const tensor::MatrixF& features) const {
  tensor::MatrixF probs;
  predict(features, probs);
  return positive_scores(probs);
}

}  // namespace streambrain::core
