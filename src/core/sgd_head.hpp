#pragma once
// SGD-trained softmax-regression read-out head. Combined with the
// unsupervised BCPNN hidden layer this is the paper's hybrid
// "BCPNN+SGD" configuration, its best result (69.15% accuracy /
// 76.4% AUC on the Higgs task). Its weights, pruning and read-only forms
// live in the core::Weights base; the head adds the momentum buffers, and
// an update zeroes the pruned entries of both after every step.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/weights.hpp"
#include "tensor/gemm.hpp"
#include "tensor/matrix.hpp"
#include "util/rng.hpp"

namespace streambrain::core {

struct SgdHeadConfig {
  float learning_rate = 0.1f;
  float learning_rate_decay = 0.97f;  ///< multiplicative, per epoch
  float momentum = 0.9f;
  float l2 = 1e-4f;
  std::size_t batch_size = 64;
  std::uint64_t seed = 3;
};

class SgdHead final : public Weights {
 public:
  SgdHead(std::size_t inputs, std::size_t classes, SgdHeadConfig config = {});

  /// One epoch of minibatch SGD over (features, one-hot targets), in a
  /// deterministic shuffled order. Returns mean cross-entropy loss.
  double train_epoch(const tensor::MatrixF& features,
                     const tensor::MatrixF& targets);

  /// train_epoch for a caller that trains many epochs on one feature
  /// matrix and collects its nonzero lists once: `nonzeros` holds them
  /// when tensor::collect_sparse_rows(features) returned true, and is
  /// nullptr when it returned false. Batches then multiply the lists of
  /// their rows, or dense rows through tensor::gemm_blocked; the bits are
  /// the same either way.
  double train_epoch(const tensor::MatrixF& features,
                     const tensor::NonzeroRows* nonzeros,
                     const tensor::MatrixF& targets);

  /// Class probabilities, [batch x classes].
  void predict(const tensor::MatrixF& features, tensor::MatrixF& probs) const;

  [[nodiscard]] std::vector<int> predict_labels(
      const tensor::MatrixF& features) const;
  [[nodiscard]] std::vector<double> predict_scores(
      const tensor::MatrixF& features) const;

  [[nodiscard]] std::size_t classes() const noexcept { return outputs(); }
  [[nodiscard]] const SgdHeadConfig& config() const noexcept { return config_; }

  // --- Distributed-training hooks ---------------------------------------
  /// Apply one momentum step from an externally reduced mean gradient —
  /// the same update train_epoch performs per batch, exposed so the
  /// data-parallel trainer can reduce gradients across ranks first.
  void apply_gradient(const tensor::MatrixF& grad,
                      const std::vector<float>& bias_grad);

  /// Per-epoch learning-rate decay (train_epoch applies this internally).
  void end_epoch() noexcept { current_lr_ *= config_.learning_rate_decay; }

  /// Overwrite parameters mid-training, keeping the momentum buffers
  /// (unlike set_state, which zeroes them) — used by the cadence-mode
  /// trainer when averaging replicated weights across ranks.
  void set_parameters(const tensor::MatrixF& weights,
                      const std::vector<float>& bias);

  /// Restore trained parameters (momentum buffers reset to zero).
  void set_state(const tensor::MatrixF& weights,
                 const std::vector<float>& bias);

 private:
  void release_trainable_state() noexcept override;

  SgdHeadConfig config_;
  float current_lr_;
  tensor::MatrixF velocity_;   // momentum buffer, same shape as weights
  std::vector<float> bias_velocity_;
  util::Rng rng_;
};

}  // namespace streambrain::core
