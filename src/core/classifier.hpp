#pragma once
// Supervised BCPNN classification layer — the output layer of the paper's
// three-layer (input -> hidden -> classification) network. Structurally a
// single hypercolumn with one minicolumn per class; learning uses the same
// local trace rule as the hidden layer but with the label one-hot as the
// training target ("BCPNN ... uses only supervised learning in the
// classification layer"). Its weights, pruning and read-only forms live
// in the core::Weights base; the head adds the traces.

#include <cstddef>
#include <vector>

#include "core/traces.hpp"
#include "core/weights.hpp"
#include "parallel/engine.hpp"
#include "tensor/matrix.hpp"

namespace streambrain::core {

class BcpnnClassifier final : public Weights {
 public:
  /// `inputs` is the hidden-layer width; the input side is treated as
  /// `input_hcs` hypercolumns of `inputs / input_hcs` units each.
  BcpnnClassifier(std::size_t inputs, std::size_t input_hcs,
                  std::size_t classes, parallel::Engine& engine, float alpha,
                  float eps = 1e-4f, float k_beta = 1.0f);

  /// One supervised batch: hidden activations + one-hot targets, through
  /// the engine's learn_batch. An empty batch changes nothing.
  void train_batch(const tensor::MatrixF& hidden,
                   const tensor::MatrixF& targets);

  /// Class probabilities, [batch x classes], rows sum to 1.
  void predict(const tensor::MatrixF& hidden, tensor::MatrixF& probs);

  /// Argmax class ids.
  [[nodiscard]] std::vector<int> predict_labels(const tensor::MatrixF& hidden);

  /// P(class == 1) per row — the binary-score view used for AUC.
  [[nodiscard]] std::vector<double> predict_scores(
      const tensor::MatrixF& hidden);

  [[nodiscard]] std::size_t classes() const noexcept { return outputs(); }
  /// Trace EMA rate — the distributed trainer replays the same update
  /// from externally reduced batch statistics.
  [[nodiscard]] float alpha() const noexcept { return alpha_; }
  [[nodiscard]] const ProbabilityTraces& traces() const noexcept {
    return traces_;
  }
  [[nodiscard]] ProbabilityTraces& mutable_traces() noexcept {
    return traces_;
  }

  /// Recompute weights and bias from the traces, keeping the keep-mask.
  void recompute_weights();

 private:
  /// The keep-mask as the engine reads it (the head has no block masks).
  [[nodiscard]] parallel::WeightMask weight_mask() const noexcept;
  void release_trainable_state() noexcept override;

  parallel::Engine* engine_;
  float alpha_;
  float eps_;
  float k_beta_;
  ProbabilityTraces traces_;
  tensor::MatrixF scratch_;
};

}  // namespace streambrain::core
