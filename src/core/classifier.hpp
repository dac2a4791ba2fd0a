#pragma once
// Supervised BCPNN classification layer — the output layer of the paper's
// three-layer (input -> hidden -> classification) network. Structurally a
// single hypercolumn with one minicolumn per class; learning uses the same
// local trace rule as the hidden layer but with the label one-hot as the
// training target ("BCPNN ... uses only supervised learning in the
// classification layer").

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/traces.hpp"
#include "parallel/engine.hpp"
#include "tensor/matrix.hpp"
#include "tensor/weight_store.hpp"

namespace streambrain::core {

class BcpnnClassifier {
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

  [[nodiscard]] std::size_t classes() const noexcept { return classes_; }
  /// Input (hidden-layer) width; unlike traces().inputs() it survives
  /// sparsify()/quantize().
  [[nodiscard]] std::size_t inputs() const noexcept { return inputs_; }
  /// Trace EMA rate — the distributed trainer replays the same update
  /// from externally reduced batch statistics.
  [[nodiscard]] float alpha() const noexcept { return alpha_; }
  [[nodiscard]] const ProbabilityTraces& traces() const noexcept {
    return traces_;
  }
  [[nodiscard]] ProbabilityTraces& mutable_traces() noexcept {
    return traces_;
  }
  /// Recomputed bias term (checkpointed directly for the sparse form,
  /// where the traces it derives from are gone).
  [[nodiscard]] const std::vector<float>& bias() const noexcept {
    return bias_;
  }

  void recompute_weights();

  // --- Structural pruning -------------------------------------------------
  /// Magnitude-based element pruning with a pinned keep-mask that
  /// survives recompute_weights() (re-applied after every trace update).
  /// Returns the number of zeroed entries.
  std::size_t prune_to_density(double density);

  [[nodiscard]] bool pruned() const noexcept { return !prune_keep_.empty(); }

  /// Checkpointing access: the element keep-mask (empty when unpruned).
  [[nodiscard]] const std::vector<std::uint8_t>& prune_mask() const noexcept {
    return prune_keep_;
  }

  /// Adopt a checkpointed keep-mask (empty clears) and re-apply it.
  void set_prune_mask(std::vector<std::uint8_t> mask);

  /// Fraction of weight entries currently non-zero.
  [[nodiscard]] double weight_density() const noexcept;

  // --- Read-only inference forms --------------------------------------------
  /// Convert to the compact read-only sparse form: weights to CSR
  /// (transposed), dense weights and traces freed. predict paths keep
  /// working bit-identically at scalar dispatch; training throws
  /// afterwards. Same contract as BcpnnLayer::sparsify.
  void sparsify();

  /// Int8 read-only form (per-block over dense weights, per-row over an
  /// existing CSR form); same contract as BcpnnLayer::quantize.
  void quantize(std::size_t block_size);

  [[nodiscard]] bool sparse() const noexcept {
    return store_ && store_->sparse();
  }
  [[nodiscard]] bool quantized() const noexcept {
    return store_ && store_->quantized();
  }

  /// The read-only weights (W^T); throws std::logic_error while dense.
  [[nodiscard]] const tensor::WeightStore& inference_weights() const;

  /// Adopt deserialized read-only weights (checkpoint read path); throws
  /// std::invalid_argument unless the store is [classes x inputs].
  void adopt(tensor::WeightStore store, std::vector<float> bias);

 private:
  /// The keep-mask as the engine reads it (the head has no block masks).
  [[nodiscard]] parallel::WeightMask weight_mask() const noexcept;
  void require_mutable(const char* what) const;
  /// Install the read-only weights and free the trainable state.
  void freeze(tensor::WeightStore store, std::vector<float> bias);

  std::size_t inputs_;
  std::size_t classes_;
  parallel::Engine* engine_;
  float alpha_;
  float eps_;
  float k_beta_;
  ProbabilityTraces traces_;
  tensor::MatrixF weights_;
  std::vector<float> bias_;
  tensor::MatrixF scratch_;
  /// Keep-mask from prune_to_density (empty = no pruning); 1 = keep.
  std::vector<std::uint8_t> prune_keep_;
  /// Set once sparsify()/quantize()/adopt() ran.
  std::optional<tensor::WeightStore> store_;
};

}  // namespace streambrain::core
