#pragma once
// The weights of one network component — a hidden layer, the BCPNN
// classifier or the SGD head — and their life cycle, written once for all
// three:
//
//   dense   --prune_to_density / set_prune_mask-->  dense, keep-mask pinned
//   dense   --sparsify()-->                         CsrMatrix
//   dense   --quantize(block_size)-->               QuantBlockMatrix
//   CSR     --quantize(block_size)-->               QuantCsr
//   (any)   --adopt(store, bias)-->                 the adopted store
//
// While dense, a component trains its [inputs x outputs] matrix and bias
// in place, under the keep-mask of the last prune. Every conversion is
// one-way: it installs the read-only tensor::WeightStore, frees the dense
// matrix and the keep-mask, and calls release_trainable_state() so the
// component frees its own training state (traces, momentum). From then on
// every training entry point throws std::logic_error (require_mutable).
//
// The components derive from Weights, so the code that walks a network's
// weights (serialization, prune_model, Model::sparsify's guardrail,
// Network::sparsify/quantize) takes a Weights& and never branches on the
// component type.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "tensor/matrix.hpp"
#include "tensor/weight_store.hpp"

namespace streambrain::core {

class Weights {
 public:
  virtual ~Weights() = default;

  /// The matrix shape; unlike weights().rows()/cols() it survives
  /// conversion.
  [[nodiscard]] std::size_t inputs() const noexcept { return inputs_; }
  [[nodiscard]] std::size_t outputs() const noexcept { return outputs_; }

  /// The dense [inputs x outputs] weights (empty once converted) and the
  /// [outputs] bias (kept by every form).
  [[nodiscard]] const tensor::MatrixF& weights() const noexcept {
    return weights_;
  }
  [[nodiscard]] const std::vector<float>& bias() const noexcept {
    return bias_;
  }

  // --- Structural pruning -------------------------------------------------
  /// Magnitude pruning: keep the `density` fraction of weights with the
  /// largest |w| (ties at the threshold go to the lower index), zero the
  /// rest, and pin the keep-mask, so no later update regrows a pruned
  /// weight until the next call re-selects the mask from the current
  /// magnitudes (the "rewire" half of the prune cadence). Returns the
  /// number of zeroed entries. density must be in (0, 1].
  std::size_t prune_to_density(double density);

  /// The element keep-mask, 1 = keep (empty when unpruned).
  [[nodiscard]] const std::vector<std::uint8_t>& prune_mask() const noexcept {
    return prune_keep_;
  }

  /// Adopt a checkpointed keep-mask (empty clears) and zero the weights it
  /// drops, so a loaded pruned model does not regrow them from its traces.
  /// Throws std::invalid_argument unless it has one byte per weight.
  void set_prune_mask(std::vector<std::uint8_t> mask);

  [[nodiscard]] bool pruned() const noexcept { return !prune_keep_.empty(); }

  /// Fraction of weight entries that are non-zero, in any form.
  [[nodiscard]] double weight_density() const noexcept;

  // --- Read-only inference forms ------------------------------------------
  /// Convert to fp32 CSR of W^T (only the entries the receptive-field
  /// masks and pruning left non-zero). Forward passes stay bit-identical
  /// at scalar dispatch. A no-op on the CSR form; throws std::logic_error
  /// once quantized (sparsify before quantize).
  void sparsify();

  /// Convert to int8: per-block symmetric codes of the dense weights, or
  /// per-row scales on the CSR form when already sparse. Idempotent.
  void quantize(std::size_t block_size);

  /// True for the fp32-CSR and the quantized-CSR forms.
  [[nodiscard]] bool sparse() const noexcept {
    return store_ && store_->sparse();
  }
  /// True for the two int8 forms.
  [[nodiscard]] bool quantized() const noexcept {
    return store_ && store_->quantized();
  }

  /// The read-only weights (W^T); throws std::logic_error while dense.
  [[nodiscard]] const tensor::WeightStore& inference_weights() const;

  /// Adopt deserialized read-only weights (the checkpoint read path),
  /// replacing any other form. Throws std::invalid_argument unless the
  /// store is [outputs x inputs] and the bias has outputs() entries.
  void adopt(tensor::WeightStore store, std::vector<float> bias);

 protected:
  /// `component` names the class in error messages. Dense weights and
  /// bias start at zero.
  Weights(std::size_t inputs, std::size_t outputs, const char* component);
  Weights(const Weights&) = default;
  Weights(Weights&&) = default;
  Weights& operator=(const Weights&) = default;
  Weights& operator=(Weights&&) = default;

  [[nodiscard]] tensor::MatrixF& mutable_weights() noexcept {
    return weights_;
  }
  [[nodiscard]] std::vector<float>& mutable_bias() noexcept { return bias_; }

  /// The keep-mask as the engines read it (parallel::WeightMask::keep):
  /// null when unpruned.
  [[nodiscard]] const std::uint8_t* keep() const noexcept {
    return prune_keep_.empty() ? nullptr : prune_keep_.data();
  }

  /// Zero every weight the keep-mask drops, and the same entries of
  /// `companion` (an array shaped like the weights) when given.
  void apply_keep_mask(float* companion = nullptr);

  /// S = X * W + bias through the read-only form; returns false, leaving
  /// S alone, while the weights are dense (the component's own dense
  /// forward runs then).
  bool read_only_support(const tensor::MatrixF& x, tensor::MatrixF& s) const;

  /// Throws std::logic_error naming `what` once the weights are read-only.
  void require_mutable(const char* what) const;

  /// Free the component's training state after a conversion.
  virtual void release_trainable_state() noexcept = 0;

 private:
  void freeze(tensor::WeightStore store, std::vector<float> bias);

  const char* component_;
  std::size_t inputs_;
  std::size_t outputs_;
  tensor::MatrixF weights_;  // [inputs x outputs]
  std::vector<float> bias_;  // [outputs]
  /// Keep-mask from prune_to_density (empty = no pruning); 1 = keep.
  std::vector<std::uint8_t> prune_keep_;
  /// Set once sparsify()/quantize()/adopt() ran: the only weight storage
  /// of the read-only form.
  std::optional<tensor::WeightStore> store_;
};

}  // namespace streambrain::core
