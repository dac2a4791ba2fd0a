#pragma once
// The unsupervised BCPNN hidden layer: HCU/MCU geometry, soft-WTA
// activation, local trace learning, Bayesian weight recomputation, and
// structural plasticity over the receptive-field masks.
//
// Learning is fully local (Section II-A): a batch update touches only the
// layer's own traces; nothing propagates backward. The layer is
// unsupervised — its training target is its own (noise-perturbed)
// activation, with the noise annealed to zero over the training schedule
// so minicolumns first explore and then commit to features.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/hyperparams.hpp"
#include "core/plasticity.hpp"
#include "core/traces.hpp"
#include "parallel/engine.hpp"
#include "tensor/matrix.hpp"
#include "tensor/weight_store.hpp"
#include "util/rng.hpp"

namespace streambrain::core {

/// values[i] += float(rng.normal(0.0, stddev)) for every i in [0, n), in
/// order, bit for bit: the uniforms are drawn here in stream order (and
/// the cached normal taken and left exactly as those calls would), and
/// the Box-Muller math of the pairs runs in row panels on up to `threads`
/// threads. The result does not depend on `threads`.
void add_normal_noise(util::Rng& rng, float* values, std::size_t n,
                      float stddev, std::size_t threads);

/// The same over every entry of `values`, at parallel::task_count tasks.
void add_normal_noise(util::Rng& rng, tensor::MatrixF& values, float stddev);

class BcpnnLayer {
 public:
  /// `engine` must outlive the layer.
  BcpnnLayer(const BcpnnConfig& config, parallel::Engine& engine,
             util::Rng& rng);

  // --- Inference ---------------------------------------------------------
  /// Deterministic forward pass: activations = soft-WTA(support(x)).
  /// `x` is [batch x input_units()], activations resized to
  /// [batch x hidden_units()].
  void forward(const tensor::MatrixF& x, tensor::MatrixF& activations);

  /// Forward with additive Gaussian support noise (training-time only).
  void forward_noisy(const tensor::MatrixF& x, tensor::MatrixF& activations,
                     float noise_std);

  // --- Learning ----------------------------------------------------------
  /// One unsupervised batch: noisy forward, then the engine's learn_batch
  /// (trace EMA update, weight recomputation, masks). This is the inner
  /// loop the engines accelerate. An empty batch changes nothing.
  void train_batch(const tensor::MatrixF& x, float noise_std);

  /// Recompute weights and biases from the traces and re-apply the masks.
  void recompute_weights();

  /// One structural-plasticity step (call once per epoch). Returns the
  /// number of connection swaps performed.
  std::size_t plasticity_step();

  /// Override the per-epoch swap budget (used by the adaptive-plasticity
  /// controller, the paper's future-work extension).
  void set_plasticity_swaps(std::size_t swaps) noexcept {
    config_.plasticity_swaps = swaps;
  }

  // --- Structural pruning --------------------------------------------------
  /// Magnitude-based element pruning: keep the `density` fraction of
  /// weight entries with the largest |w| (deterministic tie-break by
  /// ascending index), zero the rest, and remember the keep-mask so it
  /// survives every subsequent recompute_weights(). Calling it again
  /// re-selects the mask from the current magnitudes (the "rewire" half
  /// of the in-training prune/rewire cadence). Returns the number of
  /// zeroed entries. density must be in (0, 1].
  std::size_t prune_to_density(double density);

  /// Drop the element keep-mask (the receptive-field masks stay).
  void clear_pruning();

  /// Checkpointing access: the element keep-mask (empty when unpruned).
  [[nodiscard]] const std::vector<std::uint8_t>& prune_mask() const noexcept {
    return prune_keep_;
  }

  /// Adopt a checkpointed keep-mask (empty clears) and re-apply it —
  /// without this, loading a pruned model would silently regrow the
  /// pruned weights from the traces. Throws on size mismatch.
  void set_prune_mask(std::vector<std::uint8_t> mask);

  /// True when an element keep-mask is active.
  [[nodiscard]] bool pruned() const noexcept { return !prune_keep_.empty(); }

  /// Fraction of weight entries currently non-zero.
  [[nodiscard]] double weight_density() const noexcept;

  // --- Read-only inference forms ------------------------------------------
  /// Convert to the compact read-only sparse form: compress the (masked,
  /// pruned) weights to CSR (transposed: one sparse row per hidden unit),
  /// then free the dense weights AND the probability traces.
  /// forward()/forward_spiking() keep working bit-identically (at scalar
  /// dispatch) through the sparse kernels; every training entry point
  /// throws std::logic_error afterwards. Irreversible; throws
  /// std::logic_error once quantized (sparsify before quantize).
  void sparsify();

  /// Convert to the int8 read-only form: per-block symmetric quantization
  /// of the dense weights, or of the CSR values (per-row scales) when the
  /// layer already sparsified. Frees the trainable state like sparsify().
  /// Irreversible and idempotent.
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

  /// Adopt deserialized read-only weights (checkpoint read path). Shape
  /// checked against the layer geometry (std::invalid_argument); replaces
  /// any other weight form and frees the trainable state.
  void adopt(tensor::WeightStore store, std::vector<float> bias);

  /// Spiking forward pass — BCPNN's spiking model of computation
  /// (Section II: "supports both spiking- and rate-based models").
  /// Each HCU emits one categorical spike per timestep drawn from its
  /// soft-WTA distribution; activations are normalized spike counts and
  /// converge to the rate-based forward() as timesteps grows.
  void forward_spiking(const tensor::MatrixF& x, tensor::MatrixF& activations,
                       std::size_t timesteps);

  // --- Introspection -------------------------------------------------------
  [[nodiscard]] const BcpnnConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t input_units() const noexcept {
    return config_.input_units();
  }
  [[nodiscard]] std::size_t hidden_units() const noexcept {
    return config_.hidden_units();
  }
  [[nodiscard]] const ReceptiveFieldMasks& masks() const noexcept {
    return masks_;
  }
  [[nodiscard]] const ProbabilityTraces& traces() const noexcept {
    return traces_;
  }
  [[nodiscard]] ProbabilityTraces& mutable_traces() noexcept {
    return traces_;
  }
  [[nodiscard]] const tensor::MatrixF& weights() const noexcept {
    return weights_;
  }
  [[nodiscard]] const std::vector<float>& bias() const noexcept {
    return bias_;
  }
  /// MI map used by the last plasticity step (for visualization).
  [[nodiscard]] std::vector<std::vector<float>> mi_map() const;

  /// Overwrite traces and masks (used by the distributed trainer to adopt
  /// the synchronized state); recomputes the weights. Throws
  /// std::invalid_argument when a shape differs from the layer's.
  void set_state(const ProbabilityTraces& traces,
                 const ReceptiveFieldMasks& masks);

 private:
  /// The receptive-field masks and the keep-mask, as the engine reads them.
  [[nodiscard]] parallel::WeightMask weight_mask() const noexcept;
  /// Flatten masks_ into block_active_; called whenever masks_ changes.
  void refresh_block_flags();
  void require_mutable(const char* what) const;
  /// Install the read-only weights and free the trainable state.
  void freeze(tensor::WeightStore store, std::vector<float> bias);

  BcpnnConfig config_;
  parallel::Engine* engine_;
  util::Rng rng_;
  ProbabilityTraces traces_;
  ReceptiveFieldMasks masks_;
  /// masks_ as [input_hypercolumns x hcus] bytes, 1 = active.
  std::vector<std::uint8_t> block_active_;
  tensor::MatrixF weights_;   // [input_units x hidden_units]
  std::vector<float> bias_;   // [hidden_units]
  tensor::MatrixF noise_scratch_;
  /// Element keep-mask from prune_to_density (empty = no pruning);
  /// weights_.size() bytes, 1 = keep. Part of weight_mask().
  std::vector<std::uint8_t> prune_keep_;
  /// Set once sparsify()/quantize()/adopt() ran: the only weight
  /// storage of the read-only inference form.
  std::optional<tensor::WeightStore> store_;
};

}  // namespace streambrain::core
