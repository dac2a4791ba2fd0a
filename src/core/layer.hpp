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
//
// The weights, their pruning and their read-only forms live in the
// core::Weights base; the layer adds the traces and the receptive-field
// masks, and frees the traces when the weights convert.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/hyperparams.hpp"
#include "core/plasticity.hpp"
#include "core/traces.hpp"
#include "core/weights.hpp"
#include "parallel/engine.hpp"
#include "tensor/matrix.hpp"
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

class BcpnnLayer final : public Weights {
 public:
  /// `engine` must outlive the layer.
  BcpnnLayer(const BcpnnConfig& config, parallel::Engine& engine,
             util::Rng& rng);

  // --- Inference ---------------------------------------------------------
  /// Deterministic forward pass: activations = soft-WTA(support(x)).
  /// `x` is [batch x input_units()], activations resized to
  /// [batch x hidden_units()].
  void forward(const tensor::MatrixF& x, tensor::MatrixF& activations);

  /// Forward with additive Gaussian support noise (training-time only),
  /// drawn from the layer's own stream. With noise_std <= 0 it is
  /// forward().
  void forward_noisy(const tensor::MatrixF& x, tensor::MatrixF& activations,
                     float noise_std);

  /// The same with the noise drawn from `rng` (add_normal_noise's order):
  /// the distributed trainer's per-shard streams.
  void forward_noisy(const tensor::MatrixF& x, tensor::MatrixF& activations,
                     float noise_std, util::Rng& rng);

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
  void release_trainable_state() noexcept override;

  BcpnnConfig config_;
  parallel::Engine* engine_;
  util::Rng rng_;
  ProbabilityTraces traces_;
  ReceptiveFieldMasks masks_;
  /// masks_ as [input_hypercolumns x hcus] bytes, 1 = active.
  std::vector<std::uint8_t> block_active_;
  tensor::MatrixF noise_scratch_;
};

}  // namespace streambrain::core
