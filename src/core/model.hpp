#pragma once
// Keras-style model facade — StreamBrain's user-facing API design:
// "The StreamBrain interface (or language) is heavily inspired by Keras,
// where the user constructs the network layer-by-layer after finally
// calling the training function" (Section III-A).
//
//   Model model;
//   model.input(28, 10)                       // 28 features x 10 quantiles
//        .hidden(1, 300, 0.40)                // 1 HCU x 300 MCUs, RF 40%
//        .classifier(2, core::HeadType::kSgd) // BCPNN+SGD hybrid read-out
//        .compile("simd", /*seed=*/42);
//   model.fit(x_train, y_train);
//   double acc = model.evaluate(x_test, y_test);
//
// One hidden() call builds the paper's three-layer network; each further
// call stacks another hidden layer on the winner-take-all code of the one
// below (see Network). All hyper-parameters have paper defaults and can
// be overridden through set_option() before compile().
//
// Model implements the streambrain::Estimator contract, so it is
// interchangeable with the baselines in experiment drivers and can be
// snapshotted into an AsyncPredictor. save()/load() round-trip the full
// facade: topology, options, engine choice, and learned state.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/estimator.hpp"
#include "core/head.hpp"
#include "core/network.hpp"
#include "util/config.hpp"

namespace streambrain::core {

/// Knobs of Model::quantize().
struct QuantOptions {
  /// Weights per fp32 scale block of the dense int8 form, in
  /// [1, tensor::kMaxQuantBlock]. Smaller blocks track local weight
  /// magnitude more tightly (lower reconstruction error, more scale
  /// overhead: 4 bytes per block per output unit). Ignored by already-
  /// sparsified models, whose codes carry one scale per CSR row.
  std::size_t block_size = 32;
};

class Model final : public Estimator {
 public:
  Model() = default;

  /// Declare the encoded input geometry (hypercolumns x units each).
  Model& input(std::size_t hypercolumns, std::size_t bins);

  /// Append one hidden BCPNN layer.
  Model& hidden(std::size_t hcus, std::size_t mcus, double receptive_field);

  /// Set the classification layer.
  Model& classifier(std::size_t classes, HeadType head = HeadType::kBcpnn);

  /// Override schedule/learning options before compile(). Unknown keys
  /// are rejected with std::invalid_argument naming the key and the
  /// recognized set (see option_keys()). Keys alpha_supervised,
  /// inverse_temperature, k_beta, noise_end, plasticity_swaps,
  /// prune_cadence, and prune_density apply only to single-hidden-layer
  /// models; compile() rejects them for deep stacks instead of silently
  /// dropping them. A deep stack defaults to 8 unsupervised epochs per
  /// layer and 16 head epochs.
  Model& set_option(const std::string& key, double value);

  /// The recognized set of set_option() keys.
  [[nodiscard]] static const std::vector<std::string>& option_keys();

  /// Materialize the network. The engine name is resolved through
  /// parallel::EngineRegistry, so user-registered engines work here too.
  /// Throws std::logic_error if input() or hidden() were never called, or
  /// on a second compile.
  Model& compile(const std::string& engine = "simd", std::uint64_t seed = 1);

  [[nodiscard]] bool compiled() const noexcept { return network_ != nullptr; }

  // --- Estimator contract -------------------------------------------------

  /// "bcpnn(depth=D,head=H)" once the topology is declared.
  [[nodiscard]] std::string name() const override;

  /// Train (unsupervised hidden phase + supervised head phase).
  void fit(const tensor::MatrixF& x, const std::vector<int>& labels) override;

  /// Incremental step on one labeled mini-batch (see Network::
  /// partial_fit): streaming refinement of a compiled 3-layer model.
  /// Throws std::logic_error before compile(), on read-only inference
  /// forms (sparsified/quantized), and on deep stacks (whose layer-wise
  /// greedy schedule has no incremental counterpart).
  void partial_fit(const tensor::MatrixF& x,
                   const std::vector<int>& labels) override;

  /// True for a compiled, dense (non-sparse, non-quantized) 3-layer
  /// model — the states partial_fit() accepts.
  [[nodiscard]] bool supports_partial_fit() const override;

  [[nodiscard]] std::vector<int> predict(const tensor::MatrixF& x) override;
  [[nodiscard]] std::vector<double> predict_scores(
      const tensor::MatrixF& x) override;

  /// Test accuracy.
  [[nodiscard]] double evaluate(const tensor::MatrixF& x,
                                const std::vector<int>& labels) override;

  [[nodiscard]] bool supports_save() const override { return true; }

  /// Checkpoint the full facade (topology + options + engine + learned
  /// state). Requires a compiled model.
  void save(const std::string& path) const override;

  /// Restore a checkpoint written by save() into this (un-compiled)
  /// model: rebuilds the topology, compiles on the stored engine, and
  /// loads the learned state. Predictions reproduce the saved model
  /// bit-for-bit on the same engine.
  void load(const std::string& path) override;

  // --- Sparse inference form ----------------------------------------------

  /// Compact read-only sparse clone of this trained model: the clone's
  /// weights are compressed to CSR (only the entries the receptive-field
  /// masks and magnitude pruning left non-zero) and the probability
  /// traces — as large as the dense weights — are dropped entirely, so a
  /// serving replica costs a fraction of the dense clone and
  /// serve::ShardPool fits more shards per host. The clone predicts
  /// bit-identically (at scalar dispatch) to this model, serves through
  /// AsyncPredictor / ShardPool transparently, and
  /// round-trips through save()/load() as a version-3 checkpoint.
  /// fit()/load() on the clone throw std::logic_error. Prune first
  /// (core::prune_model or the prune_density/prune_cadence options) —
  /// sparsifying an unpruned model mostly stores the dense matrix as CSR.
  [[nodiscard]] Model sparsify() const;

  /// True when this model is a read-only sparse inference form.
  [[nodiscard]] bool sparse() const noexcept;

  // --- Quantized inference form ---------------------------------------------

  /// Compact read-only int8 clone of this trained model: weights become
  /// per-block symmetric int8 codes (tensor::QuantBlockMatrix of W^T),
  /// another ~4x replica shrink on top of the trace drop — or, when this
  /// model is already a sparse clone, int8 codes with per-row scales on
  /// the CSR index structure (tensor::QuantCsr), composing both wins:
  ///   model -> prune_model -> sparsify() -> quantize()
  /// The clone serves bit-stably through AsyncPredictor / ShardPool
  /// (the quantized kernels are bit-identical across dispatch tiers, so
  /// replica cloning and batch splits can never change results) and
  /// round-trips through save()/load() as a version-4
  /// checkpoint. fit()/load() on the clone throw std::logic_error;
  /// sparsify() after quantize() throws — order is prune, sparsify,
  /// quantize.
  [[nodiscard]] Model quantize(QuantOptions options = {}) const;

  /// True when this model is a read-only quantized inference form.
  [[nodiscard]] bool quantized() const noexcept;

  // --- Introspection ------------------------------------------------------

  /// Human-readable layer summary (Keras's model.summary()).
  [[nodiscard]] std::string summary() const;

  /// Access the underlying layer stack, at any depth (throws when the
  /// model is not compiled).
  [[nodiscard]] Network& network();
  [[nodiscard]] const Network& network() const;

  using HiddenSpec = LayerGeometry;

  [[nodiscard]] std::size_t input_hypercolumns() const noexcept {
    return input_hypercolumns_;
  }
  [[nodiscard]] std::size_t input_bins() const noexcept { return input_bins_; }
  [[nodiscard]] const std::vector<HiddenSpec>& hidden_specs() const noexcept {
    return hidden_;
  }
  [[nodiscard]] std::size_t classes() const noexcept { return classes_; }
  [[nodiscard]] HeadType head() const noexcept { return head_; }
  [[nodiscard]] const util::Config& options() const noexcept {
    return options_;
  }
  /// Engine name and seed passed to compile() (empty / 0 before compile).
  [[nodiscard]] const std::string& engine_name() const noexcept {
    return engine_name_;
  }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  std::size_t input_hypercolumns_ = 0;
  std::size_t input_bins_ = 0;
  std::vector<HiddenSpec> hidden_;
  std::size_t classes_ = 2;
  HeadType head_ = HeadType::kBcpnn;
  util::Config options_;
  std::string engine_name_;
  std::uint64_t seed_ = 0;

  std::unique_ptr<Network> network_;
};

}  // namespace streambrain::core
