#pragma once
// The BCPNN layer stack: input -> hidden layer(s) -> classification. The
// paper's standard topology has one hidden layer; a taller stack is its
// future work ("use more HCUs and hybrid training", Section VII). The
// read-out is either a supervised BCPNN head ("pure BCPNN") or an SGD
// softmax-regression head ("BCPNN+SGD", Section V-A's best
// configuration).
//
// Training follows StreamBrain's layer-wise schedule: each hidden layer
// learns unsupervised in turn (annealed support noise, one structural-
// plasticity step per epoch) on the frozen code of the layer below, then
// the head is trained supervised on the frozen top representation.
// Between layers the code is the hard winner-take-all of each hypercolumn:
// a soft simplex spreads mass 1 over M minicolumns, which starves the next
// layer's support, while one active unit per hypercolumn is the code the
// BCPNN probability model is built on. The top code stays soft, since the
// head benefits from graded evidence.

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/classifier.hpp"
#include "core/head.hpp"
#include "core/hyperparams.hpp"
#include "core/layer.hpp"
#include "core/sgd_head.hpp"
#include "core/weights.hpp"
#include "parallel/engine.hpp"
#include "tensor/matrix.hpp"

namespace streambrain::core {

/// Geometry of one hidden layer stacked above the first.
struct LayerGeometry {
  std::size_t hcus = 1;
  std::size_t mcus = 100;
  double receptive_field = 0.4;
};

struct NetworkConfig {
  /// The first hidden layer, and the schedule every hidden layer shares.
  BcpnnConfig bcpnn;
  HeadType head = HeadType::kBcpnn;
  std::size_t classes = 2;
  SgdHeadConfig sgd;
  /// The hidden layers above the first, bottom to top. Each reads the
  /// hypercolumn geometry of the layer below. Empty: the paper's
  /// three-layer network.
  std::vector<LayerGeometry> stacked;
};

/// Per-epoch progress snapshot handed to the epoch callback (this is the
/// hook the CatalystAdaptor subscribes through).
struct EpochInfo {
  std::size_t layer = 0;       ///< hidden layer index, 0 at the bottom
  std::size_t epoch = 0;       ///< unsupervised epoch index
  float noise_std = 0.0f;      ///< annealed support noise this epoch
  std::size_t plasticity_swaps = 0;
};

struct FitReport {
  double unsupervised_seconds = 0.0;
  double head_seconds = 0.0;
  std::size_t total_plasticity_swaps = 0;
  [[nodiscard]] double total_seconds() const noexcept {
    return unsupervised_seconds + head_seconds;
  }
};

class Network {
 public:
  explicit Network(NetworkConfig config);

  using EpochCallback =
      std::function<void(const EpochInfo&, const BcpnnLayer&)>;
  void set_epoch_callback(EpochCallback callback) {
    epoch_callback_ = std::move(callback);
  }

  /// Full training schedule on encoded inputs + integer labels.
  FitReport fit(const tensor::MatrixF& x, const std::vector<int>& labels);

  /// One incremental step on a labeled mini-batch (streaming learning):
  /// a hidden train_batch at the annealed-schedule's final noise level,
  /// then one supervised pass of the head on the batch's hidden
  /// representation. No shuffling, no plasticity swap, no pruning —
  /// those remain epoch-cadence concerns of fit(). Safe to call on a
  /// fit()-trained network to keep refining it. Throws std::logic_error
  /// on a stack of several hidden layers, whose layer-wise schedule has
  /// no incremental counterpart.
  void partial_fit(const tensor::MatrixF& x, const std::vector<int>& labels);

  /// Phase 1 only: unsupervised training of every hidden layer on
  /// unlabeled rows (annealed noise + per-epoch structural plasticity),
  /// bottom to top, each on the winner-take-all code of the layer below.
  FitReport fit_unsupervised(const tensor::MatrixF& x);

  /// The greedy layer-wise schedule: calls `train(l, code)` for every
  /// hidden layer, bottom to top. `code` is `x` for layer 0 and, above
  /// it, the winner-take-all code of layer l-1 once train(l-1, ...) has
  /// returned. fit() and the distributed trainer plug their per-layer
  /// training in here. Returns the code the top layer trained on, for
  /// top_forward(); at depth 1 that code is `x`, and the result is empty.
  using LayerTrainer =
      std::function<void(std::size_t layer, const tensor::MatrixF& code)>;
  tensor::MatrixF train_layers(const tensor::MatrixF& x,
                               const LayerTrainer& train);

  /// Top hidden representation of a batch (deterministic forward).
  [[nodiscard]] tensor::MatrixF transform(const tensor::MatrixF& x);

  /// transform(x) from the code below the top that train_layers(x, ...)
  /// returned, so the layers under the top do not run again.
  [[nodiscard]] tensor::MatrixF top_forward(const tensor::MatrixF& x,
                                            const tensor::MatrixF& below);

  [[nodiscard]] std::vector<int> predict(const tensor::MatrixF& x);
  /// P(class == 1) per row, for AUC.
  [[nodiscard]] std::vector<double> predict_scores(const tensor::MatrixF& x);

  /// Number of hidden layers (1 in the paper's topology).
  [[nodiscard]] std::size_t depth() const noexcept { return layers_.size(); }
  /// Hidden layer `index`, 0 at the bottom.
  [[nodiscard]] const BcpnnLayer& layer(std::size_t index) const {
    return *layers_.at(index);
  }
  [[nodiscard]] BcpnnLayer& mutable_layer(std::size_t index) {
    return *layers_.at(index);
  }
  [[nodiscard]] const NetworkConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] parallel::Engine& engine() noexcept { return *engine_; }

  /// Train only the head on the frozen (e.g. distributed-trained) hidden
  /// layers. Exposed so the distributed path reuses the head logic.
  double fit_head(const tensor::MatrixF& x, const std::vector<int>& labels);

  /// Convert the hidden layers + head to the compact read-only sparse
  /// inference form (see Weights::sparsify). Irreversible; training
  /// entry points throw std::logic_error afterwards.
  void sparsify();

  [[nodiscard]] bool sparse() const noexcept;

  /// Convert the hidden layers + head to the int8 read-only quantized form
  /// (see Weights::quantize) — composable after sparsify().
  void quantize(std::size_t block_size);

  [[nodiscard]] bool quantized() const noexcept;

  /// The head's weights, whichever head type is configured.
  [[nodiscard]] Weights& head() noexcept {
    return bcpnn_head_ ? static_cast<Weights&>(*bcpnn_head_) : *sgd_head_;
  }
  [[nodiscard]] const Weights& head() const noexcept {
    return bcpnn_head_ ? static_cast<const Weights&>(*bcpnn_head_)
                       : *sgd_head_;
  }

  /// The head by type, for its training state; exactly one is non-null
  /// depending on the configured head type.
  [[nodiscard]] BcpnnClassifier* bcpnn_head() noexcept {
    return bcpnn_head_.get();
  }
  [[nodiscard]] const BcpnnClassifier* bcpnn_head() const noexcept {
    return bcpnn_head_.get();
  }
  [[nodiscard]] SgdHead* sgd_head() noexcept { return sgd_head_.get(); }
  [[nodiscard]] const SgdHead* sgd_head() const noexcept {
    return sgd_head_.get();
  }

 private:
  /// The epoch loop of one hidden layer over its input code `x`; returns
  /// the plasticity swaps it made.
  std::size_t train_layer(std::size_t index, const tensor::MatrixF& x);

  /// fit()'s phase 1: train_layers with train_layer, timed into
  /// `report`. Returns train_layers' code below the top.
  tensor::MatrixF train_hidden(const tensor::MatrixF& x, FitReport& report);

  /// The head's epochs over the top hidden representation.
  double train_head(const tensor::MatrixF& hidden_repr,
                    const std::vector<int>& labels);

  /// The code layer `index` hands the layer above: its forward pass of
  /// `in`, then winner-take-all in every hypercolumn.
  void propagate(std::size_t index, const tensor::MatrixF& in,
                 tensor::MatrixF& out);

  NetworkConfig config_;
  std::unique_ptr<parallel::Engine> engine_;
  util::Rng rng_;
  std::vector<std::unique_ptr<BcpnnLayer>> layers_;
  std::unique_ptr<BcpnnClassifier> bcpnn_head_;
  std::unique_ptr<SgdHead> sgd_head_;
  EpochCallback epoch_callback_;
};

}  // namespace streambrain::core
