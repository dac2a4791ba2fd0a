#include "core/network.hpp"

#include <numeric>
#include <stdexcept>

#include "data/dataset.hpp"
#include "parallel/engine_registry.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernels.hpp"
#include "util/timer.hpp"

namespace streambrain::core {

Network::Network(NetworkConfig config)
    : config_(std::move(config)),
      engine_(parallel::EngineRegistry::instance().create(config_.bcpnn.engine)),
      rng_(config_.bcpnn.seed) {
  // Layer l reads the hypercolumn geometry of layer l-1's output. The
  // layers draw their masks from rng_ bottom to top, before the head.
  BcpnnConfig layer_config = config_.bcpnn;
  const auto add_layer = [&] {
    layer_config.validate();
    layers_.push_back(
        std::make_unique<BcpnnLayer>(layer_config, *engine_, rng_));
  };
  add_layer();
  for (const LayerGeometry& geometry : config_.stacked) {
    layer_config.input_hypercolumns = layer_config.hcus;
    layer_config.input_bins = layer_config.mcus;
    layer_config.hcus = geometry.hcus;
    layer_config.mcus = geometry.mcus;
    layer_config.receptive_field = geometry.receptive_field;
    add_layer();
  }
  if (config_.head == HeadType::kBcpnn) {
    bcpnn_head_ = std::make_unique<BcpnnClassifier>(
        layer_config.hidden_units(), layer_config.hcus, config_.classes,
        *engine_, config_.bcpnn.alpha_supervised, config_.bcpnn.eps,
        config_.bcpnn.k_beta);
  } else {
    SgdHeadConfig sgd = config_.sgd;
    sgd.batch_size = config_.bcpnn.batch_size;
    sgd_head_ = std::make_unique<SgdHead>(layer_config.hidden_units(),
                                          config_.classes, sgd);
  }
}

std::size_t Network::train_layer(std::size_t index, const tensor::MatrixF& x) {
  BcpnnLayer& layer = *layers_[index];
  const BcpnnConfig& cfg = layer.config();
  const std::size_t n = x.rows();
  std::size_t swaps = 0;
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  tensor::MatrixF batch;
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    const float progress =
        cfg.epochs > 1
            ? static_cast<float>(epoch) / static_cast<float>(cfg.epochs - 1)
            : 1.0f;
    const float noise =
        cfg.noise_start + (cfg.noise_end - cfg.noise_start) * progress;
    rng_.shuffle(order);
    for (std::size_t start = 0; start < n; start += cfg.batch_size) {
      const std::size_t end = std::min(start + cfg.batch_size, n);
      batch.resize(end - start, x.cols());
      for (std::size_t r = start; r < end; ++r) {
        std::copy_n(x.row(order[r]), x.cols(), batch.row(r - start));
      }
      layer.train_batch(batch, noise);
    }
    EpochInfo info;
    info.layer = index;
    info.epoch = epoch;
    info.noise_std = noise;
    info.plasticity_swaps = layer.plasticity_step();
    swaps += info.plasticity_swaps;
    // In-training prune/rewire cadence: re-select the magnitude keep-mask
    // right after the structural-plasticity step, so a swapped-in
    // connection competes for survival on its fresh weights.
    if (cfg.prune_cadence > 0 && cfg.prune_density < 1.0 &&
        (epoch + 1) % cfg.prune_cadence == 0) {
      layer.prune_to_density(cfg.prune_density);
    }
    if (epoch_callback_) epoch_callback_(info, layer);
  }
  return swaps;
}

tensor::MatrixF Network::train_layers(const tensor::MatrixF& x,
                                      const LayerTrainer& train) {
  tensor::MatrixF below;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const tensor::MatrixF& code = l == 0 ? x : below;
    train(l, code);
    if (l + 1 < layers_.size()) {
      tensor::MatrixF next;
      propagate(l, code, next);
      below = std::move(next);
    }
  }
  return below;
}

tensor::MatrixF Network::train_hidden(const tensor::MatrixF& x,
                                      FitReport& report) {
  util::Stopwatch unsup_watch;
  tensor::MatrixF below =
      train_layers(x, [&](std::size_t l, const tensor::MatrixF& code) {
        report.total_plasticity_swaps += train_layer(l, code);
      });
  report.unsupervised_seconds = unsup_watch.seconds();
  return below;
}

FitReport Network::fit_unsupervised(const tensor::MatrixF& x) {
  FitReport report;
  train_hidden(x, report);
  return report;
}

FitReport Network::fit(const tensor::MatrixF& x,
                       const std::vector<int>& labels) {
  if (x.rows() != labels.size()) {
    throw std::invalid_argument("Network::fit: rows != labels");
  }
  // Phase 1: unsupervised hidden layers; phase 2: supervised head on the
  // frozen representation, from the code phase 1 left below the top.
  FitReport report;
  const tensor::MatrixF below = train_hidden(x, report);
  util::Stopwatch head_watch;
  train_head(top_forward(x, below), labels);
  report.head_seconds = head_watch.seconds();
  return report;
}

double Network::fit_head(const tensor::MatrixF& x,
                         const std::vector<int>& labels) {
  return train_head(transform(x), labels);
}

double Network::train_head(const tensor::MatrixF& hidden_repr,
                           const std::vector<int>& labels) {
  const auto& cfg = config_.bcpnn;
  const tensor::MatrixF targets =
      data::one_hot_labels(labels, config_.classes);
  double last_loss = 0.0;
  const bool head_prune_cadence =
      cfg.prune_cadence > 0 && cfg.prune_density < 1.0;
  if (config_.head == HeadType::kSgd) {
    // The code is the same every epoch: collect its nonzero lists once.
    tensor::NonzeroRows code;
    const tensor::NonzeroRows* nonzeros =
        tensor::collect_sparse_rows(hidden_repr, code) ? &code : nullptr;
    for (std::size_t epoch = 0; epoch < cfg.head_epochs; ++epoch) {
      last_loss = sgd_head_->train_epoch(hidden_repr, nonzeros, targets);
      // Same prune/rewire cadence as the hidden layer (applied to either
      // head type): the mask pins pruned weights at zero between
      // re-selections.
      if (head_prune_cadence && (epoch + 1) % cfg.prune_cadence == 0) {
        sgd_head_->prune_to_density(cfg.prune_density);
      }
    }
    return last_loss;
  }
  // BCPNN head: batched trace updates over the epochs.
  const std::size_t n = hidden_repr.rows();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  tensor::MatrixF batch_h;
  tensor::MatrixF batch_t;
  for (std::size_t epoch = 0; epoch < cfg.head_epochs; ++epoch) {
    rng_.shuffle(order);
    for (std::size_t start = 0; start < n; start += cfg.batch_size) {
      const std::size_t end = std::min(start + cfg.batch_size, n);
      batch_h.resize(end - start, hidden_repr.cols());
      batch_t.resize(end - start, config_.classes);
      for (std::size_t r = start; r < end; ++r) {
        std::copy_n(hidden_repr.row(order[r]), hidden_repr.cols(),
                    batch_h.row(r - start));
        std::copy_n(targets.row(order[r]), config_.classes,
                    batch_t.row(r - start));
      }
      bcpnn_head_->train_batch(batch_h, batch_t);
    }
    if (head_prune_cadence && (epoch + 1) % cfg.prune_cadence == 0) {
      bcpnn_head_->prune_to_density(cfg.prune_density);
    }
  }
  return 0.0;
}

void Network::partial_fit(const tensor::MatrixF& x,
                          const std::vector<int>& labels) {
  if (layers_.size() > 1) {
    throw std::logic_error(
        "Network::partial_fit: a stack of hidden layers trains layer by "
        "layer; the greedy schedule has no incremental counterpart");
  }
  if (x.rows() != labels.size()) {
    throw std::invalid_argument("Network::partial_fit: rows != labels");
  }
  if (x.rows() == 0) return;
  // Hidden step at the schedule's terminal noise: a streaming batch
  // arrives "after" the annealing window, so it trains the way the last
  // fit() epoch did.
  layers_.front()->train_batch(x, config_.bcpnn.noise_end);
  const tensor::MatrixF hidden_repr = transform(x);
  const tensor::MatrixF targets =
      data::one_hot_labels(labels, config_.classes);
  if (config_.head == HeadType::kSgd) {
    sgd_head_->train_epoch(hidden_repr, targets);
  } else {
    bcpnn_head_->train_batch(hidden_repr, targets);
  }
}

void Network::propagate(std::size_t index, const tensor::MatrixF& in,
                        tensor::MatrixF& out) {
  BcpnnLayer& layer = *layers_.at(index);
  layer.forward(in, out);
  tensor::wta_blocks(out, layer.config().mcus);
}

tensor::MatrixF Network::transform(const tensor::MatrixF& x) {
  tensor::MatrixF below;
  for (std::size_t l = 0; l + 1 < layers_.size(); ++l) {
    tensor::MatrixF code;
    propagate(l, l == 0 ? x : below, code);
    below = std::move(code);
  }
  return top_forward(x, below);
}

tensor::MatrixF Network::top_forward(const tensor::MatrixF& x,
                                     const tensor::MatrixF& below) {
  tensor::MatrixF activations;
  layers_.back()->forward(layers_.size() == 1 ? x : below, activations);
  return activations;
}

std::vector<int> Network::predict(const tensor::MatrixF& x) {
  const tensor::MatrixF hidden_repr = transform(x);
  return config_.head == HeadType::kBcpnn
             ? bcpnn_head_->predict_labels(hidden_repr)
             : sgd_head_->predict_labels(hidden_repr);
}

std::vector<double> Network::predict_scores(const tensor::MatrixF& x) {
  const tensor::MatrixF hidden_repr = transform(x);
  return config_.head == HeadType::kBcpnn
             ? bcpnn_head_->predict_scores(hidden_repr)
             : sgd_head_->predict_scores(hidden_repr);
}

void Network::sparsify() {
  for (auto& layer : layers_) layer->sparsify();
  head().sparsify();
}

bool Network::sparse() const noexcept { return layers_.front()->sparse(); }

void Network::quantize(std::size_t block_size) {
  for (auto& layer : layers_) layer->quantize(block_size);
  head().quantize(block_size);
}

bool Network::quantized() const noexcept {
  return layers_.front()->quantized();
}

}  // namespace streambrain::core
