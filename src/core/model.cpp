#include "core/model.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/pruning.hpp"
#include "core/serialization.hpp"
#include "metrics/classification.hpp"
#include "util/log.hpp"

namespace streambrain::core {

Model& Model::input(std::size_t hypercolumns, std::size_t bins) {
  if (compiled()) throw std::logic_error("Model: input() after compile()");
  input_hypercolumns_ = hypercolumns;
  input_bins_ = bins;
  return *this;
}

Model& Model::hidden(std::size_t hcus, std::size_t mcus,
                     double receptive_field) {
  if (compiled()) throw std::logic_error("Model: hidden() after compile()");
  hidden_.push_back({hcus, mcus, receptive_field});
  return *this;
}

Model& Model::classifier(std::size_t classes, HeadType head) {
  if (compiled()) {
    throw std::logic_error("Model: classifier() after compile()");
  }
  classes_ = classes;
  head_ = head;
  return *this;
}

const std::vector<std::string>& Model::option_keys() {
  static const std::vector<std::string> keys = {
      "alpha",       "alpha_supervised", "batch_size",
      "epochs",      "head_epochs",      "inverse_temperature",
      "k_beta",      "noise_end",        "noise_start",
      "plasticity_swaps",                "prune_cadence",
      "prune_density"};
  return keys;
}

Model& Model::set_option(const std::string& key, double value) {
  if (compiled()) throw std::logic_error("Model: set_option() after compile()");
  const auto& keys = option_keys();
  if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
    std::ostringstream message;
    message << "Model::set_option: unknown key '" << key << "' (recognized:";
    for (const auto& known : keys) message << ' ' << known;
    message << ')';
    throw std::invalid_argument(message.str());
  }
  options_.set_double(key, value);
  return *this;
}

Model& Model::compile(const std::string& engine, std::uint64_t seed) {
  if (compiled()) throw std::logic_error("Model: already compiled");
  if (input_hypercolumns_ == 0 || input_bins_ == 0) {
    throw std::logic_error("Model: input() not declared");
  }
  if (hidden_.empty()) {
    throw std::logic_error("Model: no hidden layers");
  }
  engine_name_ = engine;
  seed_ = seed;

  NetworkConfig config;
  config.bcpnn.input_hypercolumns = input_hypercolumns_;
  config.bcpnn.input_bins = input_bins_;
  config.bcpnn.hcus = hidden_[0].hcus;
  config.bcpnn.mcus = hidden_[0].mcus;
  config.bcpnn.receptive_field = hidden_[0].receptive_field;
  config.bcpnn.engine = engine;
  config.bcpnn.seed = seed;
  if (hidden_.size() > 1) {
    // The deep schedule only consumes a subset of the option keys; reject
    // the rest instead of silently dropping a validated option.
    for (const char* key :
         {"alpha_supervised", "inverse_temperature", "k_beta", "noise_end",
          "plasticity_swaps", "prune_cadence", "prune_density"}) {
      if (options_.has(key)) {
        throw std::invalid_argument(
            std::string("Model: option '") + key +
            "' is not supported for deep (multi-hidden-layer) models");
      }
    }
    if (head_ == HeadType::kSgd) {
      // The hybrid read-out is only wired for the paper's three-layer
      // topology.
      throw std::invalid_argument(
          "Model: SGD head is only supported for single-hidden-layer "
          "models");
    }
    // A deep stack's own schedule defaults.
    config.bcpnn.epochs = 8;
    config.bcpnn.head_epochs = 16;
    config.stacked.assign(hidden_.begin() + 1, hidden_.end());
  }
  config.bcpnn.apply(options_);  // schedule overrides
  config.classes = classes_;
  config.head = head_;
  network_ = std::make_unique<Network>(std::move(config));
  return *this;
}

std::string Model::name() const {
  std::ostringstream out;
  out << "bcpnn(depth=" << hidden_.size() << ",head=" << head_name(head_)
      << ')';
  return out.str();
}

namespace {

/// Largest weight density across the network's components — the value
/// the sparsify guardrail judges, since the densest matrix dominates the
/// sparse path's throughput.
double max_component_density(const Network& network) {
  double density = network.head().weight_density();
  for (std::size_t l = 0; l < network.depth(); ++l) {
    density = std::max(density, network.layer(l).weight_density());
  }
  return density;
}

}  // namespace

Model Model::sparsify() const {
  if (!compiled()) {
    throw std::logic_error("Model: sparsify() before compile()");
  }
  Model replica = clone_model(*this);
  if (!replica.sparse()) {
    // Guardrail: at >= 25% density the CSR kernels measurably LOSE to
    // the dense GEMM path (BENCH_sparse.json) — proceed (the memory win
    // may still be the point) but say so. Prune first to go faster.
    const double density = max_component_density(*network_);
    if (sparsify_is_pessimization(density)) {
      SB_LOG_WARN() << "Model::sparsify: weight density "
                    << static_cast<int>(100.0 * density)
                    << "% is at or above the "
                    << static_cast<int>(100.0 * kSparsePessimizationDensity)
                    << "% threshold where sparse kernels are slower than "
                       "dense GEMM; prune_model() first (sparse replicas "
                       "still save memory)";
    }
    // Fresh dense clone (the checkpoint round-trip already made it an
    // independent object); convert its components in place.
    replica.network_->sparsify();
  }
  return replica;
}

bool Model::sparse() const noexcept {
  return network_ && network_->sparse();
}

Model Model::quantize(QuantOptions options) const {
  if (!compiled()) {
    throw std::logic_error("Model: quantize() before compile()");
  }
  Model replica = clone_model(*this);
  if (!replica.quantized()) {
    replica.network_->quantize(options.block_size);
  }
  return replica;
}

bool Model::quantized() const noexcept {
  return network_ && network_->quantized();
}

void Model::fit(const tensor::MatrixF& x, const std::vector<int>& labels) {
  if (!compiled()) throw std::logic_error("Model: fit() before compile()");
  if (quantized()) {
    throw std::logic_error(
        "Model: fit() on a quantized model (read-only inference form)");
  }
  if (sparse()) {
    throw std::logic_error(
        "Model: fit() on a sparsified model (read-only inference form)");
  }
  network_->fit(x, labels);
}

void Model::partial_fit(const tensor::MatrixF& x,
                        const std::vector<int>& labels) {
  if (!compiled()) {
    throw std::logic_error("Model: partial_fit() before compile()");
  }
  if (quantized()) {
    throw std::logic_error(
        "Model: partial_fit() on a quantized model (read-only inference "
        "form)");
  }
  if (sparse()) {
    throw std::logic_error(
        "Model: partial_fit() on a sparsified model (read-only inference "
        "form)");
  }
  network_->partial_fit(x, labels);
}

bool Model::supports_partial_fit() const {
  return network_ != nullptr && network_->depth() == 1 && !sparse() &&
         !quantized();
}

std::vector<int> Model::predict(const tensor::MatrixF& x) {
  if (!compiled()) throw std::logic_error("Model: predict() before compile()");
  return network_->predict(x);
}

std::vector<double> Model::predict_scores(const tensor::MatrixF& x) {
  if (!compiled()) throw std::logic_error("Model: predict() before compile()");
  return network_->predict_scores(x);
}

double Model::evaluate(const tensor::MatrixF& x,
                       const std::vector<int>& labels) {
  return metrics::accuracy(predict(x), labels);
}

void Model::save(const std::string& path) const {
  if (!compiled()) throw std::logic_error("Model: save() before compile()");
  save_model(path, *this);
}

void Model::load(const std::string& path) {
  if (compiled()) {
    throw std::logic_error("Model: load() requires an un-compiled model");
  }
  load_model(path, *this);
}

Network& Model::network() {
  if (!network_) {
    throw std::logic_error("Model::network(): model is not compiled");
  }
  return *network_;
}

const Network& Model::network() const {
  if (!network_) {
    throw std::logic_error("Model::network(): model is not compiled");
  }
  return *network_;
}

std::string Model::summary() const {
  std::ostringstream out;
  const char* state = "compiled";
  if (quantized()) {
    state = sparse() ? "compiled, quantized sparse read-only"
                     : "compiled, quantized read-only";
  } else if (sparse()) {
    state = "compiled, sparse read-only";
  }
  out << "Model (" << (compiled() ? state : "not compiled") << ")\n";
  out << "  input        : " << input_hypercolumns_ << " hypercolumns x "
      << input_bins_ << " units = " << input_hypercolumns_ * input_bins_
      << "\n";
  for (std::size_t l = 0; l < hidden_.size(); ++l) {
    out << "  hidden[" << l << "]    : " << hidden_[l].hcus << " HCUs x "
        << hidden_[l].mcus << " MCUs, receptive field "
        << static_cast<int>(100.0 * hidden_[l].receptive_field) << "%\n";
  }
  out << "  classifier   : " << classes_ << " classes, "
      << (head_ == HeadType::kBcpnn ? "BCPNN" : "SGD") << " head\n";
  return out.str();
}

}  // namespace streambrain::core
