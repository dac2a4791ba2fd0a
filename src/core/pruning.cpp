#include "core/pruning.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/model.hpp"

namespace streambrain::core {

std::vector<std::uint8_t> magnitude_keep_mask(const float* w, std::size_t n,
                                              double density) {
  if (density <= 0.0 || density > 1.0) {
    throw std::invalid_argument("magnitude_keep_mask: density not in (0,1]");
  }
  std::vector<std::uint8_t> keep(n, 1);
  if (n == 0 || density == 1.0) return keep;
  const std::size_t target = std::min<std::size_t>(
      n, static_cast<std::size_t>(
             std::ceil(density * static_cast<double>(n))));
  if (target == n) return keep;

  // Threshold = target-th largest magnitude; entries strictly above it
  // are always kept, the remaining quota is filled from the == threshold
  // ties in ascending index order (fully deterministic, so the golden
  // digests of pruned training are stable).
  std::vector<float> magnitudes(n);
  for (std::size_t i = 0; i < n; ++i) magnitudes[i] = std::abs(w[i]);
  std::nth_element(magnitudes.begin(), magnitudes.begin() + (target - 1),
                   magnitudes.end(), std::greater<float>());
  const float threshold = magnitudes[target - 1];

  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::abs(w[i]) > threshold) {
      ++kept;
    } else {
      keep[i] = 0;
    }
  }
  for (std::size_t i = 0; i < n && kept < target; ++i) {
    if (keep[i] == 0 && std::abs(w[i]) == threshold) {
      keep[i] = 1;
      ++kept;
    }
  }
  return keep;
}

double nonzero_density(const tensor::MatrixF& weights) noexcept {
  if (weights.empty()) return 1.0;
  std::size_t nnz = 0;
  for (const float w : weights) nnz += w != 0.0f;
  return static_cast<double>(nnz) / static_cast<double>(weights.size());
}

void prune_model(Model& model, double density) {
  if (!model.compiled()) {
    throw std::logic_error("prune_model: model is not compiled");
  }
  if (model.quantized()) {
    throw std::logic_error(
        "prune_model: model is already in the quantized form; prune before "
        "quantize()");
  }
  if (model.sparse()) {
    throw std::logic_error(
        "prune_model: model is already in the sparse form; prune before "
        "sparsify()");
  }
  if (model.hidden_specs().size() == 1) {
    Network& network = model.network();
    network.mutable_hidden().prune_to_density(density);
    if (BcpnnClassifier* head = network.bcpnn_head()) {
      head->prune_to_density(density);
    } else if (SgdHead* head = network.sgd_head()) {
      head->prune_to_density(density);
    }
    return;
  }
  DeepBcpnn& deep = model.deep();
  for (std::size_t l = 0; l < deep.depth(); ++l) {
    deep.mutable_layer(l).prune_to_density(density);
  }
  deep.head().prune_to_density(density);
}

}  // namespace streambrain::core
