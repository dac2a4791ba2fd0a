#include "core/pruning.hpp"

#include <stdexcept>

#include "core/model.hpp"

namespace streambrain::core {

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
  Network& network = model.network();
  for (std::size_t l = 0; l < network.depth(); ++l) {
    network.mutable_layer(l).prune_to_density(density);
  }
  network.head().prune_to_density(density);
}

}  // namespace streambrain::core
