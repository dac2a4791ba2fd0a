// The weight life cycle every component shares through core::Weights: the
// hidden layer, the BCPNN classifier and the SGD head each convert to a
// read-only form (sparsify, quantize, or both), after which every training
// entry point of the component throws std::logic_error and the dense
// weights and keep-mask are gone; sparsify() after quantize() throws.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/classifier.hpp"
#include "core/layer.hpp"
#include "core/sgd_head.hpp"
#include "core/weights.hpp"
#include "parallel/engine_registry.hpp"
#include "tensor/matrix.hpp"
#include "util/rng.hpp"

namespace sc = streambrain::core;
namespace sp = streambrain::parallel;
namespace st = streambrain::tensor;
namespace su = streambrain::util;

namespace {

/// One component with the engine it runs on and its training entry points.
struct Subject {
  std::unique_ptr<sp::Engine> engine;
  std::unique_ptr<sc::Weights> weights;
  std::vector<std::pair<std::string, std::function<void()>>> training;
};

/// A one-hot batch over `hypercolumns` x `bins` units.
st::MatrixF one_hot_rows(std::size_t rows, std::size_t hypercolumns,
                         std::size_t bins) {
  st::MatrixF x(rows, hypercolumns * bins, 0.0f);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t h = 0; h < hypercolumns; ++h) {
      x(r, h * bins + (r + h) % bins) = 1.0f;
    }
  }
  return x;
}

Subject make_layer() {
  Subject subject;
  subject.engine = sp::EngineRegistry::instance().create("simd");
  sc::BcpnnConfig config;
  config.input_hypercolumns = 6;
  config.input_bins = 5;
  config.hcus = 2;
  config.mcus = 4;
  config.receptive_field = 0.5;
  su::Rng rng(3);
  auto layer = std::make_unique<sc::BcpnnLayer>(config, *subject.engine, rng);
  sc::BcpnnLayer* l = layer.get();
  const st::MatrixF x = one_hot_rows(8, 6, 5);
  l->train_batch(x, 1.0f);
  const sc::ProbabilityTraces traces = l->traces();
  const sc::ReceptiveFieldMasks masks = l->masks();
  subject.training = {
      {"train_batch", [l, x] { l->train_batch(x, 1.0f); }},
      {"forward_noisy",
       [l, x] {
         st::MatrixF activations;
         l->forward_noisy(x, activations, 1.0f);
       }},
      {"recompute_weights", [l] { l->recompute_weights(); }},
      {"plasticity_step", [l] { (void)l->plasticity_step(); }},
      {"set_state", [l, traces, masks] { l->set_state(traces, masks); }},
  };
  subject.weights = std::move(layer);
  return subject;
}

Subject make_classifier() {
  Subject subject;
  subject.engine = sp::EngineRegistry::instance().create("simd");
  auto head = std::make_unique<sc::BcpnnClassifier>(12, 3, 2,
                                                    *subject.engine, 0.1f);
  sc::BcpnnClassifier* h = head.get();
  const st::MatrixF hidden = one_hot_rows(8, 3, 4);
  st::MatrixF targets(8, 2, 0.0f);
  for (std::size_t r = 0; r < 8; ++r) targets(r, r % 2) = 1.0f;
  h->train_batch(hidden, targets);
  subject.training = {
      {"train_batch", [h, hidden, targets] { h->train_batch(hidden, targets); }},
      {"recompute_weights", [h] { h->recompute_weights(); }},
  };
  subject.weights = std::move(head);
  return subject;
}

Subject make_sgd_head() {
  Subject subject;
  auto head = std::make_unique<sc::SgdHead>(12, 2);
  sc::SgdHead* h = head.get();
  const st::MatrixF features = one_hot_rows(8, 3, 4);
  st::MatrixF targets(8, 2, 0.0f);
  for (std::size_t r = 0; r < 8; ++r) targets(r, r % 2) = 1.0f;
  (void)h->train_epoch(features, targets);
  const st::MatrixF weights = h->weights();
  const std::vector<float> bias = h->bias();
  const st::MatrixF grad(12, 2, 0.01f);
  const std::vector<float> bias_grad(2, 0.01f);
  subject.training = {
      {"train_epoch",
       [h, features, targets] { (void)h->train_epoch(features, targets); }},
      {"apply_gradient",
       [h, grad, bias_grad] { h->apply_gradient(grad, bias_grad); }},
      {"set_parameters",
       [h, weights, bias] { h->set_parameters(weights, bias); }},
      {"set_state", [h, weights, bias] { h->set_state(weights, bias); }},
  };
  subject.weights = std::move(head);
  return subject;
}

/// The entry points every component shares through Weights, added to its
/// own.
void add_pruning_entry_points(Subject& subject) {
  sc::Weights* w = subject.weights.get();
  const std::vector<std::uint8_t> mask(w->inputs() * w->outputs(), 1);
  subject.training.emplace_back("prune_to_density",
                                [w] { (void)w->prune_to_density(0.5); });
  subject.training.emplace_back("set_prune_mask",
                                [w, mask] { w->set_prune_mask(mask); });
}

using Factory = Subject (*)();

class WeightLifeCycle
    : public ::testing::TestWithParam<std::pair<const char*, Factory>> {
 protected:
  [[nodiscard]] Subject make() const {
    Subject subject = GetParam().second();
    add_pruning_entry_points(subject);
    return subject;
  }
};

TEST_P(WeightLifeCycle, ReadOnlyFormsRefuseEveryTrainingEntryPoint) {
  // Dense, every entry point trains: the throws below come from the
  // read-only form, not from a bad call.
  {
    Subject dense = make();
    for (const auto& [name, train] : dense.training) {
      EXPECT_NO_THROW(train()) << name << " while dense";
    }
  }

  using Conversion = std::function<void(sc::Weights&)>;
  const std::vector<std::pair<std::string, Conversion>> conversions = {
      {"sparsify", [](sc::Weights& w) { w.sparsify(); }},
      {"quantize", [](sc::Weights& w) { w.quantize(4); }},
      {"sparsify+quantize",
       [](sc::Weights& w) {
         w.sparsify();
         w.quantize(4);
       }},
  };
  for (const auto& [form, convert] : conversions) {
    Subject subject = make();
    sc::Weights& w = *subject.weights;
    (void)w.prune_to_density(0.5);
    ASSERT_TRUE(w.pruned());
    const std::size_t outputs = w.outputs();
    convert(w);
    EXPECT_TRUE(w.sparse() || w.quantized()) << form;
    EXPECT_TRUE(w.weights().empty()) << form << ": dense weights kept";
    EXPECT_FALSE(w.pruned()) << form << ": keep-mask kept";
    EXPECT_EQ(w.bias().size(), outputs) << form;
    EXPECT_EQ(w.inference_weights().rows(), outputs) << form;
    for (const auto& [name, train] : subject.training) {
      EXPECT_THROW(train(), std::logic_error) << name << " after " << form;
    }
    if (w.quantized()) {
      EXPECT_THROW(w.sparsify(), std::logic_error) << "sparsify after "
                                                   << form;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Components, WeightLifeCycle,
    ::testing::Values(std::make_pair("layer", &make_layer),
                      std::make_pair("classifier", &make_classifier),
                      std::make_pair("sgd_head", &make_sgd_head)),
    [](const ::testing::TestParamInfo<WeightLifeCycle::ParamType>& info) {
      return std::string(info.param.first);
    });

}  // namespace
