// Tests for stacks of several hidden layers (core::Network at depth > 1).

#include <gtest/gtest.h>

#include "core/model.hpp"
#include "core/network.hpp"
#include "data/higgs.hpp"
#include "encode/one_hot.hpp"
#include "metrics/classification.hpp"
#include "metrics/roc.hpp"

namespace sc = streambrain::core;
namespace sd = streambrain::data;
namespace sm = streambrain::metrics;
namespace st = streambrain::tensor;

namespace {

struct Data {
  st::MatrixF x_train;
  st::MatrixF x_test;
  std::vector<int> y_train;
  std::vector<int> y_test;
};

Data make_data(std::size_t train, std::size_t test) {
  sd::SyntheticHiggsGenerator generator;
  const auto train_set = generator.generate(train);
  sd::HiggsGeneratorOptions test_options;
  test_options.seed = 777;
  sd::SyntheticHiggsGenerator test_generator(test_options);
  const auto test_set = test_generator.generate(test);
  streambrain::encode::OneHotEncoder encoder(10);
  Data data;
  data.x_train = encoder.fit_transform(train_set.features);
  data.x_test = encoder.transform(test_set.features);
  data.y_train = train_set.labels;
  data.y_test = test_set.labels;
  return data;
}

sc::NetworkConfig small_deep() {
  sc::NetworkConfig config;
  config.bcpnn.input_hypercolumns = sd::kHiggsFeatures;
  config.bcpnn.input_bins = 10;
  config.bcpnn.hcus = 2;
  config.bcpnn.mcus = 40;
  config.bcpnn.receptive_field = 0.4;
  config.stacked = {{1, 40, 1.0}};
  config.bcpnn.epochs = 8;
  config.bcpnn.head_epochs = 16;
  config.bcpnn.seed = 5;
  return config;
}

}  // namespace

TEST(DeepStack, RejectsEmptyStackedLayer) {
  auto config = small_deep();
  config.stacked = {{0, 40, 1.0}};
  EXPECT_THROW(sc::Network network(config), std::invalid_argument);
  sc::Model model;
  model.input(28, 10).classifier(2);
  EXPECT_THROW(model.compile(), std::logic_error);  // no hidden layer
}

TEST(DeepStack, GeometryChainsAcrossLayers) {
  sc::Network network(small_deep());
  EXPECT_EQ(network.depth(), 2u);
  // Layer 0 consumes the encoded input.
  EXPECT_EQ(network.layer(0).input_units(), 280u);
  EXPECT_EQ(network.layer(0).hidden_units(), 80u);  // 2 x 40
  // Layer 1 consumes layer 0's hypercolumn geometry (2 HCs of 40 units).
  EXPECT_EQ(network.layer(1).input_units(), 80u);
  EXPECT_EQ(network.layer(1).hidden_units(), 40u);
}

TEST(DeepStack, TransformOutputsTopLayerSimplex) {
  const auto data = make_data(300, 50);
  sc::Network network(small_deep());
  network.fit(data.x_train, data.y_train);
  const auto top = network.transform(data.x_test);
  ASSERT_EQ(top.rows(), 50u);
  ASSERT_EQ(top.cols(), 40u);
  for (std::size_t r = 0; r < top.rows(); ++r) {
    float mass = 0.0f;
    for (std::size_t c = 0; c < top.cols(); ++c) {
      EXPECT_GE(top(r, c), 0.0f);
      mass += top(r, c);
    }
    EXPECT_NEAR(mass, 1.0f, 1e-4f);
  }
  // Below the top the code is one winner per hypercolumn.
  st::MatrixF code;
  network.train_layers(data.x_test,
                       [&code](std::size_t l, const st::MatrixF& input) {
                         if (l == 1) code = input;
                       });
  ASSERT_EQ(code.cols(), 80u);
  for (std::size_t r = 0; r < code.rows(); ++r) {
    for (std::size_t h = 0; h < 2; ++h) {
      float mass = 0.0f;
      for (std::size_t m = 0; m < 40; ++m) {
        const float v = code(r, h * 40 + m);
        EXPECT_TRUE(v == 0.0f || v == 1.0f);
        mass += v;
      }
      EXPECT_EQ(mass, 1.0f);
    }
  }
}

TEST(DeepStack, LearnsAboveChance) {
  const auto data = make_data(2000, 400);
  sc::Model model;
  model.input(sd::kHiggsFeatures, 10)
      .hidden(2, 40, 0.4)
      .hidden(1, 40, 1.0)
      .classifier(2)
      .compile("simd", /*seed=*/5);
  model.fit(data.x_train, data.y_train);
  EXPECT_GT(model.evaluate(data.x_test, data.y_test), 0.55);
  EXPECT_GT(sm::auc(model.predict_scores(data.x_test), data.y_test), 0.58);
}

TEST(DeepStack, FitRejectsShapeMismatch) {
  const auto data = make_data(50, 10);
  sc::Network network(small_deep());
  std::vector<int> short_labels(10, 0);
  EXPECT_THROW(network.fit(data.x_train, short_labels),
               std::invalid_argument);
}

TEST(DeepStack, SingleLayerStackStillWorks) {
  auto config = small_deep();
  config.bcpnn.hcus = 1;
  config.bcpnn.mcus = 30;
  config.stacked.clear();
  const auto data = make_data(800, 300);
  sc::Network network(config);
  network.fit(data.x_train, data.y_train);
  EXPECT_EQ(network.depth(), 1u);
  EXPECT_GT(sm::accuracy(network.predict(data.x_test), data.y_test), 0.55);
}
