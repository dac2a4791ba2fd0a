// Tests for the Keras-style Model facade (StreamBrain's API design).

#include <gtest/gtest.h>

#include "core/model.hpp"
#include "data/higgs.hpp"
#include "encode/one_hot.hpp"
#include "metrics/roc.hpp"

namespace sc = streambrain::core;
namespace sd = streambrain::data;
namespace st = streambrain::tensor;

namespace {

struct Encoded {
  st::MatrixF x_train;
  st::MatrixF x_test;
  std::vector<int> y_train;
  std::vector<int> y_test;
};

Encoded higgs_data(std::size_t train, std::size_t test) {
  sd::SyntheticHiggsGenerator generator;
  const auto train_set = generator.generate(train);
  sd::HiggsGeneratorOptions opts;
  opts.seed = 4242;
  sd::SyntheticHiggsGenerator test_generator(opts);
  const auto test_set = test_generator.generate(test);
  streambrain::encode::OneHotEncoder encoder(10);
  return {encoder.fit_transform(train_set.features),
          encoder.transform(test_set.features), train_set.labels,
          test_set.labels};
}

}  // namespace

TEST(Model, BuilderLifecycleGuards) {
  sc::Model model;
  st::MatrixF x(1, 10);
  EXPECT_THROW(model.fit(x, {0}), std::logic_error);       // before compile
  EXPECT_THROW(model.predict(x), std::logic_error);
  EXPECT_THROW(model.compile(), std::logic_error);          // no input()
  model.input(28, 10);
  EXPECT_THROW(model.compile(), std::logic_error);          // no hidden()
  model.hidden(1, 20, 0.4).classifier(2);
  model.compile();
  EXPECT_TRUE(model.compiled());
  EXPECT_THROW(model.compile(), std::logic_error);          // double compile
  EXPECT_THROW(model.hidden(1, 5, 0.5), std::logic_error);  // mutate after
}

TEST(Model, ThreeLayerPaperTopologyTrains) {
  const auto data = higgs_data(1200, 400);
  sc::Model model;
  model.input(28, 10)
      .hidden(1, 50, 0.40)
      .classifier(2, sc::HeadType::kBcpnn)
      .set_option("epochs", 5)
      .compile("simd", 42);
  model.fit(data.x_train, data.y_train);
  EXPECT_GT(model.evaluate(data.x_test, data.y_test), 0.57);
}

TEST(Model, HybridSgdHead) {
  const auto data = higgs_data(1200, 400);
  sc::Model model;
  model.input(28, 10)
      .hidden(1, 50, 0.40)
      .classifier(2, sc::HeadType::kSgd)
      .set_option("epochs", 5)
      .compile("simd", 42);
  model.fit(data.x_train, data.y_train);
  const double auc =
      streambrain::metrics::auc(model.predict_scores(data.x_test),
                                data.y_test);
  EXPECT_GT(auc, 0.60);
}

TEST(Model, DeepStackViaRepeatedHidden) {
  const auto data = higgs_data(1500, 300);
  sc::Model model;
  model.input(28, 10)
      .hidden(2, 40, 0.40)
      .hidden(1, 40, 1.0)
      .classifier(2)
      .set_option("epochs", 8)
      .compile("simd", 5);
  model.fit(data.x_train, data.y_train);
  EXPECT_GT(model.evaluate(data.x_test, data.y_test), 0.53);
}

TEST(Model, DeepStackRejectsSgdHead) {
  sc::Model model;
  model.input(28, 10).hidden(2, 20, 0.4).hidden(1, 20, 1.0).classifier(
      2, sc::HeadType::kSgd);
  EXPECT_THROW(model.compile(), std::invalid_argument);
}

TEST(Model, SummaryDescribesTopology) {
  sc::Model model;
  model.input(28, 10).hidden(2, 300, 0.30).classifier(2);
  const std::string summary = model.summary();
  EXPECT_NE(summary.find("28 hypercolumns x 10 units"), std::string::npos);
  EXPECT_NE(summary.find("2 HCUs x 300 MCUs"), std::string::npos);
  EXPECT_NE(summary.find("receptive field 30%"), std::string::npos);
  EXPECT_NE(summary.find("BCPNN head"), std::string::npos);
}

TEST(Model, OptionsReachTheNetworkConfig) {
  sc::Model model;
  model.input(28, 10)
      .hidden(1, 30, 0.4)
      .classifier(2)
      .set_option("epochs", 3)
      .set_option("batch_size", 32)
      .compile("naive", 7);
  const auto& config = model.network().config().bcpnn;
  EXPECT_EQ(config.epochs, 3u);
  EXPECT_EQ(config.batch_size, 32u);
  EXPECT_EQ(config.engine, "naive");
  EXPECT_EQ(config.seed, 7u);
}

TEST(Model, NetworkAccessorGuards) {
  sc::Model model;
  EXPECT_THROW((void)model.network(), std::logic_error);
  model.input(28, 10).hidden(2, 10, 0.4).hidden(1, 12, 1.0).classifier(2);
  model.compile();
  // A deep model's network holds every hidden layer, each reading the
  // hypercolumn geometry of the one below, and a head over the top one.
  const sc::Network& network = model.network();
  ASSERT_EQ(network.depth(), 2u);
  EXPECT_EQ(network.layer(0).input_units(), 280u);
  EXPECT_EQ(network.layer(0).hidden_units(), 20u);  // 2 x 10
  EXPECT_EQ(network.layer(1).config().input_hypercolumns, 2u);
  EXPECT_EQ(network.layer(1).config().input_bins, 10u);
  EXPECT_EQ(network.layer(1).hidden_units(), 12u);
  ASSERT_NE(network.bcpnn_head(), nullptr);
  EXPECT_EQ(network.bcpnn_head()->inputs(), 12u);
}

TEST(Model, DeepStackDefaultsToItsOwnSchedule) {
  // With no epoch options a deep stack trains 8 unsupervised epochs per
  // layer and 16 head epochs, not the single layer's 12 and 24.
  sc::Model deep;
  deep.input(28, 10).hidden(2, 10, 0.4).hidden(1, 10, 1.0).classifier(2);
  deep.compile();
  sc::Network& network = deep.network();
  EXPECT_EQ(network.config().bcpnn.head_epochs, 16u);
  std::vector<std::size_t> epochs(network.depth(), 0);
  network.set_epoch_callback(
      [&epochs](const sc::EpochInfo& info, const sc::BcpnnLayer&) {
        ++epochs.at(info.layer);
      });
  const Encoded data = higgs_data(64, 1);
  deep.fit(data.x_train, data.y_train);
  EXPECT_EQ(epochs, (std::vector<std::size_t>{8, 8}));

  sc::Model shallow;
  shallow.input(28, 10).hidden(1, 10, 0.4).classifier(2).compile();
  EXPECT_EQ(shallow.network().config().bcpnn.epochs, 12u);
  EXPECT_EQ(shallow.network().config().bcpnn.head_epochs, 24u);
}

TEST(Model, SetOptionRejectsUnknownKeys) {
  sc::Model model;
  model.input(28, 10).hidden(1, 20, 0.4).classifier(2);
  try {
    model.set_option("learning_rate", 0.1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("learning_rate"), std::string::npos);
    EXPECT_NE(message.find("epochs"), std::string::npos)
        << "message should list the recognized keys: " << message;
  }
  // The post-compile guard still applies, and takes precedence.
  model.compile("naive", 1);
  EXPECT_THROW(model.set_option("alpha", 0.1), std::logic_error);
}

TEST(Model, NameDescribesTopologyAndHead) {
  sc::Model model;
  model.input(28, 10).hidden(2, 20, 0.4).hidden(1, 20, 1.0).classifier(2);
  EXPECT_EQ(model.name(), "bcpnn(depth=2,head=bcpnn)");
  sc::Model hybrid;
  hybrid.input(28, 10).hidden(1, 20, 0.4).classifier(2, sc::HeadType::kSgd);
  EXPECT_EQ(hybrid.name(), "bcpnn(depth=1,head=sgd)");
}

TEST(Model, DeepCompileRejectsShallowOnlyOptions) {
  sc::Model model;
  model.input(28, 10)
      .hidden(2, 10, 0.4)
      .hidden(1, 10, 1.0)
      .classifier(2)
      .set_option("k_beta", 2.0);  // recognized, but shallow-only
  try {
    model.compile();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("k_beta"), std::string::npos);
  }
  EXPECT_FALSE(model.compiled());
}
