// Tests for the paper's extension features: semi-supervised training and
// the spiking forward mode (§II).

#include <gtest/gtest.h>

#include <cmath>

#include "core/network.hpp"
#include "core/semi_supervised.hpp"
#include "data/higgs.hpp"
#include "encode/one_hot.hpp"
#include "metrics/classification.hpp"
#include "parallel/engine_registry.hpp"
#include "util/rng.hpp"

namespace sc = streambrain::core;
namespace sd = streambrain::data;
namespace sm = streambrain::metrics;
namespace sp = streambrain::parallel;
namespace st = streambrain::tensor;
namespace su = streambrain::util;

namespace {

struct EncodedHiggs {
  st::MatrixF x_train;
  st::MatrixF x_test;
  std::vector<int> y_train;
  std::vector<int> y_test;
};

EncodedHiggs encoded_higgs(std::size_t train, std::size_t test,
                           std::uint64_t seed) {
  sd::HiggsGeneratorOptions options;
  options.seed = seed;
  sd::SyntheticHiggsGenerator generator(options);
  const auto train_set = generator.generate(train);
  const auto test_set = generator.generate(test);
  streambrain::encode::OneHotEncoder encoder(10);
  EncodedHiggs out;
  out.x_train = encoder.fit_transform(train_set.features);
  out.x_test = encoder.transform(test_set.features);
  out.y_train = train_set.labels;
  out.y_test = test_set.labels;
  return out;
}

sc::NetworkConfig small_network() {
  sc::NetworkConfig config;
  config.bcpnn.input_hypercolumns = sd::kHiggsFeatures;
  config.bcpnn.input_bins = 10;
  config.bcpnn.hcus = 1;
  config.bcpnn.mcus = 40;
  config.bcpnn.receptive_field = 0.4;
  config.bcpnn.epochs = 5;
  config.bcpnn.head_epochs = 12;
  config.bcpnn.seed = 3;
  return config;
}

}  // namespace

// ----------------------------------------------------- semi-supervised ----

TEST(SemiSupervised, CountsLabeledAndUnlabeled) {
  const auto data = encoded_higgs(400, 100, 21);
  auto labels = data.y_train;
  for (std::size_t i = 0; i < labels.size(); i += 2) {
    labels[i] = sc::kUnlabeled;
  }
  sc::Network network(small_network());
  const auto report = sc::fit_semi_supervised(network, data.x_train, labels);
  EXPECT_EQ(report.labeled_examples + report.unlabeled_examples,
            labels.size());
  EXPECT_EQ(report.labeled_examples, labels.size() / 2);
}

TEST(SemiSupervised, LearnsFromFewLabels) {
  const auto data = encoded_higgs(1500, 500, 23);
  auto labels = data.y_train;
  // Keep only 10% of labels.
  su::Rng rng(5);
  for (auto& label : labels) {
    if (!rng.bernoulli(0.10)) label = sc::kUnlabeled;
  }
  sc::Network network(small_network());
  sc::fit_semi_supervised(network, data.x_train, labels);
  const double accuracy =
      sm::accuracy(network.predict(data.x_test), data.y_test);
  EXPECT_GT(accuracy, 0.55);  // well above chance from 150 labels
}

TEST(SemiSupervised, AllLabeledMatchesSupervisedProtocol) {
  const auto data = encoded_higgs(600, 200, 27);
  sc::Network semi(small_network());
  const auto report =
      sc::fit_semi_supervised(semi, data.x_train, data.y_train);
  EXPECT_EQ(report.unlabeled_examples, 0u);
  const double semi_accuracy =
      sm::accuracy(semi.predict(data.x_test), data.y_test);

  sc::Network supervised(small_network());
  supervised.fit(data.x_train, data.y_train);
  const double full_accuracy =
      sm::accuracy(supervised.predict(data.x_test), data.y_test);
  EXPECT_NEAR(semi_accuracy, full_accuracy, 0.06);
}

TEST(SemiSupervised, RejectsAllUnlabeled) {
  const auto data = encoded_higgs(50, 10, 29);
  std::vector<int> labels(data.y_train.size(), sc::kUnlabeled);
  sc::Network network(small_network());
  EXPECT_THROW(sc::fit_semi_supervised(network, data.x_train, labels),
               std::invalid_argument);
}

TEST(SemiSupervised, RejectsShapeMismatch) {
  const auto data = encoded_higgs(50, 10, 31);
  std::vector<int> labels(10, 0);
  sc::Network network(small_network());
  EXPECT_THROW(sc::fit_semi_supervised(network, data.x_train, labels),
               std::invalid_argument);
}

// ---------------------------------------------------------- spiking mode ----

TEST(Spiking, ActivationsAreNormalizedSpikeCounts) {
  auto net_config = small_network();
  net_config.bcpnn.mcus = 8;
  auto engine = sp::EngineRegistry::instance().create("simd");
  su::Rng rng(17);
  sc::BcpnnLayer layer(net_config.bcpnn, *engine, rng);
  const auto data = encoded_higgs(20, 10, 43);

  st::MatrixF spikes;
  layer.forward_spiking(data.x_train, spikes, 16);
  for (std::size_t r = 0; r < spikes.rows(); ++r) {
    float mass = 0.0f;
    for (std::size_t c = 0; c < spikes.cols(); ++c) {
      const float v = spikes(r, c);
      EXPECT_GE(v, 0.0f);
      // Each value is a multiple of 1/16.
      EXPECT_NEAR(std::round(v * 16.0f), v * 16.0f, 1e-4f);
      mass += v;
    }
    // One spike per HCU per timestep -> total mass == #HCUs.
    EXPECT_NEAR(mass, static_cast<float>(net_config.bcpnn.hcus), 1e-4f);
  }
}

TEST(Spiking, ConvergesToRateCodeWithManyTimesteps) {
  auto net_config = small_network();
  net_config.bcpnn.mcus = 6;
  net_config.bcpnn.epochs = 3;
  auto engine = sp::EngineRegistry::instance().create("simd");
  su::Rng rng(19);
  sc::BcpnnLayer layer(net_config.bcpnn, *engine, rng);
  const auto data = encoded_higgs(200, 10, 47);
  for (int step = 0; step < 10; ++step) layer.train_batch(data.x_train, 1.0f);

  st::MatrixF rate;
  layer.forward(data.x_test, rate);
  st::MatrixF spikes;
  layer.forward_spiking(data.x_test, spikes, 4000);
  double max_err = 0.0;
  for (std::size_t i = 0; i < rate.size(); ++i) {
    max_err = std::max(
        max_err, static_cast<double>(
                     std::abs(rate.data()[i] - spikes.data()[i])));
  }
  EXPECT_LT(max_err, 0.05);  // law of large numbers
}

TEST(Spiking, ZeroTimestepsThrows) {
  auto net_config = small_network();
  auto engine = sp::EngineRegistry::instance().create("naive");
  su::Rng rng(23);
  sc::BcpnnLayer layer(net_config.bcpnn, *engine, rng);
  st::MatrixF x(1, net_config.bcpnn.input_units(), 0.0f);
  st::MatrixF out;
  EXPECT_THROW(layer.forward_spiking(x, out, 0), std::invalid_argument);
}
