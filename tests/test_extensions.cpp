// Tests for the paper's spiking forward mode (§II).

#include <gtest/gtest.h>

#include <cmath>

#include "core/network.hpp"
#include "data/higgs.hpp"
#include "encode/one_hot.hpp"
#include "parallel/engine_registry.hpp"
#include "util/rng.hpp"

namespace sc = streambrain::core;
namespace sd = streambrain::data;
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
