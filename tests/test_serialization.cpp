// Tests for model checkpointing: exact save/load round-trips, geometry
// validation, corruption handling.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include "core/serialization.hpp"
#include "data/higgs.hpp"
#include "encode/one_hot.hpp"
#include "parallel/engine_registry.hpp"

namespace sc = streambrain::core;
namespace sd = streambrain::data;
namespace sp = streambrain::parallel;
namespace st = streambrain::tensor;
namespace su = streambrain::util;
namespace fs = std::filesystem;

namespace {

sc::BcpnnConfig layer_config() {
  sc::BcpnnConfig config;
  config.input_hypercolumns = sd::kHiggsFeatures;
  config.input_bins = 10;
  config.hcus = 2;
  config.mcus = 25;
  config.receptive_field = 0.4;
  config.epochs = 3;
  config.seed = 9;
  return config;
}

st::MatrixF encoded_events(std::size_t count, std::uint64_t seed) {
  sd::HiggsGeneratorOptions options;
  options.seed = seed;
  sd::SyntheticHiggsGenerator generator(options);
  const auto dataset = generator.generate(count);
  streambrain::encode::OneHotEncoder encoder(10);
  return encoder.fit_transform(dataset.features);
}

}  // namespace

TEST(Serialization, LayerRoundTripIsExact) {
  const auto config = layer_config();
  auto engine = sp::EngineRegistry::instance().create("simd");
  su::Rng rng(1);
  sc::BcpnnLayer trained(config, *engine, rng);
  const auto x = encoded_events(400, 3);
  for (int step = 0; step < 12; ++step) trained.train_batch(x, 1.0f);
  trained.plasticity_step();

  const std::string path = "/tmp/streambrain_layer.ckpt";
  sc::save_layer(path, trained);

  su::Rng rng2(999);  // different init — must be fully overwritten
  sc::BcpnnLayer restored(config, *engine, rng2);
  sc::load_layer(path, restored);

  // Identical masks and bitwise-identical activations.
  EXPECT_EQ(restored.masks().all(), trained.masks().all());
  st::MatrixF a_trained;
  st::MatrixF a_restored;
  trained.forward(x, a_trained);
  restored.forward(x, a_restored);
  for (std::size_t i = 0; i < a_trained.size(); ++i) {
    EXPECT_EQ(a_trained.data()[i], a_restored.data()[i]);
  }
  fs::remove(path);
}

TEST(Serialization, LayerGeometryMismatchRejected) {
  const auto config = layer_config();
  auto engine = sp::EngineRegistry::instance().create("simd");
  su::Rng rng(1);
  sc::BcpnnLayer trained(config, *engine, rng);
  const std::string path = "/tmp/streambrain_layer2.ckpt";
  sc::save_layer(path, trained);

  auto other_config = config;
  other_config.mcus = 30;  // different geometry
  su::Rng rng2(2);
  sc::BcpnnLayer other(other_config, *engine, rng2);
  EXPECT_THROW(sc::load_layer(path, other), std::runtime_error);
  fs::remove(path);
}

TEST(Serialization, CorruptMagicRejected) {
  const std::string path = "/tmp/streambrain_corrupt.ckpt";
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTACHECKPOINT";
  }
  const auto config = layer_config();
  auto engine = sp::EngineRegistry::instance().create("simd");
  su::Rng rng(1);
  sc::BcpnnLayer layer(config, *engine, rng);
  EXPECT_THROW(sc::load_layer(path, layer), std::runtime_error);
  fs::remove(path);
}

TEST(Serialization, TruncatedFileRejected) {
  const auto config = layer_config();
  auto engine = sp::EngineRegistry::instance().create("simd");
  su::Rng rng(1);
  sc::BcpnnLayer layer(config, *engine, rng);
  const std::string path = "/tmp/streambrain_trunc.ckpt";
  sc::save_layer(path, layer);
  fs::resize_file(path, fs::file_size(path) / 2);
  su::Rng rng2(2);
  sc::BcpnnLayer target(config, *engine, rng2);
  EXPECT_THROW(sc::load_layer(path, target), std::runtime_error);
  fs::remove(path);
}

TEST(Serialization, MissingFileRejected) {
  const auto config = layer_config();
  auto engine = sp::EngineRegistry::instance().create("simd");
  su::Rng rng(1);
  sc::BcpnnLayer layer(config, *engine, rng);
  EXPECT_THROW(sc::load_layer("/no/such/file.ckpt", layer),
               std::runtime_error);
}

TEST(Serialization, TrainingResumesFromCheckpoint) {
  // Save mid-training, restore into a fresh layer, continue training on
  // both — trajectories must stay identical when driven by the same data
  // (the checkpoint captures the full learned state).
  const auto config = layer_config();
  auto engine = sp::EngineRegistry::instance().create("simd");
  su::Rng rng(1);
  sc::BcpnnLayer original(config, *engine, rng);
  const auto x = encoded_events(300, 5);
  for (int step = 0; step < 6; ++step) original.train_batch(x, 0.0f);

  const std::string path = "/tmp/streambrain_resume.ckpt";
  sc::save_layer(path, original);
  su::Rng rng2(2);
  sc::BcpnnLayer resumed(config, *engine, rng2);
  sc::load_layer(path, resumed);

  // Continue noise-free training (noise would draw from the layers'
  // different RNGs; the deterministic path must match exactly).
  for (int step = 0; step < 4; ++step) {
    original.train_batch(x, 0.0f);
    resumed.train_batch(x, 0.0f);
  }
  st::MatrixF a_original;
  st::MatrixF a_resumed;
  original.forward(x, a_original);
  resumed.forward(x, a_resumed);
  for (std::size_t i = 0; i < a_original.size(); ++i) {
    EXPECT_EQ(a_original.data()[i], a_resumed.data()[i]);
  }
  fs::remove(path);
}

// --- Full Model facade checkpoints -----------------------------------------

namespace {

struct LabeledSplit {
  st::MatrixF x;
  std::vector<int> y;
};

LabeledSplit encoded_labeled(std::size_t count, std::uint64_t seed) {
  sd::HiggsGeneratorOptions options;
  options.seed = seed;
  sd::SyntheticHiggsGenerator generator(options);
  const auto dataset = generator.generate(count);
  streambrain::encode::OneHotEncoder encoder(10);
  return {encoder.fit_transform(dataset.features), dataset.labels};
}

}  // namespace

class ModelCheckpoint : public ::testing::TestWithParam<sc::HeadType> {};

TEST_P(ModelCheckpoint, ShallowRoundTripIsExact) {
  const auto train = encoded_labeled(500, 21);
  const auto probe = encoded_labeled(150, 22);
  sc::Model model;
  model.input(28, 10)
      .hidden(1, 30, 0.4)
      .classifier(2, GetParam())
      .set_option("epochs", 3)
      .set_option("batch_size", 32)
      .compile("simd", 42);
  model.fit(train.x, train.y);

  const std::string path = ::testing::TempDir() + "model_shallow.sbrn";
  model.save(path);

  sc::Model restored;
  restored.load(path);
  // Topology, options, and engine choice all round-trip...
  EXPECT_TRUE(restored.compiled());
  EXPECT_EQ(restored.engine_name(), "simd");
  EXPECT_EQ(restored.seed(), 42u);
  EXPECT_EQ(restored.head(), GetParam());
  EXPECT_EQ(restored.network().config().bcpnn.epochs, 3u);
  EXPECT_EQ(restored.network().config().bcpnn.batch_size, 32u);
  // ...and predictions reproduce bit-for-bit.
  EXPECT_EQ(restored.predict(probe.x), model.predict(probe.x));
  EXPECT_EQ(restored.predict_scores(probe.x), model.predict_scores(probe.x));
  fs::remove(path);
}

INSTANTIATE_TEST_SUITE_P(BothHeads, ModelCheckpoint,
                         ::testing::Values(sc::HeadType::kBcpnn,
                                           sc::HeadType::kSgd));

TEST(ModelCheckpointDeep, DeepRoundTripIsExact) {
  const auto train = encoded_labeled(500, 31);
  const auto probe = encoded_labeled(150, 32);
  sc::Model model;
  model.input(28, 10)
      .hidden(2, 20, 0.4)
      .hidden(1, 20, 1.0)
      .classifier(2)
      .set_option("epochs", 3)
      .compile("simd", 7);
  model.fit(train.x, train.y);

  const std::string path = ::testing::TempDir() + "model_deep.sbrn";
  model.save(path);

  sc::Model restored;
  restored.load(path);
  EXPECT_EQ(restored.network().depth(), 2u);
  EXPECT_EQ(restored.predict(probe.x), model.predict(probe.x));
  EXPECT_EQ(restored.predict_scores(probe.x), model.predict_scores(probe.x));
  fs::remove(path);
}

TEST(ModelCheckpointGuards, LifecycleAndFormatErrors) {
  sc::Model blank;
  EXPECT_THROW(blank.save("/tmp/never.sbrn"), std::logic_error);  // un-compiled

  sc::Model compiled;
  compiled.input(28, 10).hidden(1, 10, 0.4).classifier(2).compile("naive", 1);
  EXPECT_THROW(compiled.load("/tmp/never.sbrn"), std::logic_error);  // compiled

  // A layer-format file is not a model-format file: the topology section
  // is missing and load() must reject it.
  auto engine = sp::EngineRegistry::instance().create("simd");
  su::Rng rng(1);
  const sc::BcpnnLayer layer(layer_config(), *engine, rng);
  const std::string path = ::testing::TempDir() + "layer_not_model.ckpt";
  sc::save_layer(path, layer);
  sc::Model wrong;
  EXPECT_THROW(wrong.load(path), std::runtime_error);
  fs::remove(path);

  EXPECT_THROW(blank.load("/tmp/does_not_exist.sbrn"), std::runtime_error);
}

TEST(ModelCheckpointGuards, LoadIsAtomicAndRequiresABlankModel) {
  // Declared-but-uncompiled topology must be rejected, not merged with
  // the checkpoint's.
  const auto train = encoded_labeled(200, 51);
  sc::Model trained;
  trained.input(28, 10).hidden(1, 10, 0.4).classifier(2).compile("naive", 3);
  trained.fit(train.x, train.y);
  const std::string path = ::testing::TempDir() + "model_atomic.sbrn";
  trained.save(path);

  sc::Model declared;
  declared.input(28, 10).hidden(1, 30, 0.4);
  EXPECT_THROW(declared.load(path), std::logic_error);

  // A checkpoint truncated mid-weights must leave the target un-compiled
  // (and therefore loadable again), not compiled with random weights.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  const std::string truncated_path =
      ::testing::TempDir() + "model_truncated.sbrn";
  std::ofstream out(truncated_path, std::ios::binary);
  out.write(bytes.data(),
            static_cast<std::streamsize>(bytes.size() * 2 / 3));
  out.close();

  sc::Model target;
  EXPECT_THROW(target.load(truncated_path), std::runtime_error);
  EXPECT_FALSE(target.compiled());
  target.load(path);  // still usable after the failed attempt
  EXPECT_TRUE(target.compiled());
  fs::remove(path);
  fs::remove(truncated_path);
}

// --- Format version 2 (u64 float counts) ------------------------------------

namespace {

/// Down-convert a version-2 layer checkpoint to the version-1 wire
/// format: version field u32 2 -> 1, each float-array count u64 -> u32.
/// Keeps the backward-compat read path honest against real v1 bytes.
std::string downconvert_layer_file_to_v1(const std::string& bytes) {
  auto read_u64_at = [&](std::size_t pos) {
    std::uint64_t value = 0;
    std::memcpy(&value, bytes.data() + pos, sizeof(value));
    return value;
  };
  std::string v1;
  auto append_u32 = [&](std::uint32_t value) {
    v1.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };

  v1.append(bytes, 0, 4);  // magic
  append_u32(1);           // version
  std::size_t pos = 8;
  v1.append(bytes, pos, 20);  // section tag + 4 geometry fields
  pos += 20;
  for (int array = 0; array < 3; ++array) {  // pi, pj, pij
    const std::uint64_t count = read_u64_at(pos);
    pos += sizeof(std::uint64_t);
    append_u32(static_cast<std::uint32_t>(count));
    v1.append(bytes, pos, count * sizeof(float));
    pos += count * sizeof(float);
  }
  v1.append(bytes, pos, std::string::npos);  // masks
  return v1;
}

}  // namespace

TEST(SerializationVersioning, Version1FilesStillLoad) {
  const auto config = layer_config();
  auto engine = sp::EngineRegistry::instance().create("simd");
  su::Rng rng(7);
  sc::BcpnnLayer trained(config, *engine, rng);
  const auto x = encoded_events(300, 5);
  for (int step = 0; step < 8; ++step) trained.train_batch(x, 1.0f);
  trained.plasticity_step();

  const std::string v2_path = ::testing::TempDir() + "layer_v2.ckpt";
  sc::save_layer(v2_path, trained);
  std::ifstream in(v2_path, std::ios::binary);
  const std::string v2_bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  in.close();

  // v2 files carry u64 float counts (8 bytes per array vs v1's 4).
  const std::string v1_bytes = downconvert_layer_file_to_v1(v2_bytes);
  EXPECT_EQ(v2_bytes.size(), v1_bytes.size() + 3 * 4);
  const std::string v1_path = ::testing::TempDir() + "layer_v1.ckpt";
  {
    std::ofstream out(v1_path, std::ios::binary);
    out.write(v1_bytes.data(), static_cast<std::streamsize>(v1_bytes.size()));
  }

  su::Rng rng2(99);
  sc::BcpnnLayer restored(config, *engine, rng2);
  sc::load_layer(v1_path, restored);
  EXPECT_EQ(restored.masks().all(), trained.masks().all());
  st::MatrixF a_trained;
  st::MatrixF a_restored;
  trained.forward(x, a_trained);
  restored.forward(x, a_restored);
  for (std::size_t i = 0; i < a_trained.size(); ++i) {
    ASSERT_EQ(a_trained.data()[i], a_restored.data()[i]);
  }
  fs::remove(v2_path);
  fs::remove(v1_path);
}

TEST(SerializationVersioning, UnknownFutureVersionRejected) {
  const auto config = layer_config();
  auto engine = sp::EngineRegistry::instance().create("simd");
  su::Rng rng(7);
  sc::BcpnnLayer layer(config, *engine, rng);
  const std::string path = ::testing::TempDir() + "layer_future.ckpt";
  sc::save_layer(path, layer);
  {
    std::fstream file(path,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(4);
    const std::uint32_t version = 99;
    file.write(reinterpret_cast<const char*>(&version), sizeof(version));
  }
  su::Rng rng2(8);
  sc::BcpnnLayer target(config, *engine, rng2);
  EXPECT_THROW(sc::load_layer(path, target), std::runtime_error);
  fs::remove(path);
}

TEST(SerializationVersioning, OverflowingU32CountFieldThrows) {
  // Counts that fit stay identity; counts >= 2^32 must throw instead of
  // silently truncating (and corrupting) the checkpoint.
  EXPECT_EQ(sc::detail::checked_u32(0, "test"), 0u);
  EXPECT_EQ(sc::detail::checked_u32(4096, "test"), 4096u);
  const std::size_t max32 = std::numeric_limits<std::uint32_t>::max();
  EXPECT_EQ(sc::detail::checked_u32(max32, "test"), max32);
  EXPECT_THROW(sc::detail::checked_u32(max32 + 1, "test"),
               std::runtime_error);
  EXPECT_THROW(sc::detail::checked_u32(std::size_t{1} << 40, "test"),
               std::runtime_error);
}

TEST(SerializationVersioning, InMemoryCloneIsBitIdentical) {
  // clone_model (the serve::ShardPool replica path) round-trips through
  // a stream instead of a file; the clone must predict bit-identically
  // and be fully independent of the original.
  const auto train = encoded_labeled(300, 11);
  sc::Model trained;
  trained.input(28, 10).hidden(1, 30, 0.4).classifier(2).compile("simd", 21);
  trained.fit(train.x, train.y);

  sc::Model clone = sc::clone_model(trained);
  EXPECT_TRUE(clone.compiled());
  EXPECT_EQ(clone.engine_name(), trained.engine_name());
  const auto test = encoded_labeled(120, 12);
  EXPECT_EQ(clone.predict(test.x), trained.predict(test.x));
  EXPECT_EQ(clone.predict_scores(test.x), trained.predict_scores(test.x));
}
