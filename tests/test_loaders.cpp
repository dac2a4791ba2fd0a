// Tests for the IDX (MNIST) loader: round-trips, format validation,
// fallbacks.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "data/digits.hpp"
#include "data/idx_loader.hpp"

namespace sd = streambrain::data;
namespace fs = std::filesystem;

// ----------------------------------------------------------------- IDX ----

TEST(Idx, ArrayRoundTrip) {
  sd::IdxArray array;
  array.dims = {2, 3, 4};
  array.values.resize(24);
  for (std::size_t i = 0; i < 24; ++i) {
    array.values[i] = static_cast<std::uint8_t>(i * 7);
  }
  const std::string path = "/tmp/streambrain_test.idx";
  sd::write_idx(path, array);
  const auto loaded = sd::read_idx(path);
  EXPECT_EQ(loaded.dims, array.dims);
  EXPECT_EQ(loaded.values, array.values);
  fs::remove(path);
}

TEST(Idx, WriterRejectsDimMismatch) {
  sd::IdxArray array;
  array.dims = {2, 2};
  array.values.resize(3);  // should be 4
  EXPECT_THROW(sd::write_idx("/tmp/x.idx", array), std::invalid_argument);
}

TEST(Idx, ReaderRejectsBadMagic) {
  const std::string path = "/tmp/streambrain_bad.idx";
  {
    std::ofstream out(path, std::ios::binary);
    const char junk[] = "JUNKJUNKJUNK";
    out.write(junk, sizeof(junk));
  }
  EXPECT_THROW(sd::read_idx(path), std::runtime_error);
  fs::remove(path);
}

TEST(Idx, ReaderRejectsTruncatedPayload) {
  sd::IdxArray array;
  array.dims = {10};
  array.values.resize(10, 1);
  const std::string path = "/tmp/streambrain_trunc.idx";
  sd::write_idx(path, array);
  // Chop off the last 3 bytes.
  fs::resize_file(path, fs::file_size(path) - 3);
  EXPECT_THROW(sd::read_idx(path), std::runtime_error);
  fs::remove(path);
}

TEST(Idx, ReaderRejectsOverflowingDims) {
  // 3 * 2007567422 * 3062868337 wraps to 26 in 64 bits, and 26 payload
  // bytes follow: a reader that multiplies the dims unchecked accepts
  // the file, and load_mnist then reads 1431655774-pixel rows from it.
  const std::string path = "/tmp/streambrain_overflow.idx";
  {
    std::ofstream out(path, std::ios::binary);
    const unsigned char header[] = {0x00, 0x00, 0x08, 0x03,
                                    0x00, 0x00, 0x00, 0x03,
                                    0x77, 0xA9, 0x0C, 0x3E,
                                    0xB6, 0x8F, 0xA9, 0x71};
    out.write(reinterpret_cast<const char*>(header), sizeof(header));
    const std::vector<char> payload(26, 1);
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  }
  EXPECT_THROW(sd::read_idx(path), std::runtime_error);
  fs::remove(path);
}

TEST(Idx, MnistPairRoundTrip) {
  sd::SyntheticDigitGenerator generator;
  const auto original = generator.generate(40);
  const std::string images = "/tmp/streambrain_images.idx";
  const std::string labels = "/tmp/streambrain_labels.idx";
  sd::save_mnist(original, sd::kDigitSide, images, labels);
  const auto loaded = sd::load_mnist(images, labels);
  ASSERT_EQ(loaded.size(), original.size());
  ASSERT_EQ(loaded.dim(), original.dim());
  EXPECT_EQ(loaded.labels, original.labels);
  // Pixels survive 8-bit quantization to within half a level.
  for (std::size_t r = 0; r < loaded.size(); ++r) {
    for (std::size_t p = 0; p < loaded.dim(); ++p) {
      EXPECT_NEAR(loaded.features(r, p), original.features(r, p),
                  0.5f / 255.0f + 1e-4f);
    }
  }
  fs::remove(images);
  fs::remove(labels);
}

TEST(Idx, MaxRowsLimitsLoad) {
  sd::SyntheticDigitGenerator generator;
  const auto original = generator.generate(30);
  const std::string images = "/tmp/streambrain_images2.idx";
  const std::string labels = "/tmp/streambrain_labels2.idx";
  sd::save_mnist(original, sd::kDigitSide, images, labels);
  EXPECT_EQ(sd::load_mnist(images, labels, 7).size(), 7u);
  fs::remove(images);
  fs::remove(labels);
}

TEST(Idx, FallbackWhenFilesMissing) {
  const auto dataset =
      sd::load_mnist_or_synthetic("/no/such/images", "/no/such/labels", 25, 3);
  EXPECT_EQ(dataset.size(), 25u);
  EXPECT_EQ(dataset.dim(), sd::kDigitPixels);
}
