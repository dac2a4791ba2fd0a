#pragma once
// IDX-format reader/writer (the MNIST container format). StreamBrain
// "includes data-loaders for several well-known datasets, including
// MNIST, STL-10, CIFAR10/100" (Section III-A); this repo keeps MNIST.
// The writer exists so tests can round-trip and so synthetic digit sets
// can be exported in the standard format.
//
// Format (big-endian): magic [0x00 0x00 dtype ndim], then ndim uint32
// dimension sizes, then the payload. Only dtype 0x08 (uint8) is
// supported — that is what MNIST uses.

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.hpp"

namespace streambrain::data {

struct IdxArray {
  std::vector<std::uint32_t> dims;
  std::vector<std::uint8_t> values;  // row-major

  [[nodiscard]] std::size_t size() const noexcept { return values.size(); }
};

/// Read any uint8 IDX file. Throws std::runtime_error on bad magic,
/// unsupported dtype, dims whose product overflows, or a payload shorter
/// than the dims claim (checked before anything is allocated).
IdxArray read_idx(const std::string& path);

/// Write a uint8 IDX file.
void write_idx(const std::string& path, const IdxArray& array);

/// Load an MNIST-style pair (images: n x rows x cols, labels: n) into a
/// Dataset with pixel features scaled to [0, 1].
Dataset load_mnist(const std::string& images_path,
                   const std::string& labels_path, std::size_t max_rows = 0);

/// Export a Dataset whose features are pixels in [0,1] as an MNIST-style
/// IDX pair (`side` x `side` images).
void save_mnist(const Dataset& dataset, std::size_t side,
                const std::string& images_path,
                const std::string& labels_path);

/// Load MNIST when both files exist, otherwise fall back to `count`
/// synthetic digit glyphs (data/digits.hpp).
Dataset load_mnist_or_synthetic(const std::string& images_path,
                                const std::string& labels_path,
                                std::size_t count, std::uint64_t seed);

}  // namespace streambrain::data
