#include "data/idx_loader.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>

#include "data/digits.hpp"

namespace streambrain::data {

namespace {

std::uint32_t read_u32_be(std::istream& in) {
  std::uint8_t bytes[4];
  in.read(reinterpret_cast<char*>(bytes), 4);
  return (static_cast<std::uint32_t>(bytes[0]) << 24) |
         (static_cast<std::uint32_t>(bytes[1]) << 16) |
         (static_cast<std::uint32_t>(bytes[2]) << 8) |
         static_cast<std::uint32_t>(bytes[3]);
}

void write_u32_be(std::ostream& out, std::uint32_t value) {
  const std::uint8_t bytes[4] = {
      static_cast<std::uint8_t>(value >> 24),
      static_cast<std::uint8_t>(value >> 16),
      static_cast<std::uint8_t>(value >> 8),
      static_cast<std::uint8_t>(value)};
  out.write(reinterpret_cast<const char*>(bytes), 4);
}

}  // namespace

IdxArray read_idx(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("read_idx: cannot open " + path);
  const std::uint32_t magic = read_u32_be(file);
  if (!file) throw std::runtime_error("read_idx: truncated header");
  if ((magic >> 16) != 0) {
    throw std::runtime_error("read_idx: bad magic in " + path);
  }
  const std::uint8_t dtype = static_cast<std::uint8_t>((magic >> 8) & 0xFF);
  const std::uint8_t ndim = static_cast<std::uint8_t>(magic & 0xFF);
  if (dtype != 0x08) {
    throw std::runtime_error("read_idx: only uint8 IDX supported");
  }
  IdxArray array;
  std::size_t total = 1;
  for (std::uint8_t d = 0; d < ndim; ++d) {
    const std::uint32_t dim = read_u32_be(file);
    if (!file) throw std::runtime_error("read_idx: truncated dims");
    array.dims.push_back(dim);
    if (dim != 0 && total > std::numeric_limits<std::size_t>::max() / dim) {
      throw std::runtime_error("read_idx: dims overflow in " + path);
    }
    total *= dim;
  }
  // The header is untrusted: check the payload is really there before
  // allocating it.
  const std::streamoff header_end = file.tellg();
  file.seekg(0, std::ios::end);
  const std::streamoff file_end = file.tellg();
  file.seekg(header_end);
  if (header_end < 0 || file_end < header_end ||
      total > static_cast<std::size_t>(file_end - header_end)) {
    throw std::runtime_error("read_idx: truncated payload in " + path);
  }
  array.values.resize(total);
  file.read(reinterpret_cast<char*>(array.values.data()),
            static_cast<std::streamsize>(total));
  if (static_cast<std::size_t>(file.gcount()) != total) {
    throw std::runtime_error("read_idx: truncated payload in " + path);
  }
  return array;
}

void write_idx(const std::string& path, const IdxArray& array) {
  std::size_t total = 1;
  for (std::uint32_t dim : array.dims) total *= dim;
  if (total != array.values.size()) {
    throw std::invalid_argument("write_idx: dims/payload mismatch");
  }
  std::ofstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("write_idx: cannot open " + path);
  write_u32_be(file, (0x08u << 8) |
                         static_cast<std::uint32_t>(array.dims.size()));
  for (std::uint32_t dim : array.dims) write_u32_be(file, dim);
  file.write(reinterpret_cast<const char*>(array.values.data()),
             static_cast<std::streamsize>(array.values.size()));
  if (!file) throw std::runtime_error("write_idx: write failed");
}

Dataset load_mnist(const std::string& images_path,
                   const std::string& labels_path, std::size_t max_rows) {
  const IdxArray images = read_idx(images_path);
  const IdxArray labels = read_idx(labels_path);
  if (images.dims.size() != 3) {
    throw std::runtime_error("load_mnist: images must be 3-D (n x r x c)");
  }
  if (labels.dims.size() != 1 || labels.dims[0] != images.dims[0]) {
    throw std::runtime_error("load_mnist: label count mismatch");
  }
  std::size_t n = images.dims[0];
  if (max_rows != 0) n = std::min<std::size_t>(n, max_rows);
  const std::size_t pixels =
      static_cast<std::size_t>(images.dims[1]) * images.dims[2];
  if (pixels != 0 && n > images.values.size() / pixels) {
    throw std::runtime_error("load_mnist: image payload too short");
  }

  Dataset dataset;
  dataset.features = tensor::MatrixF(n, pixels);
  dataset.labels.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    float* row = dataset.features.row(r);
    for (std::size_t p = 0; p < pixels; ++p) {
      row[p] = static_cast<float>(images.values[r * pixels + p]) / 255.0f;
    }
    dataset.labels[r] = static_cast<int>(labels.values[r]);
  }
  return dataset;
}

void save_mnist(const Dataset& dataset, std::size_t side,
                const std::string& images_path,
                const std::string& labels_path) {
  if (dataset.dim() != side * side) {
    throw std::invalid_argument("save_mnist: feature count != side^2");
  }
  IdxArray images;
  images.dims = {static_cast<std::uint32_t>(dataset.size()),
                 static_cast<std::uint32_t>(side),
                 static_cast<std::uint32_t>(side)};
  images.values.resize(dataset.size() * dataset.dim());
  for (std::size_t r = 0; r < dataset.size(); ++r) {
    const float* row = dataset.features.row(r);
    for (std::size_t p = 0; p < dataset.dim(); ++p) {
      const float clamped = std::clamp(row[p], 0.0f, 1.0f);
      images.values[r * dataset.dim() + p] =
          static_cast<std::uint8_t>(clamped * 255.0f + 0.5f);
    }
  }
  IdxArray labels;
  labels.dims = {static_cast<std::uint32_t>(dataset.size())};
  labels.values.resize(dataset.size());
  for (std::size_t r = 0; r < dataset.size(); ++r) {
    labels.values[r] = static_cast<std::uint8_t>(dataset.labels[r]);
  }
  write_idx(images_path, images);
  write_idx(labels_path, labels);
}

Dataset load_mnist_or_synthetic(const std::string& images_path,
                                const std::string& labels_path,
                                std::size_t count, std::uint64_t seed) {
  if (!images_path.empty() && std::filesystem::exists(images_path) &&
      !labels_path.empty() && std::filesystem::exists(labels_path)) {
    return load_mnist(images_path, labels_path, count);
  }
  DigitGeneratorOptions options;
  options.seed = seed;
  SyntheticDigitGenerator generator(options);
  return generator.generate(count);
}

}  // namespace streambrain::data
