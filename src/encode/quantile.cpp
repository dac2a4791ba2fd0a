#include "encode/quantile.hpp"

#include <algorithm>
#include <stdexcept>

#include "parallel/parallel_for.hpp"

namespace streambrain::encode {

namespace {

// Minimum rows per transform task.
constexpr std::size_t kMinRowsPerTask = 256;

}  // namespace

QuantileBinner::QuantileBinner(std::size_t bins) : bins_(bins) {
  if (bins < 2) {
    throw std::invalid_argument("QuantileBinner: need at least 2 bins");
  }
}

void QuantileBinner::fit(const tensor::MatrixF& data) {
  if (data.rows() == 0) {
    throw std::invalid_argument("QuantileBinner::fit: empty data");
  }
  const std::size_t features = data.cols();
  cuts_.assign(features, {});
  // Each task sorts its features' columns in one buffer of its own.
  parallel::for_row_panels(features, 1, [&](std::size_t f0, std::size_t f1) {
    std::vector<float> column(data.rows());
    for (std::size_t f = f0; f < f1; ++f) {
      for (std::size_t r = 0; r < data.rows(); ++r) column[r] = data(r, f);
      std::sort(column.begin(), column.end());
      std::vector<float> cuts;
      cuts.reserve(bins_ - 1);
      for (std::size_t g = 1; g < bins_; ++g) {
        const double q = static_cast<double>(g) / static_cast<double>(bins_);
        const double pos = q * static_cast<double>(column.size() - 1);
        const std::size_t lo = static_cast<std::size_t>(pos);
        const std::size_t hi = std::min(lo + 1, column.size() - 1);
        const double frac = pos - static_cast<double>(lo);
        cuts.push_back(static_cast<float>(column[lo] * (1.0 - frac) +
                                          column[hi] * frac));
      }
      cuts_[f] = std::move(cuts);
    }
  });
}

std::size_t QuantileBinner::bin_of(std::size_t feature, float value) const {
  if (feature >= cuts_.size()) {
    throw std::out_of_range("QuantileBinner::bin_of: feature out of range");
  }
  const auto& cuts = cuts_[feature];
  // First cut strictly greater than value == index of the bin.
  const auto it = std::upper_bound(cuts.begin(), cuts.end(), value);
  return static_cast<std::size_t>(it - cuts.begin());
}

std::vector<std::vector<std::size_t>> QuantileBinner::transform(
    const tensor::MatrixF& data) const {
  if (!fitted()) {
    throw std::logic_error("QuantileBinner::transform before fit");
  }
  if (data.cols() != cuts_.size()) {
    throw std::invalid_argument("QuantileBinner::transform: feature mismatch");
  }
  std::vector<std::vector<std::size_t>> out(data.rows());
  const auto panel = [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      auto& row = out[r];
      row.resize(data.cols());
      for (std::size_t f = 0; f < data.cols(); ++f) {
        row[f] = bin_of(f, data(r, f));
      }
    }
  };
  parallel::for_row_panels(data.rows(), kMinRowsPerTask, panel);
  return out;
}

const std::vector<float>& QuantileBinner::cuts(std::size_t feature) const {
  if (feature >= cuts_.size()) {
    throw std::out_of_range("QuantileBinner::cuts: feature out of range");
  }
  return cuts_[feature];
}

}  // namespace streambrain::encode
