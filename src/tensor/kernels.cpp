#include "tensor/kernels.hpp"

#include <algorithm>
#include <stdexcept>

#include "parallel/parallel_for.hpp"
#include "tensor/kernel_set.hpp"

namespace streambrain::tensor {

namespace {

// Minimum entries per softmax task, about 25 us of work: a 64-row batch
// of 300 MCUs splits four ways. Back-to-back batches find the workers
// still polling (ThreadPool::fan_out), so no call pays a wake-up.
constexpr std::size_t kMinSoftmaxEntriesPerTask = 1 << 12;

}  // namespace

void axpy(float alpha, const float* x, float* y, std::size_t n) noexcept {
  active_kernels().axpy(alpha, x, y, n);
}

void scale(float alpha, float* x, std::size_t n) noexcept {
  active_kernels().scale(alpha, x, n);
}

float dot(const float* x, const float* y, std::size_t n) noexcept {
  return active_kernels().dot(x, y, n);
}

float sum(const float* x, std::size_t n) noexcept {
  return active_kernels().sum(x, n);
}

float reduce_max(const float* x, std::size_t n) noexcept {
  return active_kernels().reduce_max(x, n);
}

void relu(float* x, std::size_t n) noexcept {
  active_kernels().relu(x, n);
}

void threshold_mask(const float* gate, float threshold, float* x,
                    std::size_t n) noexcept {
  active_kernels().threshold_mask(gate, threshold, x, n);
}

void gemv(const MatrixF& a, const float* x, float* y) noexcept {
  active_kernels().gemv(a.data(), a.cols(), x, y, a.rows(), a.cols());
}

void add_row_bias(MatrixF& m, const float* bias) noexcept {
  const KernelSet& kernels = active_kernels();
  const std::size_t cols = m.cols();
  for (std::size_t r = 0; r < m.rows(); ++r) {
    kernels.axpy(1.0f, bias, m.row(r), cols);
  }
}

void ema_update(float* p, const float* x, float rate, std::size_t n) noexcept {
  active_kernels().ema_update(p, x, rate, n);
}

void momentum_update(float mu, float lr, float l2, const float* g, float* w,
                     float* v, std::size_t n) noexcept {
  active_kernels().momentum_update(mu, lr, l2, g, w, v, n);
}

void col_sums(const MatrixF& m, float* out) noexcept {
  const KernelSet& kernels = active_kernels();
  const std::size_t cols = m.cols();
  std::fill_n(out, cols, 0.0f);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    kernels.axpy(1.0f, m.row(r), out, cols);
  }
}

void softmax_blocks(MatrixF& m, std::size_t block) {
  softmax_blocks_temperature(m, block, 1.0f);
}

void softmax_blocks_temperature(MatrixF& m, std::size_t block,
                                float inverse_temperature) {
  if (block == 0 || m.cols() % block != 0) {
    throw std::invalid_argument(
        "softmax_blocks: row width must be a multiple of the block size");
  }
  const KernelSet& kernels = active_kernels();
  const std::size_t blocks_per_row = m.cols() / block;
  const auto panel = [&](std::size_t r0, std::size_t r1) {
    kernels.softmax_blocks(m.row(r0), r1 - r0, m.cols(), blocks_per_row,
                           block, inverse_temperature);
  };
  const std::size_t cols = std::max<std::size_t>(1, m.cols());
  parallel::for_row_panels(
      m.rows(), (kMinSoftmaxEntriesPerTask + cols - 1) / cols, panel);
}

void wta_blocks(MatrixF& m, std::size_t block) noexcept {
  const std::size_t blocks_per_row = m.cols() / block;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    float* row = m.row(r);
    for (std::size_t b = 0; b < blocks_per_row; ++b) {
      float* v = row + b * block;
      std::size_t winner = 0;
      for (std::size_t i = 1; i < block; ++i) {
        if (v[i] > v[winner]) winner = i;
      }
      for (std::size_t i = 0; i < block; ++i) v[i] = (i == winner) ? 1.0f : 0.0f;
    }
  }
}

void argmax_rows(const MatrixF& m, std::size_t* out) noexcept {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const float* row = m.row(r);
    std::size_t best = 0;
    for (std::size_t c = 1; c < m.cols(); ++c) {
      if (row[c] > row[best]) best = c;
    }
    out[r] = best;
  }
}

}  // namespace streambrain::tensor
