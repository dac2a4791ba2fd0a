#include "parallel/engine.hpp"

#include <algorithm>

#include "parallel/parallel_for.hpp"

namespace streambrain::parallel {

namespace {

// Minimum weight entries per mask task: a pruned BCPNN head (classes
// columns) stays on the calling thread.
constexpr std::size_t kMinMaskEntriesPerTask = std::size_t{1} << 13;

}  // namespace

void WeightMask::apply_row(std::size_t row, float* w_row,
                           std::size_t cols) const {
  if (active != nullptr) {
    const std::size_t blocks = cols / block_cols;
    const std::uint8_t* flags = active + (row / block_rows) * blocks;
    for (std::size_t b = 0; b < blocks; ++b) {
      if (flags[b] == 0) std::fill_n(w_row + b * block_cols, block_cols, 0.0f);
    }
  }
  if (keep == nullptr) return;
  const std::uint8_t* row_keep = keep + row * cols;
  for (std::size_t j = 0; j < cols; ++j) {
    if (row_keep[j] == 0) w_row[j] = 0.0f;
  }
}

void WeightMask::apply(tensor::MatrixF& w) const {
  if (active == nullptr && keep == nullptr) return;
  const std::size_t cols = w.cols();
  const auto panel = [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) apply_row(r, w.row(r), cols);
  };
  for_row_panels(w.rows(),
                 std::max<std::size_t>(1, kMinMaskEntriesPerTask /
                                              std::max<std::size_t>(1, cols)),
                 panel);
}

void Engine::support_masked(const tensor::MatrixF& x, const tensor::MatrixF& w,
                            const float* bias, const WeightMask& /*mask*/,
                            tensor::MatrixF& s) {
  support(x, w, bias, s);
}

void Engine::learn_batch(const tensor::MatrixF& x, const tensor::MatrixF& a,
                         float alpha, float eps, float k_beta,
                         const WeightMask& mask, float* pi, float* pj,
                         tensor::MatrixF& pij, tensor::MatrixF& w,
                         float* bias) {
  update_traces(x, a, alpha, pi, pj, pij);
  recompute_weights(pi, pj, pij, eps, k_beta, w, bias);
  mask.apply(w);
}

}  // namespace streambrain::parallel
