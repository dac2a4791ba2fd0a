#pragma once
// Compute-backend abstraction. The paper's Section III-A backends
// (OpenMP CPU, SIMD CPU, offloaded GPU) collapse into one engine, "simd",
// over the runtime-dispatched tensor::KernelSet; its instruction tier
// (scalar / sse42 / avx2) is picked by CPUID, STREAMBRAIN_DISPATCH or
// tensor::force_dispatch. "naive" is the scalar reference it is tested
// against. Engines are created by name through parallel::EngineRegistry
// (engine_registry.hpp).
//
// An Engine supplies the four primitives that dominate BCPNN training,
// the support of a masked W, and the training step built from the
// primitives:
//
//   support   : S = X * W + b           (batch GEMM + bias)
//   softmax   : per-hypercolumn soft-WTA normalization of S
//   traces    : EMA update of p_i, p_j, p_ij from a batch (X, A)
//   weights   : w_ij = log(p_ij / (p_i p_j)), b_j = k_beta * log(p_j)
//   masked    : support, for a W the WeightMask holds at zero
//   learn     : traces, then weights, then the WeightMask — one batch
//
// support_masked's default is support, and learn_batch's is that
// reference composition, so an engine need override neither. "simd"
// overrides both with the same bits: the support skips the masked
// blocks' products, and the step is one fused pass over p_ij and W.

#include <cstddef>
#include <cstdint>
#include <string>

#include "tensor/matrix.hpp"

namespace streambrain::parallel {

/// The weights a BCPNN layer holds at zero, as a non-owning view of an
/// [rows x cols] weight matrix. Block masks: the matrix is a grid of
/// (block_rows x block_cols) blocks — (input bins x MCUs), one per input
/// hypercolumn and HCU — and a block whose flag in `active` (row-major,
/// rows / block_rows x cols / block_cols) is 0 is zero. Keep-mask: an
/// entry whose byte in `keep` ([rows x cols]) is 0 is zero. A null
/// pointer masks nothing; WeightMask{} masks nothing at all. When `active`
/// is set, block_rows and block_cols must divide rows and cols.
struct WeightMask {
  std::size_t block_rows = 0;
  std::size_t block_cols = 0;
  const std::uint8_t* active = nullptr;
  const std::uint8_t* keep = nullptr;

  /// run(c0, c1) for each maximal run [c0, c1) of weight row `row`'s
  /// columns in active blocks, ascending.
  template <typename Run>
  void for_active_runs(std::size_t row, std::size_t cols,
                       const Run& run) const {
    if (active == nullptr) {
      if (cols > 0) run(std::size_t{0}, cols);
      return;
    }
    const std::size_t blocks = cols / block_cols;
    const std::uint8_t* flags = active + (row / block_rows) * blocks;
    std::size_t start = 0;
    for (std::size_t b = 0; b <= blocks; ++b) {
      if (b < blocks && flags[b] != 0) continue;
      if (start < b * block_cols) run(start, b * block_cols);
      start = (b + 1) * block_cols;
    }
  }

  /// Zeroes weight row `row` (`cols` entries at w_row) in its masked
  /// blocks, then where its keep-mask drops an entry.
  void apply_row(std::size_t row, float* w_row, std::size_t cols) const;

  /// apply_row over every row of `w`, in row panels over the pool.
  void apply(tensor::MatrixF& w) const;
};

class Engine {
 public:
  virtual ~Engine() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// S = X * W + bias_row ; X is [batch x n_in], W is [n_in x n_out],
  /// bias has n_out entries, S is [batch x n_out] (resized by callee).
  virtual void support(const tensor::MatrixF& x, const tensor::MatrixF& w,
                       const float* bias, tensor::MatrixF& s) = 0;

  /// support(x, w, bias, s) for a W whose blocks `mask` masks hold +0.0
  /// (the layer's W after recompute_weights or learn_batch). The default
  /// calls support; an override may skip the masked blocks' products and
  /// must give support's bits.
  virtual void support_masked(const tensor::MatrixF& x,
                              const tensor::MatrixF& w, const float* bias,
                              const WeightMask& mask, tensor::MatrixF& s);

  /// Per-hypercolumn softmax over blocks of `mcus_per_hcu` columns.
  virtual void softmax_hcu(tensor::MatrixF& s, std::size_t mcus_per_hcu,
                           float inverse_temperature) = 0;

  /// Batch trace update with learning rate alpha:
  ///   p_i  += alpha * (mean_b x_bi      - p_i)
  ///   p_j  += alpha * (mean_b a_bj      - p_j)
  ///   p_ij += alpha * (mean_b x_bi a_bj - p_ij)
  virtual void update_traces(const tensor::MatrixF& x,
                             const tensor::MatrixF& a, float alpha, float* pi,
                             float* pj, tensor::MatrixF& pij) = 0;

  /// Bayesian weight recomputation from traces, with probability floor eps:
  ///   w_ij = log(max(p_ij,eps') / (max(p_i,eps) * max(p_j,eps)))
  ///   b_j  = k_beta * log(max(p_j, eps))
  virtual void recompute_weights(const float* pi, const float* pj,
                                 const tensor::MatrixF& pij, float eps,
                                 float k_beta, tensor::MatrixF& w,
                                 float* bias) = 0;

  /// One training batch: update_traces(x, a, alpha, ...), then
  /// recompute_weights(..., eps, k_beta, w, bias), then mask.apply(w).
  /// That composition is the default; an override must give its bits.
  virtual void learn_batch(const tensor::MatrixF& x, const tensor::MatrixF& a,
                           float alpha, float eps, float k_beta,
                           const WeightMask& mask, float* pi, float* pj,
                           tensor::MatrixF& pij, tensor::MatrixF& w,
                           float* bias);
};

}  // namespace streambrain::parallel
