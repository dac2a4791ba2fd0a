#pragma once
// General matrix multiply kernels: C = alpha * op(A) * op(B) + beta * C.
//
// Four implementations with identical semantics:
//   gemm_naive     - triple loop, the correctness reference
//   gemm_blocked   - cache-blocked K panels through the runtime-dispatched
//                    SIMD tile kernel (tensor/kernel_set.hpp), row blocks
//                    fanned out over parallel::global_pool()
//   gemm_sparse_a  - skips the exact-zero entries of op(A): per-row lists
//                    of its nonzeros feed the tier's gemm_sparse_rows
//                    kernel, row ranges fanned out by work (nnz x n)
//   gemm           - the production entry point: gemm_sparse_a when op(A)
//                    has nonzeros at a density below
//                    kSparseDensityCrossover, gemm_blocked otherwise
//
// GemmRows runs gemm's zero-skipping path one row of C at a time, for the
// BCPNN training step that fuses its weight recompute into the same pass.
// gemm_nonzero_rows runs it on nonzero lists the caller already holds:
// the SGD head collects its hidden code's lists once per fit
// (collect_sparse_rows), and each batch gathers its rows' lists for the
// forward product and transposes them (transpose_nonzero_rows) for the
// weight gradient, instead of counting every batch's zeros twice.
//
// Zero-skip contract: skipping a zero entry of A drops terms that add
// exactly zero, so gemm_sparse_a (and therefore gemm) is bit-identical to
// gemm_blocked at every dispatch tier whenever B is finite (0 * inf is
// NaN, which the skip drops). Reference BLAS xGEMM has the same
// convention: it tests each A multiplier for zero before its inner loop.
// The BCPNN operands qualify: the hidden layer's input is a one-hot code
// (252 of every 280 entries zero), and B is always finite (floored-log
// weights, probability traces).
//
// Masked blocks: gemm_nonzero_blocks also skips, for each column block
// of C, the finite A entries whose row of B is zero in that block (the
// hidden layer's receptive-field-silenced weight blocks). A skipped term
// is then v * (+0.0), a signed zero. C starts at +0.0 (beta = 0), every
// tier computes each column with the same per-element chain (multiply
// then add at the generic tiers, one fused step at avx2, lanes and tail
// alike), so the blocks may run as column strips of their own. Adding a
// zero leaves every value but -0.0 alone, and turns -0.0 into +0.0 only
// when the zero is +0.0; it never makes a -0.0. So the skipping chain
// and the full one end equal, or at -0.0 and +0.0. A separately rounded
// sum (the generic tiers) never reaches -0.0 from +0.0; the avx2 FMA
// does when a kept product underflows to a negative zero.
// A row that skipped a term and holds a -0.0 therefore reruns over all
// its nonzeros, and the result is the unmasked one bit for bit.
//
// StreamBrain expresses both BCPNN activation (batch x weights) and the
// batched trace outer-product update as GEMM, so these kernels dominate
// training time exactly as the paper's Section II-B describes.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/matrix.hpp"

namespace streambrain::tensor {

enum class Transpose { kNo, kYes };

/// Reference implementation; always correct, never fast.
void gemm_naive(Transpose trans_a, Transpose trans_b, float alpha,
                const MatrixF& a, const MatrixF& b, float beta, MatrixF& c);

/// Cache-blocked implementation, row panels over the ThreadPool.
void gemm_blocked(Transpose trans_a, Transpose trans_b, float alpha,
                  const MatrixF& a, const MatrixF& b, float beta, MatrixF& c);

/// Zero-skipping implementation, whatever A's density: bit-identical to
/// gemm_blocked at the active tier when B is finite (see above).
void gemm_sparse_a(Transpose trans_a, Transpose trans_b, float alpha,
                   const MatrixF& a, const MatrixF& b, float beta,
                   MatrixF& c);

/// Share of nonzero op(A) entries below which gemm takes the zero-skipping
/// path. bench_kernels' "gemm_sparse_a" density sweep places it: at the
/// default fan-out the AVX2 tile overtakes the skipping kernel between
/// densities 0.35 and 0.4 at 64 x 280 x 300 (above 0.5 at 256 x 280 x
/// 3000), and the scalar and SSE4.2 tiers still skip profitably at 0.5.
/// 0.25 keeps a margin below the earliest crossover; one-hot inputs sit
/// at 0.1 and the dense operands near 1, far from either side.
inline constexpr double kSparseDensityCrossover = 0.25;

/// Production entry point: gemm_sparse_a for sparse op(A) (density below
/// kSparseDensityCrossover, at least one nonzero), gemm_blocked for dense,
/// empty and all-zero operands. Bit-identical to gemm_blocked either way
/// when B is finite.
void gemm(Transpose trans_a, Transpose trans_b, float alpha, const MatrixF& a,
          const MatrixF& b, float beta, MatrixF& c);

/// A matrix's nonzero entries, row by row in ascending column (CSR
/// layout): row i holds (col_idx[q], values[q]) for q in [row_ptr[i],
/// row_ptr[i + 1]). gemm collects them for its zero-skipping path; a
/// caller that multiplies the same rows many times collects them once.
struct NonzeroRows {
  std::vector<std::uint64_t> row_ptr;
  std::vector<std::uint32_t> col_idx;
  std::vector<float> values;

  [[nodiscard]] std::size_t rows() const noexcept {
    return row_ptr.empty() ? 0 : row_ptr.size() - 1;
  }
};

/// gemm's choice for A (trans_a = kNo): returns true, with A's nonzero
/// lists in `rows`, when A has nonzeros at a density below
/// kSparseDensityCrossover; false otherwise. Its count gives up as soon
/// as the crossover is passed, so a dense A costs a fraction of one
/// compare pass.
bool collect_sparse_rows(const MatrixF& a, NonzeroRows& rows);

/// The nonzero lists of A^T (cols x a.rows()) from A's, by a counting
/// scatter over A's entries only: each row of A^T lists A's rows in
/// ascending order, the lists gemm collects for Transpose::kYes.
void transpose_nonzero_rows(const NonzeroRows& a, std::size_t cols,
                            NonzeroRows& out);

/// C = alpha * A * B + beta * C with A [a.rows() x b.rows()] given by its
/// nonzero lists: gemm's zero-skipping path, bit-identical to
/// gemm_blocked over the dense A the lists describe when B is finite.
void gemm_nonzero_rows(float alpha, const NonzeroRows& a, const MatrixF& b,
                       float beta, MatrixF& c);

/// C = A * B with A [a.rows() x b.rows()] given by its nonzero lists, for
/// a B whose (block_rows x block_cols) blocks flagged 0 in `active`
/// (row-major, b.rows() / block_rows x b.cols() / block_cols) hold only
/// zeros: a block's finite A entries are skipped along with it. The bits
/// are gemm_nonzero_rows(1, a, b, 0, c)'s (the masked blocks above); a
/// null `active` skips no block. Throws std::invalid_argument on a
/// dimension mismatch or a grid that does not divide B.
void gemm_nonzero_blocks(const NonzeroRows& a, const MatrixF& b,
                         std::size_t block_rows, std::size_t block_cols,
                         const std::uint8_t* active, MatrixF& c);

/// gemm(trans_a, Transpose::kNo, alpha, a, b, beta, c) one row of C at a
/// time, for a caller that fuses its own per-row work into the same pass
/// over C. Reuse one object across products: its buffers keep their
/// capacity. `a` and `b` must outlive the row() calls.
class GemmRows {
 public:
  /// Makes gemm's choice for this product. Returns true, with op(A)'s
  /// nonzero lists collected, when gemm would take the zero-skipping path;
  /// false when it would take the dense one (call gemm then). Throws
  /// std::invalid_argument on a dimension mismatch, as gemm does.
  bool reset(Transpose trans_a, float alpha, const MatrixF& a,
             const MatrixF& b, float beta, const MatrixF& c);

  /// Row i of C (n = b.cols() entries): scaled by beta, then updated from
  /// op(A) row i's nonzeros, or by gemm_block's dense row where the
  /// scaled row holds a -0.0. When B is finite this is, bit for bit, row
  /// i of gemm's result (whose -0.0 fallback covers the whole matrix), in
  /// any row order and on any thread. Valid after reset() returned true.
  void row(std::size_t i, float* c_row) const;

 private:
  const MatrixF* a_ = nullptr;
  const float* b_ = nullptr;
  Transpose trans_a_ = Transpose::kNo;
  float alpha_ = 0.0f;
  float beta_ = 0.0f;
  std::size_t n_ = 0;
  std::size_t k_ = 0;
  NonzeroRows nonzeros_;
};

/// Convenience: C = A * B with fresh output.
MatrixF matmul(const MatrixF& a, const MatrixF& b);

}  // namespace streambrain::tensor
