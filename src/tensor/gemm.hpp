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
// Zero-skip contract: skipping a zero entry of A drops terms that add
// exactly zero, so gemm_sparse_a (and therefore gemm) is bit-identical to
// gemm_blocked at every dispatch tier whenever B is finite (0 * inf is
// NaN, which the skip drops). Reference BLAS xGEMM has the same
// convention: it tests each A multiplier for zero before its inner loop.
// The BCPNN operands qualify: the hidden layer's input is a one-hot code
// (252 of every 280 entries zero), and B is always finite (floored-log
// weights, probability traces).
//
// StreamBrain expresses both BCPNN activation (batch x weights) and the
// batched trace outer-product update as GEMM, so these kernels dominate
// training time exactly as the paper's Section II-B describes.

#include <cstddef>

#include "tensor/matrix.hpp"

namespace streambrain::tensor {

enum class Transpose { kNo, kYes };

/// Reference implementation; always correct, never fast.
void gemm_naive(Transpose trans_a, Transpose trans_b, float alpha,
                const MatrixF& a, const MatrixF& b, float beta, MatrixF& c);

/// Cache-blocked + OpenMP implementation.
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

/// Convenience: C = A * B with fresh output.
MatrixF matmul(const MatrixF& a, const MatrixF& b);

namespace detail {

/// Upper bound on concurrent compute tasks a blocked kernel driver may
/// fan out over the ThreadPool (STREAMBRAIN_THREADS wins, then
/// OMP_NUM_THREADS, then the pool size). Shared by the dense GEMM driver
/// and the sparse spmm driver so both honor the same pinning contract.
std::size_t max_compute_tasks();

}  // namespace detail

}  // namespace streambrain::tensor
