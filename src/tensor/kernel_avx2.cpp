// AVX2+FMA kernel tier. The shared bodies are compiled with
// -mavx2 -mfma -fopenmp-simd -fno-trapping-math (8 float lanes); the GEMM
// tile is replaced by a hand-written micro-kernel with 4-row x 16-column
// register blocking, which loads each B panel row once per 4 rows of A
// and keeps 8 FMA accumulators live. A B of at most 4 columns (a
// classifier head) puts 16 rows of A in lanes instead. The zero-skipping
// rows kernel is replaced with the wide tile, so all keep the same FMA
// arithmetic. When the build lacks the flags this TU degrades to a null
// tier.

#include "tensor/kernel_tiers.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

// NOTE: no shared headers with inline function definitions beyond the
// vtable/tier plumbing — see k_exp2i in kernel_impl.inl for why.
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace streambrain::tensor {
namespace avx2_impl {

// Gather+FMA sparse dot, declared ahead of the shared bodies because
// k_spmv/k_spmm in kernel_impl.inl call it. Two 8-lane accumulators hide
// part of the gather latency; the scalar tail keeps ascending-column
// order so the tolerance analysis matches the other reductions.
inline float k_spdot(const float* values, const std::uint32_t* col_idx,
                     std::size_t nnz, const float* x) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t p = 0;
  for (; p + 16 <= nnz; p += 16) {
    const __m256i idx0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col_idx + p));
    const __m256i idx1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col_idx + p + 8));
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(values + p),
                           _mm256_i32gather_ps(x, idx0, 4), acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(values + p + 8),
                           _mm256_i32gather_ps(x, idx1, 4), acc1);
  }
  for (; p + 8 <= nnz; p += 8) {
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col_idx + p));
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(values + p),
                           _mm256_i32gather_ps(x, idx, 4), acc0);
  }
  acc0 = _mm256_add_ps(acc0, acc1);
  __m128 half = _mm_add_ps(_mm256_castps256_ps128(acc0),
                           _mm256_extractf128_ps(acc0, 1));
  half = _mm_hadd_ps(half, half);
  half = _mm_hadd_ps(half, half);
  float acc = _mm_cvtss_f32(half);
  for (; p < nnz; ++p) acc += values[p] * x[col_idx[p]];
  return acc;
}

// Widening int8 block dot for the quantized kernels, declared ahead of
// the shared bodies because k_qgemv in kernel_impl.inl calls it. One
// maddubs (u8 x i8 -> pairwise i16 sums; the driver caps activation
// codes at 127, so 2 * 127 * 127 = 32258 never saturates) feeds one
// madd-by-ones widen to i32 per 32 codes — 4x the elements per vector
// of the fp32 dot. Integer accumulation is exact, so the horizontal
// reduction order is free and the result is bit-identical to the
// scalar tier's ordered loop.
inline std::int32_t k_qblock_dot(const std::int8_t* qa,
                                 const std::uint8_t* qx, std::size_t n) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i acc = _mm256_setzero_si256();
  std::size_t j = 0;
  for (; j + 32 <= n; j += 32) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(qa + j));
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(qx + j));
    const __m256i pairs = _mm256_maddubs_epi16(x, a);
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(pairs, ones));
  }
  __m128i half = _mm_add_epi32(_mm256_castsi256_si128(acc),
                               _mm256_extracti128_si256(acc, 1));
  half = _mm_add_epi32(half, _mm_shuffle_epi32(half, _MM_SHUFFLE(1, 0, 3, 2)));
  half = _mm_add_epi32(half, _mm_shuffle_epi32(half, _MM_SHUFFLE(2, 3, 0, 1)));
  std::int32_t total = _mm_cvtsi128_si32(half);
  for (; j < n; ++j) {
    total += static_cast<std::int32_t>(qa[j]) * static_cast<std::int32_t>(qx[j]);
  }
  return total;
}

// The softmax's 8 index-order sums in the lanes of one vector: each
// 8 x 8 tile of the blocks is transposed, so lane b adds block b's
// values one after another, a float add each as in the scalar loop.
inline void k_block_sums8(float* const* blocks, std::size_t n,
                          float* totals) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 r0 = _mm256_loadu_ps(blocks[0] + i);
    const __m256 r1 = _mm256_loadu_ps(blocks[1] + i);
    const __m256 r2 = _mm256_loadu_ps(blocks[2] + i);
    const __m256 r3 = _mm256_loadu_ps(blocks[3] + i);
    const __m256 r4 = _mm256_loadu_ps(blocks[4] + i);
    const __m256 r5 = _mm256_loadu_ps(blocks[5] + i);
    const __m256 r6 = _mm256_loadu_ps(blocks[6] + i);
    const __m256 r7 = _mm256_loadu_ps(blocks[7] + i);
    // Pairs of rows interleaved: t0 = r0[0] r1[0] r0[1] r1[1] | [4] [5].
    const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
    const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
    const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
    const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
    const __m256 t4 = _mm256_unpacklo_ps(r4, r5);
    const __m256 t5 = _mm256_unpackhi_ps(r4, r5);
    const __m256 t6 = _mm256_unpacklo_ps(r6, r7);
    const __m256 t7 = _mm256_unpackhi_ps(r6, r7);
    // Quads: s_k holds column k of rows 0-3 (4-7 for s4-s7), with column
    // k + 4 in the high half.
    const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
    acc = _mm256_add_ps(acc, _mm256_permute2f128_ps(s0, s4, 0x20));
    acc = _mm256_add_ps(acc, _mm256_permute2f128_ps(s1, s5, 0x20));
    acc = _mm256_add_ps(acc, _mm256_permute2f128_ps(s2, s6, 0x20));
    acc = _mm256_add_ps(acc, _mm256_permute2f128_ps(s3, s7, 0x20));
    acc = _mm256_add_ps(acc, _mm256_permute2f128_ps(s0, s4, 0x31));
    acc = _mm256_add_ps(acc, _mm256_permute2f128_ps(s1, s5, 0x31));
    acc = _mm256_add_ps(acc, _mm256_permute2f128_ps(s2, s6, 0x31));
    acc = _mm256_add_ps(acc, _mm256_permute2f128_ps(s3, s7, 0x31));
  }
  _mm256_storeu_ps(totals, acc);
  for (; i < n; ++i) {
    for (std::size_t b = 0; b < 8; ++b) totals[b] += blocks[b][i];
  }
}

}  // namespace avx2_impl
}  // namespace streambrain::tensor

#define SB_KERNEL_CUSTOM_BLOCK_SUMS
#define SB_KERNEL_CUSTOM_SPDOT
#define SB_KERNEL_CUSTOM_QBLOCK_DOT
#define SB_KERNEL_CUSTOM_GEMM_BLOCK
#define SB_KERNEL_NS avx2_impl
#define SB_SIMD_LOOP _Pragma("omp simd")
#define SB_SIMD_REDUCE(...) _Pragma(SB_PRAGMA_STR(omp simd reduction(__VA_ARGS__)))
#define SB_PRAGMA_STR(x) #x
#include "tensor/kernel_impl.inl"
#undef SB_KERNEL_NS
#undef SB_SIMD_LOOP
#undef SB_SIMD_REDUCE
#undef SB_PRAGMA_STR
#undef SB_KERNEL_CUSTOM_GEMM_BLOCK
#undef SB_KERNEL_CUSTOM_QBLOCK_DOT
#undef SB_KERNEL_CUSTOM_SPDOT
#undef SB_KERNEL_CUSTOM_BLOCK_SUMS

namespace streambrain::tensor {
namespace avx2_impl {

namespace {

// One row of C over the column range [0, n): c_row += alpha * a_row . B.
// k ascends for every element, matching the generic tier's order.
inline void gemm_row1(float alpha, const float* a_row, const float* b,
                      std::size_t ldb, float* c_row, std::size_t n,
                      std::size_t k) {
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    __m256 acc0 = _mm256_loadu_ps(c_row + j);
    __m256 acc1 = _mm256_loadu_ps(c_row + j + 8);
    for (std::size_t p = 0; p < k; ++p) {
      const __m256 av = _mm256_set1_ps(alpha * a_row[p]);
      const float* b_row = b + p * ldb + j;
      acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b_row), acc0);
      acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b_row + 8), acc1);
    }
    _mm256_storeu_ps(c_row + j, acc0);
    _mm256_storeu_ps(c_row + j + 8, acc1);
  }
  for (; j + 8 <= n; j += 8) {
    __m256 acc = _mm256_loadu_ps(c_row + j);
    for (std::size_t p = 0; p < k; ++p) {
      const __m256 av = _mm256_set1_ps(alpha * a_row[p]);
      acc = _mm256_fmadd_ps(av, _mm256_loadu_ps(b + p * ldb + j), acc);
    }
    _mm256_storeu_ps(c_row + j, acc);
  }
  for (; j < n; ++j) {
    float acc = c_row[j];
    for (std::size_t p = 0; p < k; ++p) {
      acc = std::fma(alpha * a_row[p], b[p * ldb + j], acc);
    }
    c_row[j] = acc;
  }
}

// Four rows of C at once: each B panel row is loaded once and feeds four
// FMA accumulator pairs, quadrupling the arithmetic per byte of B.
inline void gemm_rows4(float alpha, const float* a, std::size_t lda,
                       const float* b, std::size_t ldb, float* c,
                       std::size_t ldc, std::size_t n, std::size_t k) {
  const float* a0 = a;
  const float* a1 = a + lda;
  const float* a2 = a + 2 * lda;
  const float* a3 = a + 3 * lda;
  float* c0 = c;
  float* c1 = c + ldc;
  float* c2 = c + 2 * ldc;
  float* c3 = c + 3 * ldc;

  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    __m256 r00 = _mm256_loadu_ps(c0 + j), r01 = _mm256_loadu_ps(c0 + j + 8);
    __m256 r10 = _mm256_loadu_ps(c1 + j), r11 = _mm256_loadu_ps(c1 + j + 8);
    __m256 r20 = _mm256_loadu_ps(c2 + j), r21 = _mm256_loadu_ps(c2 + j + 8);
    __m256 r30 = _mm256_loadu_ps(c3 + j), r31 = _mm256_loadu_ps(c3 + j + 8);
    for (std::size_t p = 0; p < k; ++p) {
      const float* b_row = b + p * ldb + j;
      const __m256 b0 = _mm256_loadu_ps(b_row);
      const __m256 b1 = _mm256_loadu_ps(b_row + 8);
      __m256 av = _mm256_set1_ps(alpha * a0[p]);
      r00 = _mm256_fmadd_ps(av, b0, r00);
      r01 = _mm256_fmadd_ps(av, b1, r01);
      av = _mm256_set1_ps(alpha * a1[p]);
      r10 = _mm256_fmadd_ps(av, b0, r10);
      r11 = _mm256_fmadd_ps(av, b1, r11);
      av = _mm256_set1_ps(alpha * a2[p]);
      r20 = _mm256_fmadd_ps(av, b0, r20);
      r21 = _mm256_fmadd_ps(av, b1, r21);
      av = _mm256_set1_ps(alpha * a3[p]);
      r30 = _mm256_fmadd_ps(av, b0, r30);
      r31 = _mm256_fmadd_ps(av, b1, r31);
    }
    _mm256_storeu_ps(c0 + j, r00);
    _mm256_storeu_ps(c0 + j + 8, r01);
    _mm256_storeu_ps(c1 + j, r10);
    _mm256_storeu_ps(c1 + j + 8, r11);
    _mm256_storeu_ps(c2 + j, r20);
    _mm256_storeu_ps(c2 + j + 8, r21);
    _mm256_storeu_ps(c3 + j, r30);
    _mm256_storeu_ps(c3 + j + 8, r31);
  }
  if (j < n) {
    gemm_row1(alpha, a0, b + j, ldb, c0 + j, n - j, k);
    gemm_row1(alpha, a1, b + j, ldb, c1 + j, n - j, k);
    gemm_row1(alpha, a2, b + j, ldb, c2 + j, n - j, k);
    gemm_row1(alpha, a3, b + j, ldb, c3 + j, n - j, k);
  }
}

// C[16 x N] blocks for N <= 4 columns, rows in lanes: per k,
// two gathers load A's column p for 16 rows (lane r reads a[r * lda + p]),
// alpha scales them per lane, and one broadcast of B[p][j] per column
// feeds one fmadd per 8 rows. Each lane thus runs gemm_row1's tail chain
// acc = fma(alpha * a_ip, b_pj, acc) in the same ascending k, so C gets
// the same bits. Returns the number of rows done (a multiple of 16); the
// caller runs the rest. gemm_row1 runs every n < 8 as one scalar FMA
// chain per element; up to N = 4 the 2 x N accumulators fit in registers.
template <std::size_t N>
std::size_t gemm_narrow_rows16(float alpha, const float* a, std::size_t lda,
                               const float* b, std::size_t ldb, float* c,
                               std::size_t ldc, std::size_t mr,
                               std::size_t k) {
  const __m256i offsets = _mm256_mullo_epi32(
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
      _mm256_set1_epi32(static_cast<int>(lda)));
  const __m256 alpha_v = _mm256_set1_ps(alpha);
  alignas(32) float column[16];
  std::size_t i = 0;
  for (; i + 16 <= mr; i += 16) {
    const float* a_lo = a + i * lda;
    const float* a_hi = a_lo + 8 * lda;
    float* c_block = c + i * ldc;
    __m256 lo[N];
    __m256 hi[N];
    for (std::size_t j = 0; j < N; ++j) {
      for (std::size_t r = 0; r < 16; ++r) column[r] = c_block[r * ldc + j];
      lo[j] = _mm256_load_ps(column);
      hi[j] = _mm256_load_ps(column + 8);
    }
    for (std::size_t p = 0; p < k; ++p) {
      const __m256 av_lo =
          _mm256_mul_ps(alpha_v, _mm256_i32gather_ps(a_lo + p, offsets, 4));
      const __m256 av_hi =
          _mm256_mul_ps(alpha_v, _mm256_i32gather_ps(a_hi + p, offsets, 4));
      const float* b_row = b + p * ldb;
      for (std::size_t j = 0; j < N; ++j) {
        const __m256 bv = _mm256_broadcast_ss(b_row + j);
        lo[j] = _mm256_fmadd_ps(av_lo, bv, lo[j]);
        hi[j] = _mm256_fmadd_ps(av_hi, bv, hi[j]);
      }
    }
    for (std::size_t j = 0; j < N; ++j) {
      _mm256_store_ps(column, lo[j]);
      _mm256_store_ps(column + 8, hi[j]);
      for (std::size_t r = 0; r < 16; ++r) c_block[r * ldc + j] = column[r];
    }
  }
  return i;
}

// Rows gemm_narrow_rows16 covers: none when n is too wide or when the
// gather offsets 7 * lda would overflow their int32 lanes.
std::size_t gemm_narrow(float alpha, const float* a, std::size_t lda,
                        const float* b, std::size_t ldb, float* c,
                        std::size_t ldc, std::size_t mr, std::size_t n,
                        std::size_t k) {
  if (lda > static_cast<std::size_t>(INT32_MAX) / 7) return 0;
  switch (n) {
    case 1:
      return gemm_narrow_rows16<1>(alpha, a, lda, b, ldb, c, ldc, mr, k);
    case 2:
      return gemm_narrow_rows16<2>(alpha, a, lda, b, ldb, c, ldc, mr, k);
    case 3:
      return gemm_narrow_rows16<3>(alpha, a, lda, b, ldb, c, ldc, mr, k);
    case 4:
      return gemm_narrow_rows16<4>(alpha, a, lda, b, ldb, c, ldc, mr, k);
    default:
      return 0;
  }
}

}  // namespace

inline void k_gemm_block(float alpha, const float* a, std::size_t lda,
                         const float* b, std::size_t ldb, float* c,
                         std::size_t ldc, std::size_t mr, std::size_t n,
                         std::size_t k) {
  std::size_t i = gemm_narrow(alpha, a, lda, b, ldb, c, ldc, mr, n, k);
  for (; i + 4 <= mr; i += 4) {
    gemm_rows4(alpha, a + i * lda, lda, b, ldb, c + i * ldc, ldc, n, k);
  }
  for (; i < mr; ++i) {
    gemm_row1(alpha, a + i * lda, b, ldb, c + i * ldc, n, k);
  }
}

// Zero-skipping rows with the dense tile's arithmetic: per 32-column
// strip, four FMA accumulators run over the row's stored entries in
// ascending k, each term fmadd(alpha * a_p, B[p], acc) exactly as in
// gemm_row1/gemm_rows4 (std::fma in the ragged tail), so every C element
// sees the dense sequence minus its zero terms.
inline void k_gemm_sparse_rows(float alpha, const float* values,
                               const std::uint32_t* col_idx,
                               const std::uint64_t* row_ptr, std::size_t mr,
                               const float* b, std::size_t ldb, float* c,
                               std::size_t ldc, std::size_t n) {
  for (std::size_t i = 0; i < mr; ++i) {
    const std::uint64_t begin = row_ptr[i];
    const std::uint64_t end = row_ptr[i + 1];
    float* c_row = c + i * ldc;
    std::size_t j = 0;
    for (; j + 32 <= n; j += 32) {
      __m256 acc0 = _mm256_loadu_ps(c_row + j);
      __m256 acc1 = _mm256_loadu_ps(c_row + j + 8);
      __m256 acc2 = _mm256_loadu_ps(c_row + j + 16);
      __m256 acc3 = _mm256_loadu_ps(c_row + j + 24);
      for (std::uint64_t q = begin; q < end; ++q) {
        const __m256 av = _mm256_set1_ps(alpha * values[q]);
        const float* b_row = b + col_idx[q] * ldb + j;
        acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b_row), acc0);
        acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b_row + 8), acc1);
        acc2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b_row + 16), acc2);
        acc3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b_row + 24), acc3);
      }
      _mm256_storeu_ps(c_row + j, acc0);
      _mm256_storeu_ps(c_row + j + 8, acc1);
      _mm256_storeu_ps(c_row + j + 16, acc2);
      _mm256_storeu_ps(c_row + j + 24, acc3);
    }
    for (; j + 8 <= n; j += 8) {
      __m256 acc = _mm256_loadu_ps(c_row + j);
      for (std::uint64_t q = begin; q < end; ++q) {
        const __m256 av = _mm256_set1_ps(alpha * values[q]);
        acc = _mm256_fmadd_ps(av, _mm256_loadu_ps(b + col_idx[q] * ldb + j),
                              acc);
      }
      _mm256_storeu_ps(c_row + j, acc);
    }
    for (; j < n; ++j) {
      float acc = c_row[j];
      for (std::uint64_t q = begin; q < end; ++q) {
        acc = std::fma(alpha * values[q], b[col_idx[q] * ldb + j], acc);
      }
      c_row[j] = acc;
    }
  }
}

}  // namespace avx2_impl

namespace detail {

const KernelSet* kernel_set_avx2() noexcept {
  using namespace streambrain::tensor::avx2_impl;
  static const KernelSet set = {
      .level = DispatchLevel::kAvx2,
      .name = dispatch_level_name(DispatchLevel::kAvx2),
      .simd_width = dispatch_level_width(DispatchLevel::kAvx2),
      .axpy = &k_axpy,
      .scale = &k_scale,
      .dot = &k_dot,
      .sum = &k_sum,
      .reduce_max = &k_reduce_max,
      .ema_update = &k_ema_update,
      .relu = &k_relu,
      .threshold_mask = &k_threshold_mask,
      .vexp = &k_vexp,
      .vlog_floored = &k_vlog_floored,
      .softmax_blocks = &k_softmax_blocks,
      .gemv = &k_gemv,
      .gemm_block = &k_gemm_block,
      .gemm_sparse_rows = &k_gemm_sparse_rows,
      .momentum_update = &k_momentum_update,
      .spmv = &k_spmv,
      .spmm = &k_spmm,
      .qgemv = &k_qgemv,
      .qgemm = &k_qgemm,
      .qspmv = &k_qspmv,
  };
  return &set;
}

}  // namespace detail
}  // namespace streambrain::tensor

#else  // !(__AVX2__ && __FMA__)

namespace streambrain::tensor::detail {
const KernelSet* kernel_set_avx2() noexcept { return nullptr; }
}  // namespace streambrain::tensor::detail

#endif
