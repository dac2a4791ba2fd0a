// Scalar kernel tier: the ordered correctness reference. Compiled with
// the project's baseline flags only — reductions accumulate strictly
// left-to-right (no reassociation pragma), which makes this tier's
// results platform-stable and the anchor for both the property tests and
// the golden-regression digests.

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "tensor/kernel_tiers.hpp"

#define SB_KERNEL_NS scalar_impl
#define SB_SIMD_LOOP
#define SB_SIMD_REDUCE(...)
#include "tensor/kernel_impl.inl"
#undef SB_KERNEL_NS
#undef SB_SIMD_LOOP
#undef SB_SIMD_REDUCE

namespace streambrain::tensor::detail {

const KernelSet* kernel_set_scalar() noexcept {
  using namespace streambrain::tensor::scalar_impl;
  static const KernelSet set = {
      .level = DispatchLevel::kScalar,
      .name = dispatch_level_name(DispatchLevel::kScalar),
      .simd_width = dispatch_level_width(DispatchLevel::kScalar),
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

}  // namespace streambrain::tensor::detail
