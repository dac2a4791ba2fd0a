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
      DispatchLevel::kScalar,
      dispatch_level_name(DispatchLevel::kScalar),
      dispatch_level_width(DispatchLevel::kScalar),
      &k_axpy,
      &k_scale,
      &k_dot,
      &k_sum,
      &k_reduce_max,
      &k_ema_update,
      &k_relu,
      &k_threshold_mask,
      &k_vexp,
      &k_vlog_floored,
      &k_softmax_block,
      &k_gemv,
      &k_gemm_block,
      &k_gemm_sparse_rows,
      &k_momentum_update,
      &k_spmv,
      &k_spmm,
      &k_qgemv,
      &k_qgemm,
      &k_qspmv,
  };
  return &set;
}

}  // namespace streambrain::tensor::detail
