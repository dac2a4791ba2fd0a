// NEGATIVE-COMPILE CASES for the KernelSet tier tables. Every tier
// (src/tensor/kernel_{scalar,sse42,avx2}.cpp) fills its table with
// designated initializers in declaration order, and the build passes
// -Werror=missing-field-initializers. Together these reject a table that
// leaves a kernel out or wires two same-signature kernels to each
// other's slots. This file is that table over stub kernels:
//
//   (no define)       complete, in order: must compile clean;
//   -DSB_DROP_FIELD   leaves .qspmv out: must fail (missing initializer);
//   -DSB_SWAP_FIELDS  lists .reduce_max before .sum, which share a
//                     signature: must fail (designator order).

#include <cstddef>
#include <cstdint>

#include "tensor/kernel_set.hpp"

namespace st = streambrain::tensor;

namespace {

void axpy(float, const float*, float*, std::size_t) {}
void scale(float, float*, std::size_t) {}
float dot(const float*, const float*, std::size_t) { return 0.0f; }
float sum(const float*, std::size_t) { return 0.0f; }
float reduce_max(const float*, std::size_t) { return 0.0f; }
void ema_update(float*, const float*, float, std::size_t) {}
void relu(float*, std::size_t) {}
void threshold_mask(const float*, float, float*, std::size_t) {}
void vexp(const float*, float*, std::size_t) {}
void vlog_floored(const float*, float*, float, std::size_t) {}
void softmax_blocks(float*, std::size_t, std::size_t, std::size_t,
                    std::size_t, float) {}
void gemv(const float*, std::size_t, const float*, float*, std::size_t,
          std::size_t) {}
void gemm_block(float, const float*, std::size_t, const float*, std::size_t,
                float*, std::size_t, std::size_t, std::size_t, std::size_t) {}
void gemm_sparse_rows(float, const float*, const std::uint32_t*,
                      const std::uint64_t*, std::size_t, const float*,
                      std::size_t, float*, std::size_t, std::size_t) {}
void momentum_update(float, float, float, const float*, float*, float*,
                     std::size_t) {}
void spmv(const float*, const std::uint32_t*, const std::uint64_t*,
          std::size_t, const float*, float*) {}
void spmm(const float*, const std::uint32_t*, const std::uint64_t*,
          std::size_t, const float*, std::size_t, std::size_t, float*,
          std::size_t) {}
void qgemv(const std::int8_t*, const float*, std::size_t, const std::uint8_t*,
           float, float*, std::size_t, std::size_t) {}
void qgemm(const std::int8_t*, const float*, std::size_t, const std::uint8_t*,
           std::size_t, const float*, std::size_t, float*, std::size_t,
           std::size_t, std::size_t) {}
void qspmv(const std::int8_t*, const float*, const std::uint32_t*,
           const std::uint64_t*, std::size_t, const std::uint8_t*, float,
           float*) {}

}  // namespace

const st::KernelSet* stub_kernel_set() {
  static const st::KernelSet set = {
      .level = st::DispatchLevel::kScalar,
      .name = "stub",
      .simd_width = 1,
      .axpy = &axpy,
      .scale = &scale,
      .dot = &dot,
#ifdef SB_SWAP_FIELDS
      .reduce_max = &reduce_max,
      .sum = &sum,
#else
      .sum = &sum,
      .reduce_max = &reduce_max,
#endif
      .ema_update = &ema_update,
      .relu = &relu,
      .threshold_mask = &threshold_mask,
      .vexp = &vexp,
      .vlog_floored = &vlog_floored,
      .softmax_blocks = &softmax_blocks,
      .gemv = &gemv,
      .gemm_block = &gemm_block,
      .gemm_sparse_rows = &gemm_sparse_rows,
      .momentum_update = &momentum_update,
      .spmv = &spmv,
      .spmm = &spmm,
      .qgemv = &qgemv,
      .qgemm = &qgemm,
#ifndef SB_DROP_FIELD
      .qspmv = &qspmv,
#endif
  };
  return &set;
}
