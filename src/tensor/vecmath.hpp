#pragma once
// Fast transcendental approximations for the BCPNN hot loops.
//
// BCPNN spends its non-GEMM time in exp (softmax) and log (weight
// recomputation from probability traces). `fast_exp`/`fast_log` are
// polynomial approximations accurate to ~2e-7 relative error over the
// ranges BCPNN uses. They are defined inline here so each SIMD kernel
// translation unit (scalar / SSE4.2 / AVX2) inlines and vectorizes them
// under its own target flags. The `v*` array variants route through the
// runtime-dispatched KernelSet (tensor/kernel_set.hpp).

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace streambrain::tensor {

namespace detail {

// 2^k with k in float-exponent range, built by bit manipulation.
inline float exp2i(int k) noexcept {
  return std::bit_cast<float>(static_cast<std::uint32_t>(k + 127) << 23);
}

}  // namespace detail

/// exp(x) via exponent extraction + degree-5 polynomial on the reduced
/// argument. Clamps to avoid overflow; max relative error ~ 2e-7.
inline float fast_exp(float x) noexcept {
  // Clamp: exp(-87) ~ float-min, exp(88) ~ float-max.
  if (x > 88.0f) x = 88.0f;
  if (x < -87.0f) return 0.0f;

  // x = k*ln2 + r with r in [-ln2/2, ln2/2].
  constexpr float kLog2E = 1.442695040888963f;
  constexpr float kLn2Hi = 0.693145751953125f;
  constexpr float kLn2Lo = 1.428606765330187e-06f;
  // k = x * log2(e) rounded to nearest even, without a libm call: on the
  // clamped range |x * log2(e)| < 2^22, so the sum with 1.5 * 2^23 lies
  // in [2^23, 2^24), where floats are the integers and the add rounds as
  // nearbyint does in the default rounding mode; the subtract is exact.
  // The + 0.0f keeps the product rounded on its own where the compiler
  // contracts a multiply and an add into an FMA: the contracted form
  // fma(x, log2(e), 0) rounds the same product, while a contracted
  // fma(x, log2(e), 1.5 * 2^23) would round the exact product to an
  // integer, which differs from nearbyint of the rounded product at some
  // inputs whose product lies near a half-integer.
  constexpr float kRoundShift = 12582912.0f;
  const float scaled = x * kLog2E + 0.0f;
  const float kf = (scaled + kRoundShift) - kRoundShift;
  const int k = static_cast<int>(kf);
  const float r = (x - kf * kLn2Hi) - kf * kLn2Lo;

  // Degree-5 minimax polynomial for exp(r) on [-ln2/2, ln2/2].
  float p = 1.9875691500e-4f;
  p = p * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  const float er = 1.0f + r + r * r * p;
  return er * detail::exp2i(k);
}

/// log(x) via mantissa/exponent split + degree-7 polynomial (atanh form).
/// Defined for x > 0; returns a large negative value for x <= 0 (callers
/// floor probabilities at eps, so this path only guards against bugs).
inline float fast_log(float x) noexcept {
  if (x <= 0.0f) return -87.0f;  // callers floor probabilities; guard only
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(x);
  int exponent = static_cast<int>(bits >> 23) - 127;
  float mantissa =
      std::bit_cast<float>((bits & 0x007FFFFFu) | 0x3F800000u);  // [1,2)
  // Normalize mantissa into [sqrt(2)/2, sqrt(2)) for symmetry.
  if (mantissa > 1.41421356f) {
    mantissa *= 0.5f;
    ++exponent;
  }
  const float f = mantissa - 1.0f;
  // log(1+f) via atanh-style polynomial (from cephes logf).
  float p = 7.0376836292e-2f;
  p = p * f - 1.1514610310e-1f;
  p = p * f + 1.1676998740e-1f;
  p = p * f - 1.2420140846e-1f;
  p = p * f + 1.4249322787e-1f;
  p = p * f - 1.6668057665e-1f;
  p = p * f + 2.0000714765e-1f;
  p = p * f - 2.4999993993e-1f;
  p = p * f + 3.3333331174e-1f;
  const float f2 = f * f;
  float result = f - 0.5f * f2 + f2 * f * p;
  constexpr float kLn2 = 0.6931471805599453f;
  result += static_cast<float>(exponent) * kLn2;
  return result;
}

/// out[i] = exp(x[i]).
void vexp(const float* x, float* out, std::size_t n) noexcept;

/// out[i] = log(x[i]).
void vlog(const float* x, float* out, std::size_t n) noexcept;

/// out[i] = log(max(x[i], floor)) — the trace-to-weight transform.
void vlog_floored(const float* x, float* out, float floor,
                  std::size_t n) noexcept;

}  // namespace streambrain::tensor
