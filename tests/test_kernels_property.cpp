// Property-based kernel tests: for randomized shapes, strides, and
// seeds, every SIMD kernel tier (sse42 / avx2, when the host supports
// them) must match the ordered scalar reference within 1e-5 relative
// tolerance — including ragged tails (n % simd_width != 0), empty
// inputs, and aliased outputs. This is the contract that lets the
// dispatcher swap tiers without changing learned behavior.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "tensor/cpu_features.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernel_set.hpp"
#include "tensor/matrix.hpp"
#include "tensor/vecmath.hpp"
#include "util/rng.hpp"

namespace st = streambrain::tensor;
namespace su = streambrain::util;

namespace {

constexpr float kRelTol = 1e-5f;
constexpr float kAbsTol = 1e-6f;

::testing::AssertionResult near_ref(float reference, float actual) {
  const float bound =
      kAbsTol + kRelTol * std::max(std::abs(reference), std::abs(actual));
  if (std::abs(reference - actual) <= bound) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "reference=" << reference << " actual=" << actual
         << " |diff|=" << std::abs(reference - actual) << " > " << bound;
}

/// Reductions can cancel: the rounding error of reordered accumulation
/// scales with the magnitude of the summed terms, not with the (possibly
/// near-zero) result — so the relative tolerance is taken against the
/// term magnitude `mag` = sum |terms|.
::testing::AssertionResult near_reduced(float reference, float actual,
                                        float mag) {
  const float bound = kAbsTol + kRelTol * (std::abs(reference) + mag);
  if (std::abs(reference - actual) <= bound) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "reference=" << reference << " actual=" << actual
         << " |diff|=" << std::abs(reference - actual) << " > " << bound
         << " (mag=" << mag << ")";
}

/// The non-scalar tiers this host can run (may be empty on exotic CPUs;
/// every test degrades to a no-op there rather than failing).
std::vector<const st::KernelSet*> simd_tiers() {
  std::vector<const st::KernelSet*> tiers;
  for (const st::DispatchLevel level :
       {st::DispatchLevel::kSse42, st::DispatchLevel::kAvx2}) {
    if (const st::KernelSet* set = st::kernel_set_for(level)) {
      tiers.push_back(set);
    }
  }
  return tiers;
}

const st::KernelSet& scalar_tier() {
  const st::KernelSet* set = st::kernel_set_for(st::DispatchLevel::kScalar);
  EXPECT_NE(set, nullptr);
  return *set;
}

std::vector<float> random_vector(std::size_t n, su::Rng& rng, float lo,
                                 float hi) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform(lo, hi));
  return v;
}

/// Sizes that deliberately straddle every tier's lane width: empty,
/// single element, one vector, vector +/- 1 (ragged tails), and larger
/// blocks with remainders.
const std::vector<std::size_t>& probe_sizes() {
  static const std::vector<std::size_t> sizes = {0,  1,  3,  4,  5,  7,  8,
                                                 9,  15, 16, 17, 31, 33, 64,
                                                 100, 255, 256, 257};
  return sizes;
}

}  // namespace

TEST(KernelProperty, TiersReportHonestMetadata) {
  const st::KernelSet& scalar = scalar_tier();
  EXPECT_EQ(scalar.level, st::DispatchLevel::kScalar);
  EXPECT_STREQ(scalar.name, "scalar");
  EXPECT_EQ(scalar.simd_width, 1u);
  for (const st::KernelSet* tier : simd_tiers()) {
    EXPECT_STREQ(tier->name, st::dispatch_level_name(tier->level));
    EXPECT_EQ(tier->simd_width, st::dispatch_level_width(tier->level));
    EXPECT_GT(tier->simd_width, 1u);
  }
  // The active set is always one of the constructible tiers.
  const st::KernelSet& active = st::active_kernels();
  EXPECT_EQ(&active, st::kernel_set_for(active.level));
}

TEST(KernelProperty, ElementwiseKernelsMatchScalar) {
  const st::KernelSet& scalar = scalar_tier();
  for (const st::KernelSet* tier : simd_tiers()) {
    for (const std::size_t n : probe_sizes()) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        su::Rng rng(seed * 1000 + n);
        const auto x = random_vector(n, rng, -3.0f, 3.0f);
        const float alpha = static_cast<float>(rng.uniform(-2.0, 2.0));

        auto y_ref = random_vector(n, rng, -3.0f, 3.0f);
        auto y_simd = y_ref;
        scalar.axpy(alpha, x.data(), y_ref.data(), n);
        tier->axpy(alpha, x.data(), y_simd.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(near_ref(y_ref[i], y_simd[i]))
              << tier->name << " axpy n=" << n << " i=" << i;
        }

        auto s_ref = x;
        auto s_simd = x;
        scalar.scale(alpha, s_ref.data(), n);
        tier->scale(alpha, s_simd.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(near_ref(s_ref[i], s_simd[i]))
              << tier->name << " scale n=" << n;
        }

        auto p_ref = random_vector(n, rng, 0.0f, 1.0f);
        auto p_simd = p_ref;
        scalar.ema_update(p_ref.data(), x.data(), 0.37f, n);
        tier->ema_update(p_simd.data(), x.data(), 0.37f, n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(near_ref(p_ref[i], p_simd[i]))
              << tier->name << " ema_update n=" << n;
        }

        auto r_ref = x;
        auto r_simd = x;
        scalar.relu(r_ref.data(), n);
        tier->relu(r_simd.data(), n);
        EXPECT_EQ(r_ref, r_simd) << tier->name << " relu n=" << n;
      }
    }
  }
}

TEST(KernelProperty, ReductionsMatchScalar) {
  const st::KernelSet& scalar = scalar_tier();
  for (const st::KernelSet* tier : simd_tiers()) {
    for (const std::size_t n : probe_sizes()) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        su::Rng rng(seed * 7919 + n);
        const auto x = random_vector(n, rng, -5.0f, 5.0f);
        const auto y = random_vector(n, rng, -5.0f, 5.0f);
        float dot_mag = 0.0f;
        float sum_mag = 0.0f;
        for (std::size_t i = 0; i < n; ++i) {
          dot_mag += std::abs(x[i] * y[i]);
          sum_mag += std::abs(x[i]);
        }
        EXPECT_TRUE(near_reduced(scalar.dot(x.data(), y.data(), n),
                                 tier->dot(x.data(), y.data(), n), dot_mag))
            << tier->name << " dot n=" << n << " seed=" << seed;
        EXPECT_TRUE(near_reduced(scalar.sum(x.data(), n),
                                 tier->sum(x.data(), n), sum_mag))
            << tier->name << " sum n=" << n << " seed=" << seed;
        // Max is exact: no rounding is involved in either tier.
        EXPECT_EQ(scalar.reduce_max(x.data(), n),
                  tier->reduce_max(x.data(), n))
            << tier->name << " reduce_max n=" << n;
      }
    }
  }
  // Empty reduction identity.
  for (const st::KernelSet* tier : simd_tiers()) {
    EXPECT_EQ(tier->reduce_max(nullptr, 0), -FLT_MAX);
    EXPECT_EQ(tier->sum(nullptr, 0), 0.0f);
  }
}

TEST(KernelProperty, ThresholdMaskMatchesScalarIncludingAliased) {
  const st::KernelSet& scalar = scalar_tier();
  for (const st::KernelSet* tier : simd_tiers()) {
    for (const std::size_t n : probe_sizes()) {
      su::Rng rng(n + 13);
      const auto gate = random_vector(n, rng, -1.0f, 1.0f);
      auto x_ref = random_vector(n, rng, -2.0f, 2.0f);
      auto x_simd = x_ref;
      scalar.threshold_mask(gate.data(), 0.0f, x_ref.data(), n);
      tier->threshold_mask(gate.data(), 0.0f, x_simd.data(), n);
      EXPECT_EQ(x_ref, x_simd) << tier->name << " threshold_mask n=" << n;

      // Aliased edge case: gate IS the output (in-place ReLU shape).
      auto a_ref = random_vector(n, rng, -2.0f, 2.0f);
      auto a_simd = a_ref;
      scalar.threshold_mask(a_ref.data(), 0.25f, a_ref.data(), n);
      tier->threshold_mask(a_simd.data(), 0.25f, a_simd.data(), n);
      EXPECT_EQ(a_ref, a_simd)
          << tier->name << " aliased threshold_mask n=" << n;
    }
  }
}

TEST(KernelProperty, AxpyAliasedOutputMatchesScalar) {
  const st::KernelSet& scalar = scalar_tier();
  for (const st::KernelSet* tier : simd_tiers()) {
    for (const std::size_t n : probe_sizes()) {
      su::Rng rng(n + 101);
      // y += alpha * y — x aliases the accumulator.
      auto y_ref = random_vector(n, rng, -2.0f, 2.0f);
      auto y_simd = y_ref;
      scalar.axpy(0.5f, y_ref.data(), y_ref.data(), n);
      tier->axpy(0.5f, y_simd.data(), y_simd.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(near_ref(y_ref[i], y_simd[i]))
            << tier->name << " aliased axpy n=" << n;
      }
    }
  }
}

TEST(KernelProperty, TranscendentalsMatchScalarOverFullRange) {
  const st::KernelSet& scalar = scalar_tier();
  for (const st::KernelSet* tier : simd_tiers()) {
    for (const std::size_t n : probe_sizes()) {
      su::Rng rng(n + 31);
      // Include the clamp boundaries and far-out-of-range values.
      auto x = random_vector(n, rng, -30.0f, 30.0f);
      if (n >= 8) {
        x[0] = -200.0f;
        x[1] = 200.0f;
        x[2] = -87.0f;
        x[3] = -87.5f;
        x[4] = 88.0f;
        x[5] = 0.0f;
        x[6] = -0.0f;
        x[7] = 87.9f;
      }
      std::vector<float> e_ref(n);
      std::vector<float> e_simd(n);
      scalar.vexp(x.data(), e_ref.data(), n);
      tier->vexp(x.data(), e_simd.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(near_ref(e_ref[i], e_simd[i]))
            << tier->name << " vexp n=" << n << " x=" << x[i];
      }

      // vlog_floored: probabilities spanning subnormal-to-large, plus
      // non-positive inputs that must hit the floor.
      auto p = random_vector(n, rng, 0.0f, 4.0f);
      if (n >= 4) {
        p[0] = 0.0f;
        p[1] = -1.0f;
        p[2] = 1e-30f;
        p[3] = 1e30f;
      }
      std::vector<float> l_ref(n);
      std::vector<float> l_simd(n);
      scalar.vlog_floored(p.data(), l_ref.data(), 1e-8f, n);
      tier->vlog_floored(p.data(), l_simd.data(), 1e-8f, n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(near_ref(l_ref[i], l_simd[i]))
            << tier->name << " vlog_floored n=" << n << " p=" << p[i];
      }
    }
  }
}

TEST(KernelProperty, MomentumUpdateMatchesScalarAndFusedSemantics) {
  const st::KernelSet& scalar = scalar_tier();
  for (const std::size_t n : probe_sizes()) {
    su::Rng rng(n + 77);
    const auto g = random_vector(n, rng, -1.0f, 1.0f);
    auto w_ref = random_vector(n, rng, -1.0f, 1.0f);
    auto v_ref = random_vector(n, rng, -0.5f, 0.5f);
    // Scalar semantics: v = mu*v - lr*(g + l2*w_old); w += v.
    std::vector<float> w_expect = w_ref;
    std::vector<float> v_expect = v_ref;
    for (std::size_t i = 0; i < n; ++i) {
      v_expect[i] = 0.9f * v_expect[i] - 0.1f * (g[i] + 0.01f * w_expect[i]);
      w_expect[i] += v_expect[i];
    }
    scalar.momentum_update(0.9f, 0.1f, 0.01f, g.data(), w_ref.data(),
                           v_ref.data(), n);
    EXPECT_EQ(w_ref, w_expect) << "scalar momentum semantics n=" << n;
    EXPECT_EQ(v_ref, v_expect) << "scalar momentum semantics n=" << n;

    for (const st::KernelSet* tier : simd_tiers()) {
      auto w_simd = w_expect;  // continue from the same state
      auto v_simd = v_expect;
      auto w_ref2 = w_expect;
      auto v_ref2 = v_expect;
      scalar.momentum_update(0.9f, 0.1f, 0.01f, g.data(), w_ref2.data(),
                             v_ref2.data(), n);
      tier->momentum_update(0.9f, 0.1f, 0.01f, g.data(), w_simd.data(),
                            v_simd.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(near_ref(w_ref2[i], w_simd[i]))
            << tier->name << " momentum w n=" << n;
        ASSERT_TRUE(near_ref(v_ref2[i], v_simd[i]))
            << tier->name << " momentum v n=" << n;
      }
    }
  }
}

TEST(KernelProperty, ScalarTierTranscendentalsAreBitwiseFastExpLog) {
  // The kernel TUs carry a branchless restatement of fast_exp/fast_log
  // (tensor/vecmath.hpp). On the scalar tier — same flags, no FMA — the
  // restatement must be BITWISE identical to the public helpers over the
  // whole float range, so a coefficient edit on either side cannot
  // silently diverge the two copies.
  const st::KernelSet& scalar = scalar_tier();
  std::vector<float> xs;
  for (float x = -120.0f; x <= 120.0f; x += 0.0917f) xs.push_back(x);
  xs.insert(xs.end(), {-87.0f, -87.0000001f, 88.0f, 88.5f, 0.0f, -0.0f});
  std::vector<float> out(xs.size());
  scalar.vexp(xs.data(), out.data(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(out[i], st::fast_exp(xs[i])) << "x=" << xs[i];
  }
  std::vector<float> ps;
  for (float p = 1e-10f; p < 1e10f; p *= 1.3f) ps.push_back(p);
  ps.insert(ps.end(), {0.0f, -1.0f, -3.5f, 1.0f, 2.0f});
  out.resize(ps.size());
  // floor == lowest float keeps every positive input unfloored.
  scalar.vlog_floored(ps.data(), out.data(), -FLT_MAX, ps.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    EXPECT_EQ(out[i], st::fast_log(ps[i])) << "p=" << ps[i];
  }
}

TEST(KernelProperty, SoftmaxBlockMatchesScalar) {
  const st::KernelSet& scalar = scalar_tier();
  for (const st::KernelSet* tier : simd_tiers()) {
    for (const std::size_t n : probe_sizes()) {
      if (n == 0) continue;  // a zero-wide block is rejected upstream
      for (const float inv_temp : {0.5f, 1.0f, 4.0f}) {
        su::Rng rng(n * 17 + static_cast<std::uint64_t>(inv_temp * 8));
        auto v_ref = random_vector(n, rng, -50.0f, 50.0f);
        auto v_simd = v_ref;
        scalar.softmax_block(v_ref.data(), n, inv_temp);
        tier->softmax_block(v_simd.data(), n, inv_temp);
        float total = 0.0f;
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(near_ref(v_ref[i], v_simd[i]))
              << tier->name << " softmax n=" << n << " beta=" << inv_temp;
          total += v_simd[i];
        }
        EXPECT_NEAR(total, 1.0f, 1e-4f);
      }
    }
  }
}

TEST(KernelProperty, GemvMatchesScalarWithPaddedStride) {
  const st::KernelSet& scalar = scalar_tier();
  for (const st::KernelSet* tier : simd_tiers()) {
    for (const std::size_t m : {0UL, 1UL, 3UL, 17UL, 40UL}) {
      for (const std::size_t k : {0UL, 1UL, 5UL, 16UL, 33UL}) {
        for (const std::size_t pad : {0UL, 3UL}) {
          const std::size_t lda = k + pad;
          if (lda == 0) continue;
          su::Rng rng(m * 100 + k * 10 + pad);
          const auto a = random_vector(m * lda, rng, -2.0f, 2.0f);
          const auto x = random_vector(k, rng, -2.0f, 2.0f);
          std::vector<float> y_ref(m, -9.0f);
          std::vector<float> y_simd(m, -9.0f);
          scalar.gemv(a.data(), lda, x.data(), y_ref.data(), m, k);
          tier->gemv(a.data(), lda, x.data(), y_simd.data(), m, k);
          for (std::size_t i = 0; i < m; ++i) {
            float mag = 0.0f;
            for (std::size_t p = 0; p < k; ++p) {
              mag += std::abs(a[i * lda + p] * x[p]);
            }
            ASSERT_TRUE(near_reduced(y_ref[i], y_simd[i], mag))
                << tier->name << " gemv m=" << m << " k=" << k
                << " lda=" << lda;
          }
        }
      }
    }
  }
}

TEST(KernelProperty, GemmBlockMatchesScalarWithPaddedStrides) {
  const st::KernelSet& scalar = scalar_tier();
  for (const st::KernelSet* tier : simd_tiers()) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      su::Rng rng(seed * 37);
      // Random shapes biased to straddle the 4x16 register tile.
      const std::size_t mr = static_cast<std::size_t>(rng.uniform_int(0, 9));
      const std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 40));
      const std::size_t k = static_cast<std::size_t>(rng.uniform_int(0, 20));
      const std::size_t lda = k + static_cast<std::size_t>(rng.uniform_int(0, 4));
      const std::size_t ldb = n + static_cast<std::size_t>(rng.uniform_int(0, 4));
      const std::size_t ldc = n + static_cast<std::size_t>(rng.uniform_int(0, 4));
      const float alpha = static_cast<float>(rng.uniform(-2.0, 2.0));

      const auto a = random_vector(std::max<std::size_t>(1, mr * lda), rng,
                                   -1.5f, 1.5f);
      const auto b = random_vector(std::max<std::size_t>(1, k * ldb), rng,
                                   -1.5f, 1.5f);
      auto c_ref = random_vector(std::max<std::size_t>(1, mr * ldc), rng,
                                 -1.0f, 1.0f);
      auto c_simd = c_ref;
      // Per-element term magnitude for the cancellation-aware tolerance.
      std::vector<float> mag(c_ref.size(), 0.0f);
      for (std::size_t i = 0; i < mr; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          float m_acc = std::abs(c_ref[i * ldc + j]);
          for (std::size_t p = 0; p < k; ++p) {
            m_acc += std::abs(alpha * a[i * lda + p] * b[p * ldb + j]);
          }
          mag[i * ldc + j] = m_acc;
        }
      }
      scalar.gemm_block(alpha, a.data(), lda, b.data(), ldb, c_ref.data(),
                        ldc, mr, n, k);
      tier->gemm_block(alpha, a.data(), lda, b.data(), ldb, c_simd.data(),
                       ldc, mr, n, k);
      for (std::size_t i = 0; i < c_ref.size(); ++i) {
        ASSERT_TRUE(near_reduced(c_ref[i], c_simd[i], mag[i]))
            << tier->name << " gemm_block seed=" << seed << " mr=" << mr
            << " n=" << n << " k=" << k << " elem=" << i;
      }
      // Padding columns (j >= n per row) must be untouched — verified by
      // the exact equality of the shared initial values above wherever
      // the kernel was not supposed to write.
    }
  }
}

TEST(KernelProperty, DispatchedGemmMatchesNaiveUnderEveryTier) {
  // End-to-end: the public tensor::gemm (packing, beta scaling,
  // ThreadPool fan-out) agrees with gemm_naive whichever tier is forced.
  const st::DispatchLevel original = st::active_kernels().level;
  for (const st::DispatchLevel level :
       {st::DispatchLevel::kScalar, st::DispatchLevel::kSse42,
        st::DispatchLevel::kAvx2}) {
    if (st::kernel_set_for(level) == nullptr) continue;
    st::force_dispatch(level);
    for (const auto& [m, n, k] :
         std::vector<std::tuple<std::size_t, std::size_t, std::size_t>>{
             {1, 1, 1}, {3, 5, 7}, {17, 33, 9}, {40, 56, 300}, {65, 19, 64}}) {
      su::Rng rng(m * 1000 + n * 10 + k);
      st::MatrixF a(m, k, 0.0f);
      st::MatrixF b(k, n, 0.0f);
      for (float& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      for (float& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      st::MatrixF c_ref(m, n, 0.5f);
      st::MatrixF c(m, n, 0.5f);
      st::gemm_naive(st::Transpose::kNo, st::Transpose::kNo, 1.5f, a, b,
                     0.25f, c_ref);
      st::gemm(st::Transpose::kNo, st::Transpose::kNo, 1.5f, a, b, 0.25f, c);
      // Magnitude of the accumulated terms per element: |alpha| |A| |B|.
      st::MatrixF a_abs = a;
      st::MatrixF b_abs = b;
      for (float& v : a_abs) v = std::abs(v);
      for (float& v : b_abs) v = std::abs(v);
      st::MatrixF mag(m, n, 0.5f * 0.25f);
      st::gemm_naive(st::Transpose::kNo, st::Transpose::kNo, 1.5f, a_abs,
                     b_abs, 1.0f, mag);
      for (std::size_t i = 0; i < c.size(); ++i) {
        ASSERT_TRUE(
            near_reduced(c_ref.data()[i], c.data()[i], mag.data()[i]))
            << st::dispatch_level_name(level) << " m=" << m << " n=" << n
            << " k=" << k;
      }
    }
  }
  st::force_dispatch(original);
}

TEST(KernelProperty, ForceDispatchRejectsUnavailableTiersAndRoundTrips) {
  const st::DispatchLevel original = st::active_kernels().level;
  // Forcing scalar always works and is observable.
  st::force_dispatch(st::DispatchLevel::kScalar);
  EXPECT_EQ(st::active_kernels().level, st::DispatchLevel::kScalar);
  EXPECT_STREQ(st::active_kernels().name, "scalar");
  // Restore and verify.
  st::force_dispatch(original);
  EXPECT_EQ(st::active_kernels().level, original);
  if (st::kernel_set_for(st::DispatchLevel::kAvx2) == nullptr) {
    EXPECT_THROW(st::force_dispatch(st::DispatchLevel::kAvx2),
                 std::invalid_argument);
  }
}

// --- Zero-skip wall: gemm and GemmRows vs gemm_blocked, bit for bit -------

namespace {

/// Every tier this host can run, scalar first.
std::vector<st::DispatchLevel> runnable_levels() {
  std::vector<st::DispatchLevel> levels;
  for (const st::DispatchLevel level :
       {st::DispatchLevel::kScalar, st::DispatchLevel::kSse42,
        st::DispatchLevel::kAvx2}) {
    if (st::kernel_set_for(level) != nullptr) levels.push_back(level);
  }
  return levels;
}

/// Restores the active tier when a test leaves scope, failed or not.
class DispatchGuard {
 public:
  DispatchGuard() : original_(st::active_kernels().level) {}
  ~DispatchGuard() { st::force_dispatch(original_); }
  DispatchGuard(const DispatchGuard&) = delete;
  DispatchGuard& operator=(const DispatchGuard&) = delete;

 private:
  st::DispatchLevel original_;
};

// The paper's input code: 28 features x 10 quantile bins, one bin hot.
constexpr std::size_t kFeatures = 28;
constexpr std::size_t kBins = 10;
constexpr std::size_t kOneHotWidth = kFeatures * kBins;

/// Which nonzero pattern op(A) gets.
enum class Pattern { kZero, kOneHot, kTenth, kBelowCrossover, kAtCrossover,
                     kDense };

const char* pattern_name(Pattern pattern) {
  switch (pattern) {
    case Pattern::kZero: return "zero";
    case Pattern::kOneHot: return "one-hot";
    case Pattern::kTenth: return "0.1";
    case Pattern::kBelowCrossover: return "below-crossover";
    case Pattern::kAtCrossover: return "at-crossover";
    case Pattern::kDense: return "dense";
  }
  return "?";
}

/// A zero of either sign: the skipped entries include -0.0f.
float signed_zero(su::Rng& rng) {
  return rng.uniform() < 0.5 ? 0.0f : -0.0f;
}

/// A nonzero value of either sign.
float nonzero_value(su::Rng& rng) {
  const float v = static_cast<float>(rng.uniform(0.05, 1.0));
  return rng.uniform() < 0.5 ? v : -v;
}

/// op(A) as an m x k logical matrix with the requested pattern. Random
/// patterns keep every fifth row all-zero; the crossover patterns place
/// an exact nonzero count one short of, and exactly at, the density
/// where gemm switches path.
st::MatrixF make_op_a(Pattern pattern, std::size_t m, std::size_t k,
                      su::Rng& rng) {
  st::MatrixF op_a(m, k, 0.0f);
  for (float& v : op_a) v = signed_zero(rng);
  const std::size_t total = m * k;
  switch (pattern) {
    case Pattern::kZero:
      break;
    case Pattern::kOneHot:
      for (std::size_t i = 0; i < m; ++i) {
        if (i % 5 == 4) continue;
        for (std::size_t f = 0; f < kFeatures && f * kBins < k; ++f) {
          const auto bin = static_cast<std::size_t>(rng.uniform_int(0, kBins - 1));
          op_a(i, f * kBins + bin) = 1.0f;
        }
      }
      break;
    case Pattern::kTenth:
    case Pattern::kDense:
      for (std::size_t i = 0; i < m; ++i) {
        if (pattern == Pattern::kTenth && i % 5 == 4) continue;
        for (std::size_t p = 0; p < k; ++p) {
          if (pattern == Pattern::kDense || rng.uniform() < 0.1) {
            op_a(i, p) = nonzero_value(rng);
          }
        }
      }
      break;
    case Pattern::kBelowCrossover:
    case Pattern::kAtCrossover: {
      const auto at = static_cast<std::size_t>(std::ceil(
          st::kSparseDensityCrossover * static_cast<double>(total)));
      const std::size_t nnz =
          pattern == Pattern::kAtCrossover ? at : (at == 0 ? 0 : at - 1);
      std::vector<std::size_t> slots(total);
      std::iota(slots.begin(), slots.end(), std::size_t{0});
      for (std::size_t s = 0; s < nnz; ++s) {
        const auto pick = static_cast<std::size_t>(rng.uniform_int(
            static_cast<std::int64_t>(s), static_cast<std::int64_t>(total - 1)));
        std::swap(slots[s], slots[pick]);
        op_a.data()[slots[s]] = nonzero_value(rng);
      }
      break;
    }
  }
  return op_a;
}

st::MatrixF transposed(const st::MatrixF& x) {
  st::MatrixF t(x.cols(), x.rows(), 0.0f);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) t(j, i) = x(i, j);
  }
  return t;
}

/// Stored operand for op(X) given the logical matrix.
st::MatrixF stored(st::Transpose trans, const st::MatrixF& op_x) {
  return trans == st::Transpose::kNo ? op_x : transposed(op_x);
}

/// Finite B (k x n logical): mixed signs, about 5% zeros of either sign,
/// so skipped terms can be +0 or -0.
st::MatrixF make_op_b(std::size_t k, std::size_t n, su::Rng& rng) {
  st::MatrixF op_b(k, n, 0.0f);
  for (float& v : op_b) {
    v = rng.uniform() < 0.05 ? signed_zero(rng) : nonzero_value(rng);
  }
  return op_b;
}

/// C's prior contents; with zeros of either sign when asked, which makes
/// beta * C hold -0.0 (the value the zero-skip must not change).
st::MatrixF make_c(std::size_t m, std::size_t n, bool signed_zeros,
                   su::Rng& rng) {
  st::MatrixF c(m, n, 0.0f);
  for (float& v : c) {
    v = signed_zeros && rng.uniform() < 0.2 ? signed_zero(rng)
                                            : nonzero_value(rng);
  }
  return c;
}

::testing::AssertionResult same_bits(const st::MatrixF& expected,
                                     const st::MatrixF& actual) {
  if (expected.rows() != actual.rows() || expected.cols() != actual.cols()) {
    return ::testing::AssertionFailure() << "shape differs";
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto want = std::bit_cast<std::uint32_t>(expected.data()[i]);
    const auto got = std::bit_cast<std::uint32_t>(actual.data()[i]);
    if (want != got) {
      return ::testing::AssertionFailure()
             << "element " << i << ": expected " << expected.data()[i]
             << " (bits " << want << "), got " << actual.data()[i]
             << " (bits " << got << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace

/// The zero-skipping GEMM sweep, one instance per dispatch tier. It is
/// the costliest case of this suite, so CMakeLists.txt registers each
/// tier as its own ctest entry and they run side by side.
class GemmZeroSkipAtTier : public ::testing::TestWithParam<st::DispatchLevel> {
};

TEST_P(GemmZeroSkipAtTier, IsBitIdenticalToBlocked) {
  const st::DispatchLevel level = GetParam();
  if (st::kernel_set_for(level) == nullptr) {
    GTEST_SKIP() << st::dispatch_level_name(level) << " does not run here";
  }
  const DispatchGuard guard;
  st::force_dispatch(level);
  const auto transposes = {st::Transpose::kNo, st::Transpose::kYes};
  std::uint64_t seed = 0;
  for (const std::size_t m : {0UL, 1UL, 33UL, 257UL}) {
    for (const Pattern pattern :
         {Pattern::kZero, Pattern::kOneHot, Pattern::kTenth,
          Pattern::kBelowCrossover, Pattern::kAtCrossover, Pattern::kDense}) {
      // The one-hot code fixes k = 280 (past one 256-deep K panel of the
      // dense driver); the other patterns use a short ragged k so the
      // sweep stays affordable under the sanitizers.
      const std::size_t k = pattern == Pattern::kOneHot ? kOneHotWidth : 41;
      su::Rng rng(++seed * 7919);
      const st::MatrixF op_a = make_op_a(pattern, m, k, rng);
      const st::MatrixF a_stored[] = {stored(st::Transpose::kNo, op_a),
                                      stored(st::Transpose::kYes, op_a)};
      for (const std::size_t n : {1UL, 7UL, 15UL, 17UL, 300UL, 3000UL}) {
        const st::MatrixF op_b = make_op_b(k, n, rng);
        const st::MatrixF b_stored[] = {stored(st::Transpose::kNo, op_b),
                                        stored(st::Transpose::kYes, op_b)};
        // alpha = 0.37 also seeds C with signed zeros.
        const std::pair<float, st::MatrixF> alphas[] = {
            {1.0f, make_c(m, n, false, rng)}, {0.37f, make_c(m, n, true, rng)}};
        for (const st::Transpose ta : transposes) {
          const st::MatrixF& a = a_stored[ta == st::Transpose::kYes];
          for (const st::Transpose tb : transposes) {
            const st::MatrixF& b = b_stored[tb == st::Transpose::kYes];
            for (const auto& [alpha, c0] : alphas) {
              for (const float beta : {0.0f, 1.0f, 0.95f}) {
                st::MatrixF expected = c0;
                st::gemm_blocked(ta, tb, alpha, a, b, beta, expected);
                st::MatrixF dispatched = c0;
                st::gemm(ta, tb, alpha, a, b, beta, dispatched);
                st::MatrixF skipping = c0;
                st::gemm_sparse_a(ta, tb, alpha, a, b, beta, skipping);
                const auto where = [&] {
                  return ::testing::Message()
                         << st::dispatch_level_name(level) << " m=" << m
                         << " n=" << n << " pattern=" << pattern_name(pattern)
                         << " trans_a=" << (ta == st::Transpose::kYes)
                         << " trans_b=" << (tb == st::Transpose::kYes)
                         << " alpha=" << alpha << " beta=" << beta;
                };
                ASSERT_TRUE(same_bits(expected, dispatched))
                    << "gemm " << where();
                ASSERT_TRUE(same_bits(expected, skipping))
                    << "gemm_sparse_a " << where();
                if (tb == st::Transpose::kNo) {
                  st::GemmRows rows;
                  if (rows.reset(ta, alpha, a, b, beta, c0)) {
                    st::MatrixF by_row = c0;
                    for (std::size_t i = m; i-- > 0;) {
                      rows.row(i, by_row.row(i));
                    }
                    ASSERT_TRUE(same_bits(expected, by_row))
                        << "GemmRows " << where();
                  }
                }
              }
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KernelProperty, GemmZeroSkipAtTier,
    ::testing::Values(st::DispatchLevel::kScalar, st::DispatchLevel::kSse42,
                      st::DispatchLevel::kAvx2),
    [](const ::testing::TestParamInfo<st::DispatchLevel>& info) {
      return std::string(st::dispatch_level_name(info.param));
    });

TEST(KernelProperty, GemmZeroSkipIsBitIdenticalSerialAndOverThePool) {
  // A call from a pool worker runs serially (fan-out 1); from any other
  // thread it fans out over the pool. Both must equal gemm_blocked, at the
  // paper's shapes: support X W and the trace product X^T A.
  const DispatchGuard guard;
  for (const st::DispatchLevel level : runnable_levels()) {
    st::force_dispatch(level);
    su::Rng rng(static_cast<std::uint64_t>(level) + 11);
    const st::MatrixF x = make_op_a(Pattern::kOneHot, 257, kOneHotWidth, rng);
    const st::MatrixF w = make_op_b(kOneHotWidth, 3000, rng);
    const st::MatrixF act = make_op_b(257, 3000, rng);
    struct Case {
      st::Transpose trans_a;
      const st::MatrixF* b;
      float alpha;
      float beta;
    };
    for (const Case& run : {Case{st::Transpose::kNo, &w, 1.0f, 0.0f},
                            Case{st::Transpose::kYes, &act, 0.37f, 0.95f}}) {
      const std::size_t m =
          run.trans_a == st::Transpose::kNo ? x.rows() : x.cols();
      const st::MatrixF c0 = make_c(m, 3000, false, rng);
      st::MatrixF expected = c0;
      st::gemm_blocked(run.trans_a, st::Transpose::kNo, run.alpha, x, *run.b,
                       run.beta, expected);
      st::MatrixF pooled = c0;
      st::gemm(run.trans_a, st::Transpose::kNo, run.alpha, x, *run.b,
               run.beta, pooled);
      st::MatrixF serial = c0;
      streambrain::parallel::global_pool()
          .submit([&] {
            st::gemm(run.trans_a, st::Transpose::kNo, run.alpha, x, *run.b,
                     run.beta, serial);
          })
          .get();
      ASSERT_TRUE(same_bits(expected, pooled))
          << st::dispatch_level_name(level) << " pooled";
      ASSERT_TRUE(same_bits(expected, serial))
          << st::dispatch_level_name(level) << " serial";
    }
  }
}
