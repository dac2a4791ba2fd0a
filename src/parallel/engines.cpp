// Built-in compute engines: `simd`, which does the work over the
// runtime-dispatched tensor::KernelSet, and `naive`, the scalar reference
// the engine tests compare every dispatch tier against (to float
// tolerance).

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "parallel/engine.hpp"
#include "parallel/engine_registry.hpp"
#include "parallel/parallel_for.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernel_set.hpp"
#include "tensor/kernels.hpp"
#include "tensor/vecmath.hpp"

namespace streambrain::parallel {

namespace {

// Minimum p_ij rows per weight-recompute and training-step task.
constexpr std::size_t kMinWeightRowsPerTask = 16;

using tensor::MatrixF;

float floored_log(float value, float floor) noexcept {
  return std::log(std::max(value, floor));
}

// mean[j] = sum over rows b of inv_b * m(b, j), accumulated in row order.
void column_means(const MatrixF& m, float inv_b, std::vector<float>& mean) {
  mean.assign(m.cols(), 0.0f);
  for (std::size_t b = 0; b < m.rows(); ++b) {
    tensor::axpy(inv_b, m.row(b), mean.data(), m.cols());
  }
}

// Weight row columns [c0, c1) from their p_ij row: the floored log minus
// (log p_i + log p_j).
void weight_columns(float log_pi, const float* pij_row, const float* log_pj,
                    float eps2, float* w_row, std::size_t c0, std::size_t c1) {
  tensor::vlog_floored(pij_row + c0, w_row + c0, eps2, c1 - c0);
#pragma omp simd
  for (std::size_t j = c0; j < c1; ++j) w_row[j] -= log_pi + log_pj[j];
}

/// Scalar reference engine: no threads, no fast-math approximations.
/// The correctness anchor the simd engine is tested against.
class NaiveEngine final : public Engine {
 public:
  [[nodiscard]] std::string name() const override { return "naive"; }

  void support(const MatrixF& x, const MatrixF& w, const float* bias,
               MatrixF& s) override {
    s.resize(x.rows(), w.cols());
    tensor::gemm_naive(tensor::Transpose::kNo, tensor::Transpose::kNo, 1.0f,
                       x, w, 0.0f, s);
    for (std::size_t r = 0; r < s.rows(); ++r) {
      for (std::size_t c = 0; c < s.cols(); ++c) s(r, c) += bias[c];
    }
  }

  void softmax_hcu(MatrixF& s, std::size_t mcus_per_hcu,
                   float inverse_temperature) override {
    if (mcus_per_hcu == 0 || s.cols() % mcus_per_hcu != 0) {
      throw std::invalid_argument("softmax_hcu: bad block size");
    }
    for (std::size_t r = 0; r < s.rows(); ++r) {
      float* row = s.row(r);
      for (std::size_t b = 0; b < s.cols(); b += mcus_per_hcu) {
        float max_v = row[b];
        for (std::size_t i = 1; i < mcus_per_hcu; ++i) {
          max_v = std::max(max_v, row[b + i]);
        }
        double total = 0.0;
        for (std::size_t i = 0; i < mcus_per_hcu; ++i) {
          row[b + i] =
              std::exp(inverse_temperature * (row[b + i] - max_v));
          total += row[b + i];
        }
        for (std::size_t i = 0; i < mcus_per_hcu; ++i) {
          row[b + i] = static_cast<float>(row[b + i] / total);
        }
      }
    }
  }

  void update_traces(const MatrixF& x, const MatrixF& a, float alpha,
                     float* pi, float* pj, MatrixF& pij) override {
    const std::size_t batch = x.rows();
    const std::size_t n_in = x.cols();
    const std::size_t n_out = a.cols();
    const float inv_b = 1.0f / static_cast<float>(batch);
    for (std::size_t i = 0; i < n_in; ++i) {
      float mean_x = 0.0f;
      for (std::size_t b = 0; b < batch; ++b) mean_x += x(b, i);
      mean_x *= inv_b;
      pi[i] += alpha * (mean_x - pi[i]);
    }
    for (std::size_t j = 0; j < n_out; ++j) {
      float mean_a = 0.0f;
      for (std::size_t b = 0; b < batch; ++b) mean_a += a(b, j);
      mean_a *= inv_b;
      pj[j] += alpha * (mean_a - pj[j]);
    }
    for (std::size_t i = 0; i < n_in; ++i) {
      for (std::size_t j = 0; j < n_out; ++j) {
        float mean_xa = 0.0f;
        for (std::size_t b = 0; b < batch; ++b) mean_xa += x(b, i) * a(b, j);
        mean_xa *= inv_b;
        pij(i, j) += alpha * (mean_xa - pij(i, j));
      }
    }
  }

  void recompute_weights(const float* pi, const float* pj, const MatrixF& pij,
                         float eps, float k_beta, MatrixF& w,
                         float* bias) override {
    const std::size_t n_in = pij.rows();
    const std::size_t n_out = pij.cols();
    w.resize(n_in, n_out);
    const float eps2 = eps * eps;
    for (std::size_t i = 0; i < n_in; ++i) {
      const float log_pi = floored_log(pi[i], eps);
      for (std::size_t j = 0; j < n_out; ++j) {
        w(i, j) = floored_log(pij(i, j), eps2) - log_pi -
                  floored_log(pj[j], eps);
      }
    }
    for (std::size_t j = 0; j < n_out; ++j) {
      bias[j] = k_beta * floored_log(pj[j], eps);
    }
  }
};

/// SIMD engine: every primitive routes through the runtime-dispatched
/// tensor::KernelSet (cache-blocked GEMM tiles over the ThreadPool, and
/// fast exp/log approximations). At the sse42 and avx2 tiers the exp,
/// floored-log and softmax-exp loops run vector-wide with the bits of
/// their scalar loop, and at avx2 the classifier head's narrow GEMM
/// (n <= 4 columns) puts rows in lanes. This is the analogue of
/// StreamBrain's hand-vectorized CPU backend; the actual instruction
/// tier (scalar / sse42 / avx2) is decided once at startup by CPUID and
/// the STREAMBRAIN_DISPATCH override.
class SimdEngine final : public Engine {
 public:
  [[nodiscard]] std::string name() const override { return "simd"; }

  void support(const MatrixF& x, const MatrixF& w, const float* bias,
               MatrixF& s) override {
    support_masked(x, w, bias, WeightMask{}, s);
  }

  // gemm's product, and for a sparse X (one-hot codes) its zero-skipping
  // path with the masked blocks' products skipped too
  // (tensor::gemm_nonzero_blocks): the bits of support at every tier.
  // Only the block masks skip work; a keep-mask's zeros are scattered.
  void support_masked(const MatrixF& x, const MatrixF& w, const float* bias,
                      const WeightMask& mask, MatrixF& s) override {
    if (x.cols() != w.rows()) {
      throw std::invalid_argument("support: dimension mismatch");
    }
    s.resize(x.rows(), w.cols());
    if (w.cols() != 0 && tensor::collect_sparse_rows(x, x_rows_)) {
      tensor::gemm_nonzero_blocks(x_rows_, w, mask.block_rows,
                                  mask.block_cols, mask.active, s);
    } else {
      tensor::gemm_blocked(tensor::Transpose::kNo, tensor::Transpose::kNo,
                           1.0f, x, w, 0.0f, s);
    }
    tensor::add_row_bias(s, bias);
  }

  void softmax_hcu(MatrixF& s, std::size_t mcus_per_hcu,
                   float inverse_temperature) override {
    tensor::softmax_blocks_temperature(s, mcus_per_hcu, inverse_temperature);
  }

  void update_traces(const MatrixF& x, const MatrixF& a, float alpha,
                     float* pi, float* pj, MatrixF& pij) override {
    const float inv_b = 1.0f / static_cast<float>(x.rows());
    column_means(x, inv_b, mean_x_);
    tensor::ema_update(pi, mean_x_.data(), alpha, x.cols());
    column_means(a, inv_b, mean_a_);
    tensor::ema_update(pj, mean_a_.data(), alpha, a.cols());

    // p_ij = (1-alpha) p_ij + (alpha/B) X^T A as one GEMM.
    tensor::gemm(tensor::Transpose::kYes, tensor::Transpose::kNo,
                 alpha * inv_b, x, a, 1.0f - alpha, pij);
  }

  void recompute_weights(const float* pi, const float* pj, const MatrixF& pij,
                         float eps, float k_beta, MatrixF& w,
                         float* bias) override {
    const std::size_t n_out = pij.cols();
    w.resize(pij.rows(), n_out);
    const float* log_pj = log_pj_and_bias(pj, n_out, eps, k_beta, bias);
    const float eps2 = eps * eps;
    const auto rows = [&](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) {
        weight_columns(tensor::fast_log(std::max(pi[i], eps)), pij.row(i),
                       log_pj, eps2, w.row(i), 0, n_out);
      }
    };
    for_row_panels(pij.rows(), kMinWeightRowsPerTask, rows);
  }

  // update_traces, recompute_weights and the mask in one row-panel pass:
  // each p_ij row is scaled and updated (tensor::GemmRows, the trace GEMM
  // one row at a time), and its W row is computed from it while it is in
  // cache, skipping the logs of masked blocks. Every element sees the
  // reference's operations in the reference's order.
  void learn_batch(const MatrixF& x, const MatrixF& a, float alpha, float eps,
                   float k_beta, const WeightMask& mask, float* pi, float* pj,
                   MatrixF& pij, MatrixF& w, float* bias) override {
    const float inv_b = 1.0f / static_cast<float>(x.rows());
    // GemmRows equals gemm only for finite activations, and a non-finite
    // activation makes its column mean non-finite. A dense X (the upper
    // layers of a deep stack, the classifier head) does not skip zeros;
    // its GEMM dominates the step, which runs as the reference.
    column_means(a, inv_b, mean_a_);
    if (!std::all_of(mean_a_.begin(), mean_a_.end(),
                     [](float mean) { return std::isfinite(mean); }) ||
        !trace_rows_.reset(tensor::Transpose::kYes, alpha * inv_b, x, a,
                           1.0f - alpha, pij)) {
      Engine::learn_batch(x, a, alpha, eps, k_beta, mask, pi, pj, pij, w,
                          bias);
      return;
    }
    const std::size_t n_out = a.cols();
    column_means(x, inv_b, mean_x_);
    tensor::ema_update(pi, mean_x_.data(), alpha, x.cols());
    tensor::ema_update(pj, mean_a_.data(), alpha, n_out);

    w.resize(pij.rows(), n_out);
    const float* log_pj = log_pj_and_bias(pj, n_out, eps, k_beta, bias);
    const float eps2 = eps * eps;
    const auto rows = [&](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) {
        float* pij_row = pij.row(i);
        float* w_row = w.row(i);
        trace_rows_.row(i, pij_row);
        const float log_pi = tensor::fast_log(std::max(pi[i], eps));
        mask.for_active_runs(i, n_out, [&](std::size_t c0, std::size_t c1) {
          weight_columns(log_pi, pij_row, log_pj, eps2, w_row, c0, c1);
        });
        mask.apply_row(i, w_row, n_out);
      }
    };
    for_row_panels(pij.rows(), kMinWeightRowsPerTask, rows);
  }

 private:
  // log max(p_j, eps) into log_pj_, and bias = k_beta * that.
  const float* log_pj_and_bias(const float* pj, std::size_t n_out, float eps,
                               float k_beta, float* bias) {
    log_pj_.resize(n_out);
    tensor::vlog_floored(pj, log_pj_.data(), eps, n_out);
    for (std::size_t j = 0; j < n_out; ++j) bias[j] = k_beta * log_pj_[j];
    return log_pj_.data();
  }

  // Per-batch scratch, reused across calls so steady-state training
  // allocates nothing. Safe because an engine is never shared between
  // threads: every rank and serving replica owns its own.
  std::vector<float> mean_x_;
  std::vector<float> mean_a_;
  std::vector<float> log_pj_;
  tensor::NonzeroRows x_rows_;
  tensor::GemmRows trace_rows_;
};

}  // namespace

namespace detail {

void register_builtin_engines(EngineRegistry& registry) {
  // Honest capability metadata for the KernelSet-backed engine: report
  // the tier the dispatcher selected for this process (CPUID +
  // STREAMBRAIN_DISPATCH), not the widest tier the build contains. The
  // startup selection — not active_kernels() — so a force_dispatch()
  // window in effect at first registry use cannot poison the metadata.
  const tensor::KernelSet& kernels = tensor::startup_kernels();
  registry.register_engine(
      {.name = "naive",
       .description = "scalar reference engine (correctness anchor)",
       .simd_width = 1,
       .dispatch = ""},
      [] { return std::make_unique<NaiveEngine>(); });
  registry.register_engine(
      {.name = "simd",
       .description =
           std::string("runtime-dispatched KernelSet engine (") +
           kernels.name +
           " tier): blocked GEMM tiles over the ThreadPool, skipping "
           "exact-zero inputs (bit-identical) + fast exp/log (vector "
           "loops at the SIMD tiers)",
       .simd_width = kernels.simd_width,
       .dispatch = kernels.name},
      [] { return std::make_unique<SimdEngine>(); });
}

}  // namespace detail

}  // namespace streambrain::parallel
