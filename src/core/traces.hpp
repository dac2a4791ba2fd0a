#pragma once
// Probability traces: exponentially-weighted running estimates of the
// marginal and joint activation probabilities that the BCPNN learning
// rule turns into weights:
//
//   p_i  ~ P(input unit i active)
//   p_j  ~ P(output unit j active)
//   p_ij ~ P(i and j co-active)
//
// Traces are the only learned state BCPNN carries (weights are a pure
// function of them), which is also why data-parallel training only has to
// average traces — the property the comm substrate exercises.

#include <cstddef>
#include <vector>

#include "parallel/engine.hpp"
#include "tensor/matrix.hpp"

namespace streambrain::core {

class ProbabilityTraces {
 public:
  /// Initializes to the independent uniform prior: p_i = 1/input_hc_size,
  /// p_j = 1/output_hc_size, p_ij = p_i * p_j. The resulting initial
  /// weights are exactly zero (log of ratio 1).
  ProbabilityTraces(std::size_t n_inputs, std::size_t input_hc_size,
                    std::size_t n_outputs, std::size_t output_hc_size);

  /// One batch EMA update via the engine.
  void update(parallel::Engine& engine, const tensor::MatrixF& x,
              const tensor::MatrixF& a, float alpha);

  /// One training batch via engine.learn_batch: update(), then `w` and
  /// `bias` recomputed from the traces with floor `eps` and bias gain
  /// `k_beta`, then `mask` applied to `w`.
  void learn(parallel::Engine& engine, const tensor::MatrixF& x,
             const tensor::MatrixF& a, float alpha, float eps, float k_beta,
             const parallel::WeightMask& mask, tensor::MatrixF& w,
             float* bias);

  [[nodiscard]] std::size_t inputs() const noexcept { return pi_.size(); }
  [[nodiscard]] std::size_t outputs() const noexcept { return pj_.size(); }

  [[nodiscard]] const std::vector<float>& pi() const noexcept { return pi_; }
  [[nodiscard]] const std::vector<float>& pj() const noexcept { return pj_; }
  [[nodiscard]] const tensor::MatrixF& pij() const noexcept { return pij_; }

  [[nodiscard]] std::vector<float>& mutable_pi() noexcept { return pi_; }
  [[nodiscard]] std::vector<float>& mutable_pj() noexcept { return pj_; }
  [[nodiscard]] tensor::MatrixF& mutable_pij() noexcept { return pij_; }

  /// Free all trace storage (inputs()/outputs() become 0). Called when a
  /// layer enters the read-only sparse inference form: p_ij is as large
  /// as the dense weight matrix, and dropping it is most of the memory
  /// win of Model::sparsify(). Irreversible for this object.
  void release() noexcept {
    pi_.clear();
    pi_.shrink_to_fit();
    pj_.clear();
    pj_.shrink_to_fit();
    pij_ = tensor::MatrixF();
  }

  /// Sum of p_i within each input hypercolumn (should stay ~1 for one-hot
  /// inputs) — used by property tests.
  [[nodiscard]] std::vector<double> input_hypercolumn_mass() const;
  [[nodiscard]] std::vector<double> output_hypercolumn_mass() const;

 private:
  /// Throws std::invalid_argument unless x is [batch x inputs()] and a is
  /// [batch x outputs()].
  void check_batch(const tensor::MatrixF& x, const tensor::MatrixF& a,
                   const char* what) const;

  std::size_t input_hc_size_;
  std::size_t output_hc_size_;
  std::vector<float> pi_;
  std::vector<float> pj_;
  tensor::MatrixF pij_;  // [inputs x outputs]
};

}  // namespace streambrain::core
