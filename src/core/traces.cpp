#include "core/traces.hpp"

#include <stdexcept>
#include <string>

namespace streambrain::core {

ProbabilityTraces::ProbabilityTraces(std::size_t n_inputs,
                                     std::size_t input_hc_size,
                                     std::size_t n_outputs,
                                     std::size_t output_hc_size)
    : input_hc_size_(input_hc_size),
      output_hc_size_(output_hc_size),
      pi_(n_inputs, 0.0f),
      pj_(n_outputs, 0.0f),
      pij_(n_inputs, n_outputs, 0.0f) {
  if (input_hc_size == 0 || n_inputs % input_hc_size != 0) {
    throw std::invalid_argument(
        "ProbabilityTraces: inputs not divisible into hypercolumns");
  }
  if (output_hc_size == 0 || n_outputs % output_hc_size != 0) {
    throw std::invalid_argument(
        "ProbabilityTraces: outputs not divisible into hypercolumns");
  }
  const float prior_i = 1.0f / static_cast<float>(input_hc_size);
  const float prior_j = 1.0f / static_cast<float>(output_hc_size);
  for (auto& p : pi_) p = prior_i;
  for (auto& p : pj_) p = prior_j;
  pij_.fill(prior_i * prior_j);
}

void ProbabilityTraces::check_batch(const tensor::MatrixF& x,
                                    const tensor::MatrixF& a,
                                    const char* what) const {
  if (x.cols() != pi_.size() || a.cols() != pj_.size() ||
      x.rows() != a.rows()) {
    throw std::invalid_argument(std::string("ProbabilityTraces::") + what +
                                ": shape mismatch");
  }
}

void ProbabilityTraces::update(parallel::Engine& engine,
                               const tensor::MatrixF& x,
                               const tensor::MatrixF& a, float alpha) {
  check_batch(x, a, "update");
  engine.update_traces(x, a, alpha, pi_.data(), pj_.data(), pij_);
}

void ProbabilityTraces::learn(parallel::Engine& engine,
                              const tensor::MatrixF& x,
                              const tensor::MatrixF& a, float alpha,
                              float eps, float k_beta,
                              const parallel::WeightMask& mask,
                              tensor::MatrixF& w, float* bias) {
  check_batch(x, a, "learn");
  engine.learn_batch(x, a, alpha, eps, k_beta, mask, pi_.data(), pj_.data(),
                     pij_, w, bias);
}

std::vector<double> ProbabilityTraces::input_hypercolumn_mass() const {
  std::vector<double> mass(pi_.size() / input_hc_size_, 0.0);
  for (std::size_t i = 0; i < pi_.size(); ++i) {
    mass[i / input_hc_size_] += pi_[i];
  }
  return mass;
}

std::vector<double> ProbabilityTraces::output_hypercolumn_mass() const {
  std::vector<double> mass(pj_.size() / output_hc_size_, 0.0);
  for (std::size_t j = 0; j < pj_.size(); ++j) {
    mass[j / output_hc_size_] += pj_[j];
  }
  return mass;
}

}  // namespace streambrain::core
