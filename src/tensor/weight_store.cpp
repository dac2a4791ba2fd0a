#include "tensor/weight_store.hpp"

#include <stdexcept>
#include <string>

namespace streambrain::tensor {

namespace {

template <typename... Visitors>
struct Overloaded : Visitors... {
  using Visitors::operator()...;
};

const char* form_name(WeightStore::Form form) noexcept {
  switch (form) {
    case WeightStore::Form::kCsr: return "sparse";
    case WeightStore::Form::kQuant: return "quantized";
    case WeightStore::Form::kQuantCsr: return "quantized-sparse";
  }
  return "unknown";
}

template <typename T, typename Variant>
const T& held(const Variant& wt, WeightStore::Form form, const char* what) {
  if (const T* value = std::get_if<T>(&wt)) return *value;
  throw std::logic_error(std::string("WeightStore::") + what +
                         ": store holds the " + form_name(form) + " form");
}

}  // namespace

WeightStore WeightStore::from_dense(const MatrixF& dense) {
  return WeightStore(CsrMatrix::from_dense_transposed(dense));
}

WeightStore WeightStore::quantize_dense(const MatrixF& dense,
                                        std::size_t block_size) {
  return WeightStore(
      QuantBlockMatrix::from_dense_transposed(dense, block_size));
}

void WeightStore::sparsify() const {
  if (quantized()) {
    throw std::logic_error(
        "WeightStore::sparsify: weights are already quantized (sparsify "
        "before quantize, not after)");
  }
}

void WeightStore::quantize() {
  if (const CsrMatrix* wt = std::get_if<CsrMatrix>(&wt_)) {
    wt_ = QuantCsr::from_csr(*wt);
  }
}

std::size_t WeightStore::rows() const noexcept {
  return std::visit([](const auto& wt) { return wt.rows(); }, wt_);
}

std::size_t WeightStore::cols() const noexcept {
  return std::visit([](const auto& wt) { return wt.cols(); }, wt_);
}

void WeightStore::support(const MatrixF& x, const float* bias,
                          MatrixF& s) const {
  std::visit(
      Overloaded{
          [&](const CsrMatrix& wt) { sparse_support(wt, x, bias, s); },
          [&](const QuantBlockMatrix& wt) { quant_support(wt, x, bias, s); },
          [&](const QuantCsr& wt) { quant_sparse_support(wt, x, bias, s); },
      },
      wt_);
}

double WeightStore::density() const noexcept {
  return std::visit(
      Overloaded{
          [](const QuantBlockMatrix& wt) {
            if (wt.codes().empty()) return 1.0;
            std::size_t nnz = 0;
            for (const std::int8_t code : wt.codes()) nnz += code != 0;
            return static_cast<double>(nnz) /
                   static_cast<double>(wt.codes().size());
          },
          [](const auto& wt) { return wt.density(); },
      },
      wt_);
}

std::size_t WeightStore::memory_bytes() const noexcept {
  return std::visit([](const auto& wt) { return wt.memory_bytes(); }, wt_);
}

const CsrMatrix& WeightStore::csr() const {
  return held<CsrMatrix>(wt_, form(), "csr");
}

const QuantBlockMatrix& WeightStore::quant() const {
  return held<QuantBlockMatrix>(wt_, form(), "quant");
}

const QuantCsr& WeightStore::quant_csr() const {
  return held<QuantCsr>(wt_, form(), "quant_csr");
}

}  // namespace streambrain::tensor
