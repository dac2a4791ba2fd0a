#pragma once
// The read-only inference weights of one component (hidden layer,
// BCPNN classifier or SGD head): exactly one of the three compact forms
// the sparse and quantized inference paths serve from.
//
//   CsrMatrix        — Model::sparsify(): fp32 CSR of W^T
//   QuantBlockMatrix — Model::quantize(): per-block int8 codes of W^T
//   QuantCsr         — sparsify() then quantize(): int8 codes with one
//                      scale per row on the CSR index structure
//
// Every form stores W^T ([outputs x inputs], one row per output unit),
// so support() computes the same S = X * W + bias as Engine::support on
// the dense [inputs x outputs] weights. The dense fp32 weights are not a
// form of the store: they are the trainable state, and each component
// keeps them and its own dense forward path.
//
// Transitions (all one-way; training state cannot be rebuilt from a
// store):
//   dense   --from_dense-->        CsrMatrix
//   dense   --quantize_dense-->    QuantBlockMatrix
//   CsrMatrix --quantize()-->      QuantCsr
// quantize() on an already quantized store and sparsify() on a CSR store
// are no-ops; sparsify() on a quantized store throws (sparsify before
// quantize, not after).

#include <cstddef>
#include <cstdint>
#include <utility>
#include <variant>

#include "tensor/csr.hpp"
#include "tensor/matrix.hpp"
#include "tensor/quant.hpp"

namespace streambrain::tensor {

class WeightStore {
 public:
  /// The held form, in variant order.
  enum class Form : std::uint8_t { kCsr, kQuant, kQuantCsr };

  explicit WeightStore(CsrMatrix wt) : wt_(std::move(wt)) {}
  explicit WeightStore(QuantBlockMatrix wt) : wt_(std::move(wt)) {}
  explicit WeightStore(QuantCsr wt) : wt_(std::move(wt)) {}

  /// CSR of `dense`^T, keeping every entry that is not exactly 0.0f.
  /// `dense` is a component's [inputs x outputs] weight matrix.
  [[nodiscard]] static WeightStore from_dense(const MatrixF& dense);

  /// Block-quantized `dense`^T with the given block size.
  [[nodiscard]] static WeightStore quantize_dense(const MatrixF& dense,
                                                  std::size_t block_size);

  /// The sparsify() transition on a store: no-op on a CSR store; throws
  /// std::logic_error on a quantized one.
  void sparsify() const;

  /// The quantize() transition on a store: CsrMatrix -> QuantCsr
  /// (per-row scales; no block size applies); no-op once quantized.
  void quantize();

  [[nodiscard]] Form form() const noexcept {
    return static_cast<Form>(wt_.index());
  }
  /// True for the two forms on the CSR index structure.
  [[nodiscard]] bool sparse() const noexcept { return form() != Form::kQuant; }
  /// True for the two int8 forms.
  [[nodiscard]] bool quantized() const noexcept { return form() != Form::kCsr; }

  /// Shape of W^T: outputs x inputs.
  [[nodiscard]] std::size_t rows() const noexcept;
  [[nodiscard]] std::size_t cols() const noexcept;

  /// S = X * W + bias_row for x [batch x cols()]; S is resized to
  /// [batch x rows()]. Dispatches to sparse_support / quant_support /
  /// quant_sparse_support.
  void support(const MatrixF& x, const float* bias, MatrixF& s) const;

  /// Fraction of weight entries that are non-zero: stored entries for
  /// the CSR forms, non-zero codes for the block form; 1.0 when empty.
  [[nodiscard]] double density() const noexcept;

  /// Bytes of the form's arrays.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

  /// The held form; each throws std::logic_error naming the held form
  /// when the store holds a different one.
  [[nodiscard]] const CsrMatrix& csr() const;
  [[nodiscard]] const QuantBlockMatrix& quant() const;
  [[nodiscard]] const QuantCsr& quant_csr() const;

 private:
  std::variant<CsrMatrix, QuantBlockMatrix, QuantCsr> wt_;
};

}  // namespace streambrain::tensor
