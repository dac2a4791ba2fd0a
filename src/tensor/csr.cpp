#include "tensor/csr.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "parallel/parallel_for.hpp"
#include "tensor/kernel_set.hpp"
#include "tensor/kernels.hpp"

namespace streambrain::tensor {

namespace {

void check_col_width(std::size_t cols) {
  // i32, not u32: the AVX2 tier gathers with _mm256_i32gather_ps, which
  // reads col_idx as SIGNED 32-bit offsets — an index >= 2^31 would
  // gather from a negative offset.
  if (cols > static_cast<std::size_t>(
                 std::numeric_limits<std::int32_t>::max())) {
    throw std::invalid_argument(
        "CsrMatrix: column count " + std::to_string(cols) +
        " does not fit the i32-gatherable column-index format");
  }
}

// Minimum dense rows per fan-out task — below this the submit overhead
// beats the parallelism (same trade-off as the dense GEMM driver).
constexpr std::size_t kMinRowsPerTask = 16;

}  // namespace

CsrMatrix CsrMatrix::from_dense(const MatrixF& dense) {
  check_col_width(dense.cols());
  CsrMatrix csr;
  csr.rows_ = dense.rows();
  csr.cols_ = dense.cols();
  csr.row_ptr_.assign(csr.rows_ + 1, 0);
  std::size_t nnz = 0;
  for (std::size_t r = 0; r < csr.rows_; ++r) {
    const float* row = dense.row(r);
    for (std::size_t c = 0; c < csr.cols_; ++c) nnz += row[c] != 0.0f;
    csr.row_ptr_[r + 1] = nnz;
  }
  csr.col_idx_.reserve(nnz);
  csr.values_.reserve(nnz);
  for (std::size_t r = 0; r < csr.rows_; ++r) {
    const float* row = dense.row(r);
    for (std::size_t c = 0; c < csr.cols_; ++c) {
      if (row[c] != 0.0f) {
        csr.col_idx_.push_back(static_cast<std::uint32_t>(c));
        csr.values_.push_back(row[c]);
      }
    }
  }
  return csr;
}

CsrMatrix CsrMatrix::from_dense_transposed(const MatrixF& dense) {
  check_col_width(dense.rows());
  CsrMatrix csr;
  csr.rows_ = dense.cols();
  csr.cols_ = dense.rows();
  // Pass 1: nnz per output row (= per column of `dense`).
  csr.row_ptr_.assign(csr.rows_ + 1, 0);
  for (std::size_t r = 0; r < dense.rows(); ++r) {
    const float* row = dense.row(r);
    for (std::size_t c = 0; c < dense.cols(); ++c) {
      csr.row_ptr_[c + 1] += row[c] != 0.0f;
    }
  }
  for (std::size_t i = 0; i < csr.rows_; ++i) {
    csr.row_ptr_[i + 1] += csr.row_ptr_[i];
  }
  // Pass 2: scatter. Scanning `dense` row-major emits each CSR row's
  // entries in ascending column order (column == dense row index).
  const std::size_t nnz = csr.row_ptr_.back();
  csr.col_idx_.resize(nnz);
  csr.values_.resize(nnz);
  std::vector<std::uint64_t> cursor(csr.row_ptr_.begin(),
                                    csr.row_ptr_.end() - 1);
  for (std::size_t r = 0; r < dense.rows(); ++r) {
    const float* row = dense.row(r);
    for (std::size_t c = 0; c < dense.cols(); ++c) {
      if (row[c] != 0.0f) {
        const std::uint64_t slot = cursor[c]++;
        csr.col_idx_[slot] = static_cast<std::uint32_t>(r);
        csr.values_[slot] = row[c];
      }
    }
  }
  return csr;
}

CsrMatrix CsrMatrix::adopt(std::size_t rows, std::size_t cols,
                           std::vector<std::uint64_t> row_ptr,
                           std::vector<std::uint32_t> col_idx,
                           std::vector<float> values) {
  check_col_width(cols);
  if (row_ptr.size() != rows + 1) {
    throw std::invalid_argument("CsrMatrix: row_ptr must have rows+1 entries");
  }
  if (row_ptr.front() != 0) {
    throw std::invalid_argument("CsrMatrix: row_ptr must start at 0");
  }
  if (col_idx.size() != values.size() || row_ptr.back() != values.size()) {
    throw std::invalid_argument(
        "CsrMatrix: row_ptr end / col_idx / values size mismatch");
  }
  // Validate ALL of row_ptr before indexing col_idx with any of it: a
  // huge middle entry must be rejected here, not read out of bounds
  // below (monotone + front 0 + back == nnz bounds every entry).
  for (std::size_t i = 0; i < rows; ++i) {
    if (row_ptr[i + 1] < row_ptr[i]) {
      throw std::invalid_argument("CsrMatrix: row_ptr must be non-decreasing");
    }
  }
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::uint64_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      if (col_idx[p] >= cols) {
        throw std::invalid_argument("CsrMatrix: column index out of range");
      }
      if (p > row_ptr[i] && col_idx[p] <= col_idx[p - 1]) {
        throw std::invalid_argument(
            "CsrMatrix: column indices must strictly ascend within a row");
      }
    }
  }
  CsrMatrix csr;
  csr.rows_ = rows;
  csr.cols_ = cols;
  csr.row_ptr_ = std::move(row_ptr);
  csr.col_idx_ = std::move(col_idx);
  csr.values_ = std::move(values);
  return csr;
}

MatrixF CsrMatrix::to_dense() const {
  MatrixF dense(rows_, cols_, 0.0f);
  for (std::size_t r = 0; r < rows_; ++r) {
    float* row = dense.row(r);
    for (std::uint64_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      row[col_idx_[p]] = values_[p];
    }
  }
  return dense;
}

double CsrMatrix::density() const noexcept {
  const std::size_t total = rows_ * cols_;
  return total == 0 ? 1.0
                    : static_cast<double>(nnz()) / static_cast<double>(total);
}

std::size_t CsrMatrix::memory_bytes() const noexcept {
  return row_ptr_.size() * sizeof(std::uint64_t) +
         col_idx_.size() * sizeof(std::uint32_t) +
         values_.size() * sizeof(float);
}

void spmv(const CsrMatrix& a, const float* x, float* y) {
  active_kernels().spmv(a.values().data(), a.col_idx().data(),
                        a.row_ptr().data(), a.rows(), x, y);
}

void spmm_bt(const CsrMatrix& a, const MatrixF& b, MatrixF& c) {
  if (b.cols() != a.cols()) {
    throw std::invalid_argument("spmm_bt: dimension mismatch");
  }
  const std::size_t batch = b.rows();
  const std::size_t m = a.rows();
  c.resize(batch, m);
  if (batch == 0 || m == 0) return;

  const KernelSet& kernels = active_kernels();
  const auto run_panel = [&kernels, &a, &b, &c](std::size_t r0,
                                                std::size_t r1) {
    kernels.spmm(a.values().data(), a.col_idx().data(), a.row_ptr().data(),
                 a.rows(), b.row(r0), b.cols(), r1 - r0, c.row(r0), c.cols());
  };

  parallel::for_row_panels(batch, kMinRowsPerTask, run_panel);
}

void sparse_support(const CsrMatrix& wt, const MatrixF& x, const float* bias,
                    MatrixF& s) {
  spmm_bt(wt, x, s);
  // Same bias primitive as the dense support path (axpy with alpha 1),
  // so the scalar-tier bit-equivalence guarantee extends through it.
  add_row_bias(s, bias);
}

}  // namespace streambrain::tensor
