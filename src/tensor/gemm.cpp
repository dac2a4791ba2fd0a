#include "tensor/gemm.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "tensor/kernel_set.hpp"

namespace streambrain::tensor {

namespace {

struct Dims {
  std::size_t m, n, k;
};

Dims check_dims(Transpose trans_a, Transpose trans_b, const MatrixF& a,
                const MatrixF& b, const MatrixF& c) {
  const std::size_t m = trans_a == Transpose::kNo ? a.rows() : a.cols();
  const std::size_t k = trans_a == Transpose::kNo ? a.cols() : a.rows();
  const std::size_t kb = trans_b == Transpose::kNo ? b.rows() : b.cols();
  const std::size_t n = trans_b == Transpose::kNo ? b.cols() : b.rows();
  if (k != kb || c.rows() != m || c.cols() != n) {
    throw std::invalid_argument("gemm: dimension mismatch");
  }
  return {m, n, k};
}

inline float load(const MatrixF& x, Transpose t, std::size_t i,
                  std::size_t j) noexcept {
  return t == Transpose::kNo ? x(i, j) : x(j, i);
}

// Pack operands into contiguous row-major (A: m x k) and (B: k x n)
// buffers so the tile kernel streams regardless of the requested
// transposes. Packing costs O(mk + kn) against an O(mnk) kernel, the
// standard GotoBLAS trade-off.
const float* pack_a(Transpose trans, const MatrixF& a, std::size_t m,
                    std::size_t k, std::vector<float>& storage) {
  if (trans == Transpose::kNo) return a.data();
  storage.resize(m * k);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) storage[i * k + p] = a(p, i);
  }
  return storage.data();
}

const float* pack_b(Transpose trans, const MatrixF& b, std::size_t k,
                    std::size_t n, std::vector<float>& storage) {
  if (trans == Transpose::kNo) return b.data();
  storage.resize(k * n);
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t j = 0; j < n; ++j) storage[p * n + j] = b(j, p);
  }
  return storage.data();
}

// Scale C by beta so the tile kernel can accumulate unconditionally.
void apply_beta(float beta, MatrixF& c, const KernelSet& kernels) {
  if (beta == 0.0f) {
    c.fill(0.0f);
  } else if (beta != 1.0f) {
    kernels.scale(beta, c.data(), c.size());
  }
}

// K-panel blocking keeps the streamed B panel resident in L2.
constexpr std::size_t kBlockK = 256;
// Minimum rows per dense fan-out task: below this the submit overhead
// beats the parallelism.
constexpr std::size_t kMinRowsPerTask = 32;
// Minimum multiply-adds (nnz x n) per zero-skipping fan-out task, about
// 50 us of work: a 64-row one-hot batch into 300 outputs (~0.5M) stays on
// the calling thread.
constexpr std::size_t kMinSparseWorkPerTask = std::size_t{1} << 21;
constexpr std::uint32_t kNegativeZeroBits = 0x80000000u;

// Rows [r0, r1) of C, all K panels, on the calling thread. Per C element
// the accumulation order is fixed (ascending k), so results are
// independent of how rows are partitioned across tasks.
void run_row_range(const KernelSet& kernels, float alpha, const float* a,
                   const float* b, MatrixF& c, std::size_t r0, std::size_t r1,
                   std::size_t n, std::size_t k) {
  for (std::size_t p0 = 0; p0 < k; p0 += kBlockK) {
    const std::size_t kb = std::min(kBlockK, k - p0);
    kernels.gemm_block(alpha, a + r0 * k + p0, k, b + p0 * n, n, c.row(r0), n,
                       r1 - r0, n, kb);
  }
}

// C += alpha * A * B over packed row-major operands, C already scaled by
// beta; row blocks fanned out.
void multiply_dense(const KernelSet& kernels, float alpha, const float* a,
                    const float* b, MatrixF& c, std::size_t m, std::size_t n,
                    std::size_t k) {
  const auto panel = [&](std::size_t r0, std::size_t r1) {
    run_row_range(kernels, alpha, a, b, c, r0, r1, n, k);
  };
  parallel::for_row_panels(m, kMinRowsPerTask, panel);
}

// Thread-local, so the buffers keep their capacity from call to call and
// the zero-skipping path allocates nothing in steady state. The second
// holds a transposed operand's stored rows.
NonzeroRows& nonzero_scratch() {
  thread_local NonzeroRows rows;
  return rows;
}

NonzeroRows& stored_rows_scratch() {
  thread_local NonzeroRows rows;
  return rows;
}

// Fills `rows` with the nonzeros of A (m x k). A counting pass runs first
// and gives up, returning false, as soon as more than max_nnz nonzeros
// have been seen, so a dense operand costs a fraction of one compare pass
// over A.
bool collect_nonzeros(const MatrixF& a, std::size_t max_nnz,
                      NonzeroRows& rows) {
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  if (k > std::numeric_limits<std::uint32_t>::max()) return false;
  auto& row_ptr = rows.row_ptr;
  row_ptr.assign(m + 1, 0);
  std::uint64_t nnz = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const float* a_row = a.row(i);
    std::uint32_t count = 0;
    for (std::size_t p = 0; p < k; ++p) count += a_row[p] != 0.0f;
    nnz += count;
    if (nnz > max_nnz) return false;
    row_ptr[i + 1] = nnz;
  }
  // Branchless fill: every entry is written, only nonzeros advance.
  rows.col_idx.resize(nnz + 1);
  rows.values.resize(nnz + 1);
  std::uint64_t pos = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const float* a_row = a.row(i);
    for (std::size_t p = 0; p < k; ++p) {
      rows.col_idx[pos] = static_cast<std::uint32_t>(p);
      rows.values[pos] = a_row[p];
      pos += a_row[p] != 0.0f;
    }
  }
  return true;
}

// The nonzeros of op(A): op(A) row i is stored column i, so for kYes the
// stored rows' lists are collected and transposed.
bool collect_nonzeros(Transpose trans, const MatrixF& a, std::size_t max_nnz,
                      NonzeroRows& rows) {
  if (trans == Transpose::kNo) return collect_nonzeros(a, max_nnz, rows);
  NonzeroRows& stored = stored_rows_scratch();
  if (a.rows() > std::numeric_limits<std::uint32_t>::max() ||
      !collect_nonzeros(a, max_nnz, stored)) {
    return false;
  }
  transpose_nonzero_rows(stored, a.cols(), rows);
  return true;
}

// Whether gemm takes the zero-skipping path: op(A) has nonzeros, strictly
// fewer than the crossover density. Fills `rows` when it does.
bool collect_sparse_operand(Transpose trans_a, const MatrixF& a,
                            NonzeroRows& rows) {
  if (a.size() == 0) return false;
  const auto max_nnz = static_cast<std::size_t>(
      std::ceil(kSparseDensityCrossover * static_cast<double>(a.size())) -
      1.0);
  return collect_nonzeros(trans_a, a, max_nnz, rows) &&
         rows.row_ptr.back() != 0;
}

// data[0, n) = beta * data with apply_beta's arithmetic; reports whether
// any element is now -0.0, the one C value a skipped +0 term would have
// changed.
bool scale_finds_negative_zero(float beta, float* data, std::size_t n) {
  if (beta == 0.0f) {
    std::fill_n(data, n, 0.0f);
    return false;
  }
  std::uint32_t found = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const float value = beta == 1.0f ? data[i] : beta * data[i];
    data[i] = value;
    found |= std::bit_cast<std::uint32_t>(value) == kNegativeZeroBits;
  }
  return found != 0;
}

// range(r0, r1) over row ranges of about equal nonzero count that split
// `work` multiply-adds into tasks of at least kMinSparseWorkPerTask.
template <typename Range>
void for_nonzero_ranges(const NonzeroRows& rows, std::uint64_t work,
                        const Range& range) {
  const std::size_t m = rows.rows();
  const std::uint64_t* row_ptr = rows.row_ptr.data();
  const std::uint64_t nnz = row_ptr[m];
  const std::size_t tasks = parallel::task_count(work / kMinSparseWorkPerTask);
  const auto boundary = [&](std::size_t t) {
    if (t == tasks) return m;
    return static_cast<std::size_t>(
        std::lower_bound(row_ptr, row_ptr + m, nnz * t / tasks) - row_ptr);
  };
  parallel::fan_out(tasks, [&](std::size_t t) {
    range(boundary(t), boundary(t + 1));
  });
}

bool holds_negative_zero(const float* data, std::size_t n) {
  std::uint32_t found = 0;
  for (std::size_t i = 0; i < n; ++i) {
    found |= std::bit_cast<std::uint32_t>(data[i]) == kNegativeZeroBits;
  }
  return found != 0;
}

// C = alpha * A * B + beta * C from A's nonzero lists (m x k), B packed
// row-major (k x n). Where beta * C holds a -0.0, the product runs dense
// over the A that dense_a(storage) returns, packed row-major.
template <typename DenseA>
void multiply_sparse(float alpha, const NonzeroRows& rows,
                     const DenseA& dense_a, const float* b, float beta,
                     MatrixF& c, std::size_t n, std::size_t k) {
  const std::size_t m = rows.rows();
  const KernelSet& kernels = active_kernels();
  if (scale_finds_negative_zero(beta, c.data(), c.size())) {
    std::vector<float> a_storage;
    multiply_dense(kernels, alpha, dense_a(a_storage), b, c, m, n, k);
    return;
  }
  const std::uint64_t* row_ptr = rows.row_ptr.data();
  for_nonzero_ranges(rows, row_ptr[m] * n, [&](std::size_t r0, std::size_t r1) {
    kernels.gemm_sparse_rows(alpha, rows.values.data(), rows.col_idx.data(),
                             row_ptr + r0, r1 - r0, b, n, c.data() + r0 * n,
                             n, n);
  });
}

// gemm's zero-skipping product, over op(A)'s nonzero lists.
void multiply_sparse(float alpha, const NonzeroRows& rows, Transpose trans_a,
                     const MatrixF& a, Transpose trans_b, const MatrixF& b,
                     float beta, MatrixF& c, std::size_t n, std::size_t k) {
  std::vector<float> b_storage;
  const auto pack_op_a = [&](std::vector<float>& storage) {
    return pack_a(trans_a, a, rows.rows(), k, storage);
  };
  multiply_sparse(alpha, rows, pack_op_a, pack_b(trans_b, b, k, n, b_storage),
                  beta, c, n, k);
}

}  // namespace

void gemm_naive(Transpose trans_a, Transpose trans_b, float alpha,
                const MatrixF& a, const MatrixF& b, float beta, MatrixF& c) {
  const auto [m, n, k] = check_dims(trans_a, trans_b, a, b, c);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) {
        acc += load(a, trans_a, i, p) * load(b, trans_b, p, j);
      }
      c(i, j) = alpha * acc + beta * c(i, j);
    }
  }
}

void gemm_blocked(Transpose trans_a, Transpose trans_b, float alpha,
                  const MatrixF& a, const MatrixF& b, float beta, MatrixF& c) {
  const auto [m, n, k] = check_dims(trans_a, trans_b, a, b, c);

  std::vector<float> a_storage;
  std::vector<float> b_storage;
  const float* a_ptr = pack_a(trans_a, a, m, k, a_storage);
  const float* b_ptr = pack_b(trans_b, b, k, n, b_storage);

  const KernelSet& kernels = active_kernels();
  apply_beta(beta, c, kernels);
  if (m == 0 || n == 0 || k == 0) return;
  multiply_dense(kernels, alpha, a_ptr, b_ptr, c, m, n, k);
}

void gemm_sparse_a(Transpose trans_a, Transpose trans_b, float alpha,
                   const MatrixF& a, const MatrixF& b, float beta,
                   MatrixF& c) {
  const auto [m, n, k] = check_dims(trans_a, trans_b, a, b, c);
  NonzeroRows& rows = nonzero_scratch();
  if (m == 0 || n == 0 || k == 0 ||
      !collect_nonzeros(trans_a, a, m * k, rows)) {
    gemm_blocked(trans_a, trans_b, alpha, a, b, beta, c);
    return;
  }
  multiply_sparse(alpha, rows, trans_a, a, trans_b, b, beta, c, n, k);
}

void gemm(Transpose trans_a, Transpose trans_b, float alpha, const MatrixF& a,
          const MatrixF& b, float beta, MatrixF& c) {
  const auto [m, n, k] = check_dims(trans_a, trans_b, a, b, c);
  NonzeroRows& rows = nonzero_scratch();
  if (n == 0 || !collect_sparse_operand(trans_a, a, rows)) {
    gemm_blocked(trans_a, trans_b, alpha, a, b, beta, c);
    return;
  }
  multiply_sparse(alpha, rows, trans_a, a, trans_b, b, beta, c, n, k);
}

bool collect_sparse_rows(const MatrixF& a, NonzeroRows& rows) {
  return collect_sparse_operand(Transpose::kNo, a, rows);
}

void transpose_nonzero_rows(const NonzeroRows& a, std::size_t cols,
                            NonzeroRows& out) {
  const std::size_t m = a.rows();
  const std::uint64_t nnz = m == 0 ? 0 : a.row_ptr[m];
  // Each column's count goes two slots ahead, so after the prefix sum
  // row_ptr[c + 1] is column c's first slot. The scatter advances it to
  // column c's end, which is column c + 1's first slot, and the spare
  // last slot is dropped.
  auto& row_ptr = out.row_ptr;
  row_ptr.assign(cols + 2, 0);
  for (std::uint64_t q = 0; q < nnz; ++q) ++row_ptr[a.col_idx[q] + 2];
  for (std::size_t c = 2; c < cols + 2; ++c) row_ptr[c] += row_ptr[c - 1];
  out.col_idx.resize(nnz);
  out.values.resize(nnz);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::uint64_t q = a.row_ptr[i]; q < a.row_ptr[i + 1]; ++q) {
      const std::uint64_t pos = row_ptr[a.col_idx[q] + 1]++;
      out.col_idx[pos] = static_cast<std::uint32_t>(i);
      out.values[pos] = a.values[q];
    }
  }
  row_ptr.pop_back();
}

void gemm_nonzero_rows(float alpha, const NonzeroRows& a, const MatrixF& b,
                       float beta, MatrixF& c) {
  const std::size_t k = b.rows();
  const std::size_t n = b.cols();
  if (c.rows() != a.rows() || c.cols() != n) {
    throw std::invalid_argument("gemm_nonzero_rows: dimension mismatch");
  }
  if (c.size() == 0) return;
  const auto densify = [&](std::vector<float>& storage) {
    storage.assign(a.rows() * k, 0.0f);
    for (std::size_t i = 0; i < a.rows(); ++i) {
      for (std::uint64_t q = a.row_ptr[i]; q < a.row_ptr[i + 1]; ++q) {
        storage[i * k + a.col_idx[q]] = a.values[q];
      }
    }
    return static_cast<const float*>(storage.data());
  };
  multiply_sparse(alpha, a, densify, b.data(), beta, c, n, k);
}

void gemm_nonzero_blocks(const NonzeroRows& a, const MatrixF& b,
                         std::size_t block_rows, std::size_t block_cols,
                         const std::uint8_t* active, MatrixF& c) {
  if (active == nullptr) {
    gemm_nonzero_rows(1.0f, a, b, 0.0f, c);
    return;
  }
  const std::size_t m = a.rows();
  const std::size_t k = b.rows();
  const std::size_t n = b.cols();
  if (c.rows() != m || c.cols() != n) {
    throw std::invalid_argument("gemm_nonzero_blocks: dimension mismatch");
  }
  if (block_rows == 0 || block_cols == 0 || k % block_rows != 0 ||
      n % block_cols != 0) {
    throw std::invalid_argument("gemm_nonzero_blocks: bad block grid");
  }
  c.fill(0.0f);
  if (c.size() == 0 || k == 0) return;
  const std::size_t blocks = n / block_cols;
  // Row p of B's block flags starts at active + flag_row[p]. The tasks
  // read the calling thread's table through the pointer.
  thread_local std::vector<std::size_t> flag_rows;
  flag_rows.resize(k);
  for (std::size_t p = 0; p < k; ++p) flag_rows[p] = (p / block_rows) * blocks;
  const std::size_t* flag_row = flag_rows.data();
  const std::size_t grid = k / block_rows * blocks;
  const std::size_t live = grid - static_cast<std::size_t>(
                                      std::count(active, active + grid, 0));
  const KernelSet& kernels = active_kernels();
  const std::uint64_t* row_ptr = a.row_ptr.data();
  const std::uint64_t work = row_ptr[m] * n / grid * live;
  for_nonzero_ranges(a, work, [&](std::size_t r0, std::size_t r1) {
    thread_local std::vector<float> kept_values;
    thread_local std::vector<std::uint32_t> kept_cols;
    for (std::size_t i = r0; i < r1; ++i) {
      const std::uint64_t begin = row_ptr[i];
      const std::uint64_t count = row_ptr[i + 1] - begin;
      kept_values.resize(count);
      kept_cols.resize(count);
      float* c_row = c.row(i);
      bool skipped = false;
      for (std::size_t h = 0; h < blocks; ++h) {
        // Branchless filter: every entry is written, only the kept ones
        // advance. A non-finite entry is kept: its product with a zero
        // is NaN.
        std::uint64_t kept = 0;
        for (std::uint64_t q = begin; q < begin + count; ++q) {
          const std::uint32_t p = a.col_idx[q];
          const float value = a.values[q];
          kept_cols[kept] = p;
          kept_values[kept] = value;
          kept += active[flag_row[p] + h] != 0 || !std::isfinite(value);
        }
        skipped |= kept < count;
        const std::uint64_t kept_ptr[2] = {0, kept};
        kernels.gemm_sparse_rows(1.0f, kept_values.data(), kept_cols.data(),
                                 kept_ptr, 1, b.data() + h * block_cols, n,
                                 c_row + h * block_cols, n, block_cols);
      }
      // A skipped term could only have turned a -0.0 into +0.0 (see
      // gemm.hpp), so a row without -0.0 has the unmasked bits.
      if (skipped && holds_negative_zero(c_row, n)) {
        std::fill_n(c_row, n, 0.0f);
        kernels.gemm_sparse_rows(1.0f, a.values.data(), a.col_idx.data(),
                                 row_ptr + i, 1, b.data(), n, c_row, n, n);
      }
    }
  });
}

bool GemmRows::reset(Transpose trans_a, float alpha, const MatrixF& a,
                     const MatrixF& b, float beta, const MatrixF& c) {
  const auto [m, n, k] = check_dims(trans_a, Transpose::kNo, a, b, c);
  a_ = &a;
  b_ = b.data();
  trans_a_ = trans_a;
  alpha_ = alpha;
  beta_ = beta;
  n_ = n;
  k_ = k;
  return n != 0 && collect_sparse_operand(trans_a, a, nonzeros_);
}

void GemmRows::row(std::size_t i, float* c_row) const {
  const KernelSet& kernels = active_kernels();
  if (!scale_finds_negative_zero(beta_, c_row, n_)) {
    kernels.gemm_sparse_rows(alpha_, nonzeros_.values.data(),
                             nonzeros_.col_idx.data(),
                             nonzeros_.row_ptr.data() + i, 1, b_, n_, c_row,
                             n_, n_);
    return;
  }
  // The dense row reads op(A) row i itself: its -0.0 entries, which the
  // nonzero lists drop, count here.
  float a_panel[kBlockK];
  for (std::size_t p0 = 0; p0 < k_; p0 += kBlockK) {
    const std::size_t kb = std::min(kBlockK, k_ - p0);
    for (std::size_t p = 0; p < kb; ++p) {
      a_panel[p] = load(*a_, trans_a_, i, p0 + p);
    }
    kernels.gemm_block(alpha_, a_panel, kb, b_ + p0 * n_, n_, c_row, n_, 1,
                       n_, kb);
  }
}

MatrixF matmul(const MatrixF& a, const MatrixF& b) {
  MatrixF c(a.rows(), b.cols());
  gemm(Transpose::kNo, Transpose::kNo, 1.0f, a, b, 0.0f, c);
  return c;
}

}  // namespace streambrain::tensor
