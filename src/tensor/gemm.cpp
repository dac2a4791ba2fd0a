#include "tensor/gemm.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <limits>
#include <stdexcept>
#include <vector>

#include "parallel/thread_pool.hpp"
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

// How many tasks to fan a product out over: `by_work` capped by the pool
// and the STREAMBRAIN_THREADS / OMP_NUM_THREADS pin, and 1 on a pool
// worker (a nested fan-out would deadlock a single-worker pool).
std::size_t task_count(std::size_t by_work) {
  if (parallel::ThreadPool::in_worker()) return 1;
  return std::max<std::size_t>(
      1, std::min({parallel::global_pool().size(), detail::max_compute_tasks(),
                   by_work}));
}

// body(t) for every t in [0, tasks): t = 0 on the calling thread,
// overlapping the rest on the shared ThreadPool.
template <typename Body>
void fan_out(std::size_t tasks, const Body& body) {
  std::vector<std::future<void>> futures;
  futures.reserve(tasks - 1);
  for (std::size_t t = 1; t < tasks; ++t) {
    futures.push_back(parallel::global_pool().submit([&body, t] { body(t); }));
  }
  body(0);
  for (auto& future : futures) future.get();
}

// C += alpha * A * B over packed row-major operands, C already scaled by
// beta; row blocks fanned out.
void multiply_dense(const KernelSet& kernels, float alpha, const float* a,
                    const float* b, MatrixF& c, std::size_t m, std::size_t n,
                    std::size_t k) {
  const std::size_t tasks = task_count(m / kMinRowsPerTask);
  const std::size_t rows_per_task = (m + tasks - 1) / tasks;
  fan_out((m + rows_per_task - 1) / rows_per_task, [&](std::size_t t) {
    const std::size_t r0 = t * rows_per_task;
    run_row_range(kernels, alpha, a, b, c, r0, std::min(r0 + rows_per_task, m),
                  n, k);
  });
}

// The nonzero entries of op(A), row by row in ascending k (CSR layout).
// Thread-local, so the buffers keep their capacity from call to call and
// the zero-skipping path allocates nothing in steady state.
struct NonzeroRows {
  std::vector<std::uint64_t> row_ptr;
  std::vector<std::uint32_t> col_idx;
  std::vector<float> values;
  // trans_a = kYes only: each op(A) row's next free slot, and one
  // stored row's nonzero positions.
  std::vector<std::uint64_t> cursor;
  std::vector<std::size_t> positions;
};

NonzeroRows& nonzero_scratch() {
  thread_local NonzeroRows rows;
  return rows;
}

// Fills `rows` with the nonzeros of op(A) (m x k). A counting pass runs
// first and gives up, returning false, as soon as more than max_nnz
// nonzeros have been seen, so a dense operand costs a fraction of one
// compare pass over A.
bool collect_nonzeros(Transpose trans, const MatrixF& a, std::size_t m,
                      std::size_t k, std::size_t max_nnz, NonzeroRows& rows) {
  if (k > std::numeric_limits<std::uint32_t>::max()) return false;
  auto& row_ptr = rows.row_ptr;
  row_ptr.assign(m + 1, 0);
  std::uint64_t nnz = 0;
  if (trans == Transpose::kNo) {
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
  // op(A) row i is stored column i: count per column, then place each
  // stored row's nonzeros at their column's cursor (k ascends with the
  // stored row). The row's nonzero positions are compacted branch-free
  // first, so the scatter touches only the nonzeros.
  for (std::size_t p = 0; p < k; ++p) {
    const float* a_row = a.row(p);
    std::uint32_t count = 0;
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint32_t nonzero = a_row[i] != 0.0f;
      row_ptr[i + 1] += nonzero;
      count += nonzero;
    }
    nnz += count;
    if (nnz > max_nnz) return false;
  }
  for (std::size_t i = 0; i < m; ++i) row_ptr[i + 1] += row_ptr[i];
  rows.col_idx.resize(nnz);
  rows.values.resize(nnz);
  rows.cursor.assign(row_ptr.begin(), row_ptr.end() - 1);
  rows.positions.resize(m + 1);
  for (std::size_t p = 0; p < k; ++p) {
    const float* a_row = a.row(p);
    std::size_t count = 0;
    for (std::size_t i = 0; i < m; ++i) {
      rows.positions[count] = i;
      count += a_row[i] != 0.0f;
    }
    for (std::size_t t = 0; t < count; ++t) {
      const std::size_t i = rows.positions[t];
      const std::uint64_t pos = rows.cursor[i]++;
      rows.col_idx[pos] = static_cast<std::uint32_t>(p);
      rows.values[pos] = a_row[i];
    }
  }
  return true;
}

// C = beta * C with apply_beta's arithmetic; reports whether any element
// is now -0.0, the one C value a skipped +0 term would have changed.
bool scale_finds_negative_zero(float beta, MatrixF& c) {
  if (beta == 0.0f) {
    c.fill(0.0f);
    return false;
  }
  float* data = c.data();
  std::uint32_t found = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    const float value = beta == 1.0f ? data[i] : beta * data[i];
    data[i] = value;
    found |= std::bit_cast<std::uint32_t>(value) == kNegativeZeroBits;
  }
  return found != 0;
}

// C = alpha * op(A) * op(B) + beta * C from op(A)'s nonzero lists.
void multiply_sparse(float alpha, const NonzeroRows& rows, Transpose trans_a,
                     const MatrixF& a, Transpose trans_b, const MatrixF& b,
                     float beta, MatrixF& c, std::size_t m, std::size_t n,
                     std::size_t k) {
  std::vector<float> b_storage;
  const float* b_ptr = pack_b(trans_b, b, k, n, b_storage);
  const KernelSet& kernels = active_kernels();
  if (scale_finds_negative_zero(beta, c)) {
    std::vector<float> a_storage;
    multiply_dense(kernels, alpha, pack_a(trans_a, a, m, k, a_storage), b_ptr,
                   c, m, n, k);
    return;
  }
  const std::uint64_t* row_ptr = rows.row_ptr.data();
  const std::uint64_t nnz = row_ptr[m];
  const std::size_t tasks = task_count(nnz * n / kMinSparseWorkPerTask);
  // Row ranges of about equal nonzero count.
  const auto boundary = [&](std::size_t t) {
    if (t == tasks) return m;
    return static_cast<std::size_t>(
        std::lower_bound(row_ptr, row_ptr + m, nnz * t / tasks) - row_ptr);
  };
  fan_out(tasks, [&](std::size_t t) {
    const std::size_t r0 = boundary(t);
    const std::size_t r1 = boundary(t + 1);
    kernels.gemm_sparse_rows(alpha, rows.values.data(), rows.col_idx.data(),
                             row_ptr + r0, r1 - r0, b_ptr, n,
                             c.data() + r0 * n, n, n);
  });
}

}  // namespace

namespace detail {

// Resolved once. The old OpenMP path honored OMP_NUM_THREADS; the pool
// fan-out keeps that contract (STREAMBRAIN_THREADS wins, then
// OMP_NUM_THREADS, then the pool size), so embedders and CI can still
// pin or disable compute threading.
std::size_t max_compute_tasks() {
  static const std::size_t limit = [] {
    for (const char* name : {"STREAMBRAIN_THREADS", "OMP_NUM_THREADS"}) {
      if (const char* env = std::getenv(name)) {
        const long value = std::atol(env);
        if (value > 0) return static_cast<std::size_t>(value);
      }
    }
    return parallel::global_pool().size();
  }();
  return limit;
}

}  // namespace detail

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
      !collect_nonzeros(trans_a, a, m, k, m * k, rows)) {
    gemm_blocked(trans_a, trans_b, alpha, a, b, beta, c);
    return;
  }
  multiply_sparse(alpha, rows, trans_a, a, trans_b, b, beta, c, m, n, k);
}

void gemm(Transpose trans_a, Transpose trans_b, float alpha, const MatrixF& a,
          const MatrixF& b, float beta, MatrixF& c) {
  const auto [m, n, k] = check_dims(trans_a, trans_b, a, b, c);
  if (m == 0 || n == 0 || k == 0) {
    gemm_blocked(trans_a, trans_b, alpha, a, b, beta, c);
    return;
  }
  // Strictly below the crossover density.
  const auto total = static_cast<double>(m) * static_cast<double>(k);
  const auto max_nnz = static_cast<std::size_t>(
      std::ceil(kSparseDensityCrossover * total) - 1.0);
  NonzeroRows& rows = nonzero_scratch();
  if (!collect_nonzeros(trans_a, a, m, k, max_nnz, rows) ||
      rows.row_ptr[m] == 0) {
    gemm_blocked(trans_a, trans_b, alpha, a, b, beta, c);
    return;
  }
  multiply_sparse(alpha, rows, trans_a, a, trans_b, b, beta, c, m, n, k);
}

MatrixF matmul(const MatrixF& a, const MatrixF& b) {
  MatrixF c(a.rows(), b.cols());
  gemm(Transpose::kNo, Transpose::kNo, 1.0f, a, b, 0.0f, c);
  return c;
}

}  // namespace streambrain::tensor
