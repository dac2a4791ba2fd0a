#pragma once
// The one compute fan-out over the shared ThreadPool. The tensor drivers
// (dense and zero-skipping GEMM, spmm_bt, the quantized supports) split
// their rows into panels and run them here: panel 0 on the calling
// thread, the rest on parallel::global_pool(). Each driver keeps its own
// minimum work per task, so partitions depend only on the problem size,
// the pool size and the STREAMBRAIN_THREADS / OMP_NUM_THREADS pin.

#include <algorithm>
#include <cstddef>
#include <exception>
#include <future>
#include <optional>
#include <string_view>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace streambrain::parallel {

/// Strict STREAMBRAIN_THREADS grammar: a positive decimal integer and
/// nothing else. Returns nullopt for "", "2x", "abc", "0", "-3", "+2",
/// " 2" and values that overflow std::size_t.
[[nodiscard]] std::optional<std::size_t> parse_thread_count(
    std::string_view text) noexcept;

/// How many tasks to spread `by_work` units of work over: at least 1,
/// exactly 1 on a pool worker (a nested fan-out would deadlock a
/// single-worker pool), and capped by the pool size and by a limit
/// resolved once per process: STREAMBRAIN_THREADS wins, then
/// OMP_NUM_THREADS (its leading positive integer, so "4,2" reads as 4),
/// then the pool size. A malformed STREAMBRAIN_THREADS is reported with a
/// warning and skipped.
std::size_t task_count(std::size_t by_work);

/// body(t) for every t in [0, tasks): t = 0 on the calling thread, the
/// rest on global_pool(). Returns once every task has finished; the first
/// exception (lowest t) is rethrown only then, so no task outlives `body`.
template <typename Body>
void fan_out(std::size_t tasks, const Body& body) {
  if (tasks == 0) return;
  std::vector<std::future<void>> futures;
  std::exception_ptr error;
  try {
    futures.reserve(tasks - 1);
    for (std::size_t t = 1; t < tasks; ++t) {
      futures.push_back(global_pool().submit([&body, t] { body(t); }));
    }
    body(0);
  } catch (...) {
    error = std::current_exception();
  }
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
}

/// panel(r0, r1) over contiguous row panels covering [0, rows) exactly
/// once, at least `min_rows` rows per task (the last panel may be
/// shorter). No call at all when rows == 0.
template <typename Panel>
void for_row_panels(std::size_t rows, std::size_t min_rows,
                    const Panel& panel) {
  if (rows == 0) return;
  const std::size_t tasks = task_count(rows / min_rows);
  const std::size_t rows_per_task = (rows + tasks - 1) / tasks;
  fan_out((rows + rows_per_task - 1) / rows_per_task, [&](std::size_t t) {
    const std::size_t r0 = t * rows_per_task;
    panel(r0, std::min(r0 + rows_per_task, rows));
  });
}

}  // namespace streambrain::parallel
