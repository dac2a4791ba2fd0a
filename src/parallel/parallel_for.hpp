#pragma once
// The one compute fan-out over the shared ThreadPool. The tensor drivers
// (dense and zero-skipping GEMM, spmm_bt, the quantized supports, the
// softmax), the training step (weight recompute, masks, support noise,
// the MI map) and the encoders split their rows into panels and run them
// here, on the calling thread and parallel::global_pool()'s fan-out slot.
// Each caller keeps its own minimum work per task, so partitions depend
// only on the problem size, the pool size and the STREAMBRAIN_THREADS pin.

#include <algorithm>
#include <cstddef>
#include <optional>
#include <string_view>

#include "parallel/thread_pool.hpp"

namespace streambrain::parallel {

/// Strict STREAMBRAIN_THREADS grammar: a positive decimal integer and
/// nothing else. Returns nullopt for "", "2x", "abc", "0", "-3", "+2",
/// " 2" and values that overflow std::size_t.
[[nodiscard]] std::optional<std::size_t> parse_thread_count(
    std::string_view text) noexcept;

/// How many tasks to spread `by_work` units of work over: at least 1,
/// exactly 1 on a pool worker (work nested in a task stays on its
/// thread), and capped by the pool size and by STREAMBRAIN_THREADS, read
/// once per process. A malformed STREAMBRAIN_THREADS is reported with a
/// warning and ignored.
std::size_t task_count(std::size_t by_work);

/// More, smaller row panels than threads: claimed in order, they let a
/// thread on a slower core (a busy or stolen virtual CPU) take fewer.
inline constexpr std::size_t kPanelsPerThread = 4;

/// body(t) for every t in [0, tasks) on at most `threads` threads, over
/// global_pool().fan_out(): one task or one thread runs inline without
/// touching the pool. Returns once every task has finished; the exception
/// of the lowest t that threw is rethrown only then, so no task outlives
/// `body`.
template <typename Body>
void fan_out(std::size_t tasks, std::size_t threads, const Body& body) {
  if (tasks == 0) return;
  if (tasks == 1) {
    body(0);
    return;
  }
  global_pool().fan_out(
      tasks, threads,
      [](const void* erased, std::size_t t) {
        (*static_cast<const Body*>(erased))(t);
      },
      &body);
}

/// fan_out with a thread per task.
template <typename Body>
void fan_out(std::size_t tasks, const Body& body) {
  fan_out(tasks, tasks, body);
}

/// panel(r0, r1) over contiguous, equal row panels covering [0, rows)
/// exactly once (the last panel may be shorter), on at most `threads`
/// threads: one panel on one thread (or 0), else at least `min_rows` rows
/// per panel where the rows allow and at most kPanelsPerThread panels per
/// thread. No call at all when rows == 0.
template <typename Panel>
void for_row_panels(std::size_t rows, std::size_t min_rows,
                    std::size_t threads, const Panel& panel) {
  if (rows == 0) return;
  const std::size_t panels =
      threads < 2 ? 1
                  : std::clamp<std::size_t>(rows / min_rows, 1,
                                            threads * kPanelsPerThread);
  const std::size_t rows_per_panel = (rows + panels - 1) / panels;
  fan_out((rows + rows_per_panel - 1) / rows_per_panel, threads,
          [&](std::size_t p) {
            const std::size_t r0 = p * rows_per_panel;
            panel(r0, std::min(r0 + rows_per_panel, rows));
          });
}

/// for_row_panels on task_count(rows / min_rows) threads.
template <typename Panel>
void for_row_panels(std::size_t rows, std::size_t min_rows,
                    const Panel& panel) {
  for_row_panels(rows, min_rows, task_count(rows / min_rows), panel);
}

}  // namespace streambrain::parallel
