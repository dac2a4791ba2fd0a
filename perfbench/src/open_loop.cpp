#include "open_loop.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <random>

namespace perfbench {

Schedule make_schedule(std::uint64_t seed, double rate_per_s,
                       double duration_s, std::size_t max_rows) {
  // Own generator and inverse-CDF sampling, so the schedule does not
  // depend on the library's RNG or on the standard library's
  // distribution implementations.
  std::mt19937_64 rng(seed ^ 0x0BE4C0DEULL);
  const auto uniform = [&rng] {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };
  Schedule schedule;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - uniform()) / rate_per_s;
    if (t >= duration_s) break;
    const std::size_t rows =
        1 + static_cast<std::size_t>(uniform() * static_cast<double>(max_rows));
    schedule.due_s.push_back(t);
    schedule.rows.push_back(std::min(rows, max_rows));
    schedule.offset.push_back(schedule.total_rows);
    schedule.total_rows += schedule.rows.back();
  }
  return schedule;
}

std::string open_loop_self_test() {
  // Determinism: the same seed gives the same schedule, another seed a
  // different one, and the realized rate is near the requested one.
  const Schedule a = make_schedule(7, 2000.0, 1.0, 16);
  const Schedule b = make_schedule(7, 2000.0, 1.0, 16);
  const Schedule c = make_schedule(8, 2000.0, 1.0, 16);
  if (a.due_s != b.due_s || a.rows != b.rows) {
    return "schedule differs between two calls with the same seed";
  }
  if (a.due_s == c.due_s) return "schedule ignores its seed";
  if (a.due_s.size() < 1800 || a.due_s.size() > 2200) {
    return "realized rate " + std::to_string(a.due_s.size()) +
           "/s is not within 10% of 2000/s";
  }
  for (const std::size_t rows : a.rows) {
    if (rows < 1 || rows > 16) return "request size outside 1..16";
  }

  // Coordinated omission: a fake server answers instantly, except that
  // one submit blocks for kStall (as a full queue blocks the sender).
  constexpr double kRate = 2000.0;
  constexpr double kStallAt = 0.10;
  constexpr double kStall = 0.05;
  const Schedule schedule = make_schedule(11, kRate, 0.25, 16);
  const std::size_t n = schedule.due_s.size();
  std::vector<std::promise<void>> promises(n);
  std::vector<std::future<void>> futures(n);
  std::size_t stall_index = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (schedule.due_s[i] >= kStallAt) {
      stall_index = i;
      break;
    }
  }
  if (stall_index == n) return "self-test schedule has no request to stall";
  Clock::time_point stall_end{};
  const Clock::time_point start = Clock::now();
  const OpenLoopResult result = run_open_loop(
      schedule,
      [&](std::size_t i) {
        futures[i] = promises[i].get_future();
        if (i == stall_index) {
          std::this_thread::sleep_for(std::chrono::duration<double>(kStall));
          stall_end = Clock::now();
        }
        promises[i].set_value();
      },
      [&](std::size_t i) {
        return futures[i].wait_for(std::chrono::seconds(0)) ==
                       std::future_status::ready
                   ? Poll::kDone
                   : Poll::kPending;
      });
  if (result.failed != 0 || result.latency_ms.size() != n) {
    return "fake server lost requests";
  }
  // Every request due before the stall ended waited for it: its latency,
  // timed from its due time, covers the rest of the stall. The open loop
  // starts its clock a hair after `start`, so allow 1 ms of slack.
  const double stall_end_s =
      std::chrono::duration<double>(stall_end - start).count();
  std::size_t covered = 0;
  for (std::size_t i = stall_index; i < n; ++i) {
    if (schedule.due_s[i] >= stall_end_s) break;
    const double owed_ms = 1e3 * (stall_end_s - schedule.due_s[i]);
    if (result.latency_ms[i] < owed_ms - 1.0) {
      return "request " + std::to_string(i) + " due during the stall reports " +
             std::to_string(result.latency_ms[i]) + " ms, less than the " +
             std::to_string(owed_ms) + " ms it waited";
    }
    ++covered;
  }
  const double expected = kRate * kStall;
  if (static_cast<double>(covered) < 0.5 * expected) {
    return "only " + std::to_string(covered) +
           " requests fell due during the stall, expected about " +
           std::to_string(expected);
  }
  const double worst_late =
      *std::max_element(result.late_ms.begin(), result.late_ms.end());
  if (worst_late < 1e3 * kStall * 0.9) {
    return "generator lateness " + std::to_string(worst_late) +
           " ms does not show the " + std::to_string(1e3 * kStall) +
           " ms stall";
  }
  return {};
}

}  // namespace perfbench
