#pragma once
// Open-loop traffic: requests are sent on a seeded Poisson schedule no
// matter how fast the server answers, and every latency is timed from
// the request's *due* time, not from when it was actually sent. A server
// that stalls — or blocks the sender through backpressure — therefore
// shows the stall in the latency of every request that fell due during
// it (no coordinated omission), and the generator's own lateness is
// reported beside the latencies.

#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Schedule {
  std::vector<double> due_s;        ///< offsets from the start, ascending
  std::vector<std::size_t> rows;    ///< rows per request, 1..max_rows
  std::vector<std::size_t> offset;  ///< first row of each request
  std::size_t total_rows = 0;
};

/// Poisson arrivals at `rate_per_s` over `duration_s`, request sizes
/// uniform in [1, max_rows]. Pure function of its arguments.
[[nodiscard]] Schedule make_schedule(std::uint64_t seed, double rate_per_s,
                                     double duration_s, std::size_t max_rows);

struct OpenLoopResult {
  std::vector<double> latency_ms;  ///< due -> completion, completed only
  std::vector<double> due_s;       ///< due time of each latency_ms entry
  std::vector<double> late_ms;     ///< actual send - due, per request
  std::uint64_t failed = 0;
  double wall_s = 0.0;
};

/// Outcome of polling one sent request.
enum class Poll { kPending, kDone, kFailed };

/// Drive `schedule` from the calling thread, which never sleeps: it sends
/// each request when it falls due and, in between, polls every request
/// still in flight. `submit(i)` issues request i (it may block — that
/// blocking is charged to lateness and latency); `poll(i)` must not
/// block. A completion is timed when the poll sees it, so no thread of
/// the client has to be woken to notice it, and no request waits behind
/// an earlier one that is still running.
template <typename Submit, typename PollFn>
OpenLoopResult run_open_loop(const Schedule& schedule, Submit&& submit,
                             PollFn&& poll) {
  const std::size_t n = schedule.due_s.size();
  OpenLoopResult result;
  result.late_ms.assign(n, 0.0);
  std::vector<double> latency(n, -1.0);
  std::vector<std::size_t> in_flight;

  const Clock::time_point start = Clock::now();
  const auto since_due_ms = [&](std::size_t i, Clock::time_point t) {
    return 1e3 * (std::chrono::duration<double>(t - start).count() -
                  schedule.due_s[i]);
  };
  std::size_t next = 0;
  while (next < n || !in_flight.empty()) {
    if (next < n && since_due_ms(next, Clock::now()) >= 0.0) {
      result.late_ms[next] = since_due_ms(next, Clock::now());
      submit(next);
      in_flight.push_back(next++);
      continue;
    }
    bool progressed = false;
    for (std::size_t k = 0; k < in_flight.size();) {
      const std::size_t i = in_flight[k];
      const Poll state = poll(i);
      if (state == Poll::kPending) {
        ++k;
        continue;
      }
      if (state == Poll::kDone) {
        latency[i] = since_due_ms(i, Clock::now());
      } else {
        ++result.failed;
      }
      in_flight[k] = in_flight.back();
      in_flight.pop_back();
      progressed = true;
    }
    if (!progressed) std::this_thread::yield();
  }
  result.wall_s = seconds_since(start);
  for (std::size_t i = 0; i < n; ++i) {
    if (latency[i] < 0.0) continue;
    result.latency_ms.push_back(latency[i]);
    result.due_s.push_back(schedule.due_s[i]);
  }
  return result;
}

/// Checks the generator itself: the schedule is a pure function of its
/// seed, and a server that stalls once (blocking the sender, as a full
/// queue does) shows the stall in the due-timed latency of every request
/// that fell due during it, with the stall reported as generator
/// lateness. Returns an empty string on success, else what failed.
[[nodiscard]] std::string open_loop_self_test();

}  // namespace perfbench
