#include "parallel/parallel_for.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>

#include "util/log.hpp"

namespace streambrain::parallel {

std::optional<std::size_t> parse_thread_count(std::string_view text) noexcept {
  std::size_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value == 0) return std::nullopt;
  return value;
}

namespace {

// Resolved once.
std::size_t max_compute_tasks() {
  static const std::size_t limit = [] {
    if (const char* env = std::getenv("STREAMBRAIN_THREADS")) {
      if (const auto threads = parse_thread_count(env)) return *threads;
      SB_LOG(util::LogLevel::kWarn)
          << "STREAMBRAIN_THREADS: '" << env
          << "' is not a positive integer; using the pool size";
    }
    return global_pool().size();
  }();
  return limit;
}

}  // namespace

std::size_t task_count(std::size_t by_work) {
  if (ThreadPool::in_worker()) return 1;
  return std::max<std::size_t>(
      1, std::min({global_pool().size(), max_compute_tasks(), by_work}));
}

}  // namespace streambrain::parallel
