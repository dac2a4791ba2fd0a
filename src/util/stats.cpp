#include "util/stats.hpp"

#include <cmath>

namespace streambrain::util {

double RunningStat::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const noexcept { return std::sqrt(variance()); }

}  // namespace streambrain::util
