#pragma once
// Numerically stable online moments (Welford), used by the figure
// benches.

#include <cstddef>

namespace streambrain::util {

/// Online mean/variance accumulator (Welford). O(1) space, stable.
class RunningStat {
 public:
  void add(double value) noexcept {
    ++count_;
    const double delta = value - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (value - mean_);
    if (count_ == 1 || value < min_) min_ = value;
    if (count_ == 1 || value > max_) max_ = value;
  }

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace streambrain::util
