#include "util/rng.hpp"

#include <cmath>

namespace streambrain::util {

NormalPair box_muller(double u1, double u2) noexcept {
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  return {radius * std::cos(angle), radius * std::sin(angle)};
}

double Rng::normal() noexcept {
  if (const std::optional<double> cached = take_cached_normal()) {
    return *cached;
  }
  const auto [u1, u2] = normal_uniforms();
  const NormalPair pair = box_muller(u1, u2);
  cache_normal(pair.second);
  return pair.first;
}

double Rng::exponential(double lambda) noexcept {
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -std::log(u) / lambda;
}

double Rng::gamma(double shape, double scale) noexcept {
  if (shape < 1.0) {
    // Boost to shape+1 then correct (Marsaglia-Tsang appendix).
    const double boosted = gamma(shape + 1.0, scale);
    double u = 0.0;
    do {
      u = uniform();
    } while (u <= 0.0);
    return boosted * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = 0.0;
    double v = 0.0;
    do {
      x = normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return scale * d * v;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return scale * d * v;
    }
  }
}

std::size_t Rng::categorical(const std::vector<double>& weights) noexcept {
  double total = 0.0;
  for (double w : weights) total += (w > 0.0 ? w : 0.0);
  if (total <= 0.0) return 0;
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (target < w) return i;
    target -= w;
  }
  return weights.size() - 1;
}

}  // namespace streambrain::util
