#pragma once
// Deterministic, splittable random number generation.
//
// All stochastic components in the library (data generators, weight
// initialisation, plasticity tie-breaking, HPO samplers) draw from Rng so
// that every experiment is reproducible from a single seed. The generator
// is xoshiro256**, seeded through SplitMix64 per Blackman & Vigna's
// recommendation; `split()` derives statistically independent streams for
// parallel workers.

#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

namespace streambrain::util {

/// SplitMix64: used for seeding and cheap hash-style mixing.
inline std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97f4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// The two standard normals of one Box-Muller draw from its uniform pair
/// (u1 in (0, 1]), in the order Rng::normal() returns them.
struct NormalPair {
  double first;
  double second;
};
NormalPair box_muller(double u1, double u2) noexcept;

/// xoshiro256** PRNG. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5EEDBA5EULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Derive an independent child stream (for per-thread / per-run use).
  [[nodiscard]] Rng split() noexcept {
    std::uint64_t s = (*this)() ^ 0xA5A5A5A5A5A5A5A5ULL;
    Rng child(0);
    for (auto& word : child.state_) word = splitmix64(s);
    return child;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). Unbiased via rejection.
  std::uint64_t uniform_index(std::uint64_t n) noexcept {
    if (n == 0) return 0;
    const std::uint64_t threshold = (0 - n) % n;  // 2^64 mod n
    for (;;) {
      const std::uint64_t r = (*this)();
      if (r >= threshold) return r % n;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    uniform_index(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Standard normal via Box-Muller (cached second value): the cached
  /// normal when one is pending, else the first of box_muller() over
  /// normal_uniforms(), caching the second.
  double normal() noexcept;

  // The serial half of normal(), for a caller that runs box_muller()
  // itself, elsewhere or in parallel (core::add_normal_noise): in the
  // order normal() makes them, these calls consume the stream and the
  // cache exactly as normal() does.

  /// Takes the pending cached normal, if any.
  std::optional<double> take_cached_normal() noexcept {
    if (!has_cached_normal_) return std::nullopt;
    has_cached_normal_ = false;
    return cached_normal_;
  }

  /// The uniform pair (u1, u2) of the next Box-Muller draw, u1 in (0, 1).
  std::pair<double, double> normal_uniforms() noexcept {
    double u1 = 0.0;
    do {
      u1 = uniform();
    } while (u1 <= 0.0);
    return {u1, uniform()};
  }

  /// Caches the second normal of a pair for the next normal() call.
  void cache_normal(double value) noexcept {
    cached_normal_ = value;
    has_cached_normal_ = true;
  }

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Exponential with rate lambda (mean 1/lambda).
  double exponential(double lambda) noexcept;

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Gamma(shape k, scale theta) via Marsaglia-Tsang.
  double gamma(double shape, double scale) noexcept;

  /// Sample an index according to (unnormalised, non-negative) weights.
  std::size_t categorical(const std::vector<double>& weights) noexcept;

  /// Fisher-Yates shuffle of an index range stored in `indices`.
  template <typename T>
  void shuffle(std::vector<T>& values) noexcept {
    for (std::size_t i = values.size(); i > 1; --i) {
      const std::size_t j = uniform_index(i);
      std::swap(values[i - 1], values[j]);
    }
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace streambrain::util
