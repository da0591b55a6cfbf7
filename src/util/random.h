// Deterministic, seedable random number generation used across dataset
// generators and property tests.
//
// We wrap xoshiro256** (public-domain algorithm by Blackman & Vigna) instead
// of std::mt19937 because it is faster, has a tiny state, and its output is
// identical across standard-library implementations, which keeps synthetic
// datasets reproducible byte-for-byte on any platform.

#ifndef PINOCCHIO_UTIL_RANDOM_H_
#define PINOCCHIO_UTIL_RANDOM_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace pinocchio {

/// Deterministic pseudo-random generator (xoshiro256**).
///
/// Satisfies the UniformRandomBitGenerator concept so it can be used with
/// <random> distributions, but the convenience members below are preferred
/// because their results are implementation-independent.
class Rng {
 public:
  using result_type = uint64_t;

  /// Seeds the generator; two Rng instances with equal seeds produce equal
  /// streams.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  /// Returns the next 64 random bits.
  uint64_t Next();
  result_type operator()() { return Next(); }

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal variate (Box-Muller; deterministic).
  double Gaussian();

  /// Normal variate with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// Exponential variate with the given rate (lambda > 0).
  double Exponential(double rate);

  /// Discrete power-law (Pareto/Zipf-like) integer in [lo, hi] with
  /// exponent `alpha` > 1: P(x) ∝ x^-alpha. Used for skewed per-user
  /// check-in counts.
  int64_t PowerLawInt(int64_t lo, int64_t hi, double alpha);

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Requires a non-empty vector with non-negative weights summing > 0.
  size_t Categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffles `v` in place.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n) (k <= n), in random order:
  /// the first k steps of a Fisher-Yates shuffle of [0, n), in O(k) time
  /// and memory.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

 private:
  std::array<uint64_t, 4> state_;
  // Cached second Box-Muller variate.
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace pinocchio

#endif  // PINOCCHIO_UTIL_RANDOM_H_
