#include "util/random.h"

#include <cmath>

#include "util/logging.h"

namespace pinocchio {
namespace {

// SplitMix64 — used only to expand the 64-bit seed into the 256-bit state.
uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& word : state_) word = SplitMix64(s);
  // All-zero state would be a fixed point; SplitMix64 cannot produce four
  // zeros from any seed, but guard anyway.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 1;
  }
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  PINO_CHECK_LE(lo, hi);
  // Unsigned (modular) arithmetic: hi - lo overflows int64_t for ranges
  // wider than 2^63, and the two's-complement result is the same.
  const uint64_t range =
      static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  if (range == 0) return static_cast<int64_t>(Next());  // full 64-bit range
  // Rejection sampling to avoid modulo bias. (2^64 - 1) % range < range,
  // so one more than it wraps to 0 exactly when it reaches range — the
  // same limit as a second modulo, one 64-bit division cheaper.
  const uint64_t tail = (~0ull) % range + 1;
  const uint64_t limit = (~0ull) - (tail == range ? 0 : tail);
  uint64_t v;
  do {
    v = Next();
  } while (v > limit);
  return static_cast<int64_t>(static_cast<uint64_t>(lo) + v % range);
}

double Rng::Gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box-Muller with rejection of u1 == 0.
  double u1;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

double Rng::Exponential(double rate) {
  PINO_CHECK_GT(rate, 0.0);
  double u;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

int64_t Rng::PowerLawInt(int64_t lo, int64_t hi, double alpha) {
  PINO_CHECK_LE(lo, hi);
  PINO_CHECK_GT(lo, 0);
  PINO_CHECK_GT(alpha, 1.0);
  // Inverse-CDF sampling of a continuous power law on [lo, hi+1), floored.
  const double a = 1.0 - alpha;
  const double lo_p = std::pow(static_cast<double>(lo), a);
  const double hi_p = std::pow(static_cast<double>(hi) + 1.0, a);
  const double u = NextDouble();
  const double x = std::pow(lo_p + u * (hi_p - lo_p), 1.0 / a);
  int64_t v = static_cast<int64_t>(x);
  if (v < lo) v = lo;
  if (v > hi) v = hi;
  return v;
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  PINO_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    PINO_CHECK_GE(w, 0.0);
    total += w;
  }
  PINO_CHECK_GT(total, 0.0);
  double target = NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // floating-point slack
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  PINO_CHECK_LE(k, n);
  std::vector<size_t> result;
  result.reserve(k);
  if (k == 0) return result;
  // Partial Fisher-Yates over a virtual identity array [0, n): step i
  // swaps slots i and j in [i, n) and emits the value that lands in slot
  // i. Slots below i are never read again, so only the values displaced
  // into slot j need storing: an open-addressing map from slot to value
  // with at most k entries, O(k) memory for the draws of the dense form.
  int shift = 64 - 4;  // table of 16 slots, grown to keep the load <= 1/2
  while ((uint64_t{1} << (64 - shift)) < 2 * static_cast<uint64_t>(k)) {
    --shift;
  }
  const size_t mask = (size_t{1} << (64 - shift)) - 1;
  constexpr size_t kEmpty = ~size_t{0};
  std::vector<std::pair<size_t, size_t>> table(mask + 1, {kEmpty, 0});
  const auto entry = [&](size_t slot) -> std::pair<size_t, size_t>& {
    size_t h = static_cast<size_t>(
        (static_cast<uint64_t>(slot) * 0x9e3779b97f4a7c15ull) >> shift);
    while (table[h].first != kEmpty && table[h].first != slot) {
      h = (h + 1) & mask;
    }
    return table[h];
  };
  const auto value_at = [](const std::pair<size_t, size_t>& e, size_t slot) {
    return e.first == kEmpty ? slot : e.second;
  };
  for (size_t i = 0; i < k; ++i) {
    const auto j = static_cast<size_t>(
        UniformInt(static_cast<int64_t>(i), static_cast<int64_t>(n) - 1));
    const size_t value_i = value_at(entry(i), i);
    std::pair<size_t, size_t>& at_j = entry(j);
    result.push_back(value_at(at_j, j));
    at_j = {j, value_i};
  }
  return result;
}

}  // namespace pinocchio
