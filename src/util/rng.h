#ifndef RE2XOLAP_UTIL_RNG_H_
#define RE2XOLAP_UTIL_RNG_H_

#include <cstdint>

namespace re2xolap::util {

/// Deterministic splitmix64-based RNG. Used by the synthetic dataset
/// generators and benchmark workload selection so that every run (and every
/// platform) produces identical datasets and workloads.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  /// Next raw 64-bit value.
  uint64_t Next() {
    uint64_t z = (state_ += kGamma);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Skips `k` draws in O(1): the state is a counter that each Next()
  /// steps by the same odd constant, so the generator can be jumped to
  /// any draw (a parallel loop starts each chunk at its first draw).
  void Advance(uint64_t k) { state_ += k * kGamma; }

  /// Uniform integer in [0, n). n must be > 0.
  uint64_t Uniform(uint64_t n) { return Next() % n; }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformRange(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Uniform(static_cast<uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  double UniformDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// True with probability p.
  bool Bernoulli(double p) { return UniformDouble() < p; }

  /// Zipf-ish skewed pick in [0, n): favors small indices. Cheap
  /// approximation (squared uniform) adequate for workload skew.
  uint64_t Skewed(uint64_t n) {
    double u = UniformDouble();
    return static_cast<uint64_t>(u * u * static_cast<double>(n));
  }

 private:
  static constexpr uint64_t kGamma = 0x9E3779B97F4A7C15ULL;
  uint64_t state_;
};

}  // namespace re2xolap::util

#endif  // RE2XOLAP_UTIL_RNG_H_
