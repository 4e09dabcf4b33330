#ifndef MIRROR_BASE_RNG_H_
#define MIRROR_BASE_RNG_H_

#include <cstdint>
#include <vector>

#include "base/logging.h"

namespace mirror::base {

/// Deterministic pseudo-random number generator (splitmix64 +
/// xoshiro256**). All experiments in the repository are seeded so that
/// every table and figure is exactly reproducible run-to-run.
class Rng {
 public:
  /// Seeds the generator; the same seed always yields the same stream.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull) {
    // splitmix64 to expand the seed into the xoshiro state.
    uint64_t x = seed;
    for (int i = 0; i < 4; ++i) {
      x += 0x9E3779B97F4A7C15ull;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      state_[i] = z ^ (z >> 31);
    }
  }

  /// Uniform 64-bit value.
  uint64_t Next() {
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

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  uint64_t Uniform(uint64_t bound) {
    MIRROR_CHECK_GT(bound, 0u);
    return Next() % bound;
  }

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    MIRROR_CHECK_LE(lo, hi);
    return lo + static_cast<int64_t>(
                    Uniform(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double UniformDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi) {
    return lo + (hi - lo) * UniformDouble();
  }

  /// Standard normal deviate (Box-Muller, one value per call).
  double Gaussian();

  /// Gaussian with the given mean and standard deviation.
  double Gaussian(double mean, double stddev) {
    return mean + stddev * Gaussian();
  }

  /// Zipf-distributed rank in [0, n) with skew `s`; rank 0 is the most
  /// frequent. Used by the text workload generator (term frequencies in
  /// real collections are Zipfian).
  uint64_t Zipf(uint64_t n, double s);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[Uniform(i)]);
    }
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
  // Zipf sampling keeps the CDFs of up to kZipfCdfs (n, s) pairs in the
  // order they were built, evicting the oldest, so a generator that
  // alternates distributions builds each CDF once.
  struct ZipfCdf {
    uint64_t n = 0;
    double s = 0.0;
    std::vector<double> cdf;
  };
  static constexpr size_t kZipfCdfs = 4;
  std::vector<ZipfCdf> zipf_cdfs_;
};

}  // namespace mirror::base

#endif  // MIRROR_BASE_RNG_H_
