#ifndef EASEML_COMMON_RNG_H_
#define EASEML_COMMON_RNG_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/status.h"

namespace easeml {

/// The SplitMix64 golden-gamma increment (2^64 / phi).
inline constexpr uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ULL;

/// SplitMix64 step: adds the golden gamma and applies the finalizer — a
/// fast, high-quality 64-bit mix that decorrelates structured integers.
/// Used wherever a deterministic, platform-independent hash of small ids
/// is needed (per-repetition child seeds, synthetic ground-truth accuracies
/// in benches/tests).
uint64_t SplitMix64(uint64_t x);

/// Deterministic pseudo-random number generator used throughout the library.
///
/// Every stochastic component (synthetic data generation, random scheduling,
/// experiment repetition seeds) draws from an explicitly seeded `Rng` so that
/// all experiments are exactly reproducible. Not thread-safe; use one
/// instance per thread.
class Rng {
 public:
  /// Seeds the generator. The same seed always yields the same stream.
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0);

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  int UniformInt(int lo, int hi);

  /// Standard normal draw scaled to N(mean, stddev^2).
  double Normal(double mean = 0.0, double stddev = 1.0);

  /// Bernoulli draw with success probability `p`.
  bool Bernoulli(double p);

  /// Draws a vector from N(mean, L L^T) where `chol_lower` is the
  /// lower-triangular Cholesky factor of the covariance, stored row-major
  /// with dimension `n` (row i occupies entries [i*n, i*n+i]).
  std::vector<double> MultivariateNormal(const std::vector<double>& mean,
                                         const std::vector<double>& chol_lower,
                                         int n);

  /// Fisher–Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (int i = static_cast<int>(items.size()) - 1; i > 0; --i) {
      int j = UniformInt(0, i);
      std::swap(items[i], items[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n) uniformly without replacement.
  /// Returned in random order. Precondition: 0 <= k <= n.
  std::vector<int> SampleWithoutReplacement(int n, int k);

  /// Derives a child seed; used to fan out independent streams per
  /// repetition/user while keeping the parent stream untouched by
  /// consumers of the children.
  uint64_t NextSeed();

  /// Access to the underlying engine for std distributions.
  std::mt19937_64& engine() { return engine_; }

  /// Serializes the complete generator state as portable decimal text (the
  /// standard's operator<< format for the Mersenne engine). Every
  /// distribution this class offers is a per-call local, so the engine IS
  /// the full state: Save/Load round-trips reproduce the stream exactly —
  /// the property durable checkpoints of the RANDOM/GREEDY schedulers
  /// depend on.
  std::string SaveState() const;

  /// Restores a state produced by `SaveState`. Fails with DataLoss when the
  /// text does not parse as an engine state.
  Status LoadState(const std::string& state);

 private:
  std::mt19937_64 engine_;
};

}  // namespace easeml

#endif  // EASEML_COMMON_RNG_H_
