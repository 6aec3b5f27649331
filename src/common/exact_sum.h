#ifndef EASEML_COMMON_EXACT_SUM_H_
#define EASEML_COMMON_EXACT_SUM_H_

#include <array>
#include <cstdint>

namespace easeml {

/// Exact, summation-order-invariant accumulation of IEEE-754 doubles.
///
/// Floating-point addition is not associative, so a sum maintained
/// incrementally (bounds added and later subtracted as tenants change)
/// generally differs (in the last ulps) from the same sum computed fresh —
/// enough to flip threshold comparisons such as GREEDY's candidate-set test and break the candidate index's
/// bit-identical replay of the scan. `ExactDoubleSum` removes the problem
/// at the root: every finite double is an integer multiple of 2^-1074, so
/// the sum is held as a wide fixed-point integer (64-bit limbs of 32 value
/// bits each, covering the full double exponent range). Integer addition
/// is exact and commutative, hence `Add`/`Merge` yield the same
/// accumulator for ANY ordering or partition of the inputs — the invariant
/// the candidate index's incremental aggregate relies on.
///
/// Thresholds are evaluated without ever rounding: `CompareScaled(x, n)`
/// returns the exact sign of (x * n - sum), i.e. "is x at least the mean of
/// the n accumulated values" when called with the accumulated count.
///
/// Capacity: at most 2^31 - 1 additions (enforced by EASEML_CHECK via the
/// scale bound) between which no overflow is possible; limb carries are
/// normalized lazily. This covers any tenant count the selector can hold.
class ExactDoubleSum {
 public:
  /// Adds `x` exactly. Precondition: `x` is finite.
  void Add(double x) { AddProduct(x, 1); }

  /// Adds the exact product x * scale (no intermediate rounding).
  /// Preconditions: `x` finite, |scale| <= 2^31.
  void AddProduct(double x, int64_t scale);

  /// Folds `other` into this accumulator. Exact; equivalent to replaying
  /// every `Add` that built `other`, in any order.
  void Merge(const ExactDoubleSum& other);

  /// Exact sign of (x * n - sum): -1, 0 or +1. Preconditions as AddProduct.
  /// `CompareScaled(b, count) >= 0` answers "b >= sum/count" with no
  /// floating-point rounding anywhere.
  int CompareScaled(double x, int64_t n) const;

  /// Exact sign of the accumulated sum.
  int Sign() const;

  /// Exact sign of (this - other): -1, 0 or +1. Lets an invariant check
  /// compare an incrementally maintained accumulator against a freshly
  /// rebuilt one without exposing the limb representation (two accumulators
  /// holding the same value may differ in normalization state).
  int Compare(const ExactDoubleSum& other) const;

  /// Nearest-double approximation of the sum (faithful within 1 ulp).
  /// Diagnostics/reporting only — comparisons must use CompareScaled.
  double Value() const;

 private:
  // value = sum_L limb_[L] * 2^(32*L - kBias). kBias places the least
  // subnormal bit (2^-1074) at a positive offset; kLimbs covers products
  // |M * scale| < 2^84 placed at the top of the double range.
  static constexpr int kBias = 1152;
  static constexpr int kLimbs = 70;

  /// Carry-propagates so limbs 0..kLimbs-2 lie in [0, 2^32) and the top
  /// limb absorbs the sign. Value-preserving.
  void Normalize();

  /// Sign(), but normalizing this accumulator in place (no copy) — the
  /// hot-path variant CompareScaled uses on its scratch accumulator.
  int SignInPlace();

  std::array<int64_t, kLimbs> limb_{};
  int unnormalized_adds_ = 0;
};

}  // namespace easeml

#endif  // EASEML_COMMON_EXACT_SUM_H_
