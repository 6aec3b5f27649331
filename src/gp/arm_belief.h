#ifndef EASEML_GP_ARM_BELIEF_H_
#define EASEML_GP_ARM_BELIEF_H_

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/status.h"

namespace easeml::gp {

/// Posterior mean/variance over all arms, as produced by the batch reference
/// implementation (Algorithm 1, lines 6-7 of the paper).
struct PosteriorSummary {
  std::vector<double> mean;
  std::vector<double> variance;
};

/// Gaussian belief over the rewards of K discrete arms (candidate models).
///
/// This is the seam between the GP layer and the bandit layer: GP-UCB and
/// the scheduler diagnostics talk to an `ArmBelief` and never to a concrete
/// representation. Two implementations exist:
///
///  - `DiscreteArmGp`: dense K x K posterior covariance, O(K^2) per
///    observation — the reference representation.
///  - `SharedPriorGp`: all tenants share one immutable prior Gram matrix;
///    each tenant keeps only its observation history plus a growing t x t
///    Cholesky factor, O(t^2 + tK) per observation and O(K + tK) memory —
///    the multi-tenant representation (t observations, t << K in the
///    paper's regime).
///
/// Protocol: `Observe(arm, y)` conditions on one noisy observation;
/// marginals are read either per arm (`Mean`/`Variance`/`StdDev`) or for
/// all K arms at once (`AllMarginals`, the batch entry point policies
/// should prefer). `AllMarginals` returns a reference to marginals the
/// belief already holds, so a read copies nothing; the reference stays
/// valid until the next `Observe` or `Reset`.
class ArmBelief {
 public:
  virtual ~ArmBelief() = default;

  /// Total number of arms K.
  virtual int num_arms() const = 0;

  /// Number of observations conditioned on so far.
  virtual int num_observations() const = 0;

  /// Observation noise variance sigma^2.
  virtual double noise_variance() const = 0;

  /// Posterior marginals of arm k.
  virtual double Mean(int k) const = 0;
  virtual double Variance(int k) const = 0;
  double StdDev(int k) const { return std::sqrt(Variance(k)); }

  /// Posterior marginals of all K arms (computed in one batch when stale).
  /// Valid until the next `Observe` or `Reset`.
  virtual const PosteriorSummary& AllMarginals() const = 0;

  /// Conditions the belief on one observation `y` of arm `arm`.
  virtual Status Observe(int arm, double y) = 0;

  /// Resets to the prior belief.
  virtual void Reset() = 0;

  /// Bytes of belief state owned by this instance (shared immutable state
  /// excluded). Used by the tenant-scaling benchmarks.
  virtual size_t ApproxMemoryBytes() const = 0;
};

}  // namespace easeml::gp

#endif  // EASEML_GP_ARM_BELIEF_H_
