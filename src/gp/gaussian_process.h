#ifndef EASEML_GP_GAUSSIAN_PROCESS_H_
#define EASEML_GP_GAUSSIAN_PROCESS_H_

#include <vector>

#include "common/status.h"
#include "gp/arm_belief.h"
#include "linalg/matrix.h"

namespace easeml::gp {

/// Gaussian-process belief over the rewards of K discrete arms (models).
///
/// Prior: x ~ N(prior_mean, prior_cov); observations y = x_a + eps with
/// eps ~ N(0, noise_variance). `Observe` conditions the joint belief on one
/// observation with an exact rank-1 update in O(K^2):
///
///   gain   = cov(:, a) / (cov(a, a) + sigma^2)
///   mean  += gain * (y - mean(a))
///   cov   -= gain * cov(a, :)
///
/// Sequentially applying this update is algebraically identical to the batch
/// posterior in Algorithm 1 (verified by property tests against
/// `BatchPosterior`), but supports the per-step access pattern of GP-UCB
/// without refactorizing the covariance.
class DiscreteArmGp : public ArmBelief {
 public:
  /// Creates the belief. `prior_cov` must be a symmetric K x K matrix and
  /// `noise_variance` strictly positive. `prior_mean` defaults to zero.
  static Result<DiscreteArmGp> Create(linalg::Matrix prior_cov,
                                      double noise_variance,
                                      std::vector<double> prior_mean = {});

  int num_arms() const override {
    return static_cast<int>(marginals_.mean.size());
  }
  int num_observations() const override { return num_observations_; }
  double noise_variance() const override { return noise_variance_; }

  /// Posterior marginals of arm k.
  double Mean(int k) const override { return marginals_.mean[k]; }
  double Variance(int k) const override { return marginals_.variance[k]; }

  /// Marginals of all arms: the posterior mean and the covariance diagonal
  /// (clamped at 0), kept up to date by `Observe` and `Reset`.
  const PosteriorSummary& AllMarginals() const override { return marginals_; }

  /// Full posterior mean / covariance access (used by tests and by the
  /// hybrid scheduler's diagnostics).
  const std::vector<double>& mean() const { return marginals_.mean; }
  const linalg::Matrix& covariance() const { return cov_; }

  /// Conditions the belief on one observation `y` of arm `arm`.
  Status Observe(int arm, double y) override;

  /// Resets to the prior belief.
  void Reset() override;

  /// Two K x K matrices plus the marginal vectors — the O(K^2) footprint the
  /// shared-prior representation exists to avoid.
  size_t ApproxMemoryBytes() const override;

  /// Batch posterior per Algorithm 1 (lines 6-7):
  ///   mu_t(k)    = S_t(k)^T (S_t + s^2 I)^{-1} y_{1:t}
  ///   sigma_t(k) = S(k,k) - S_t(k)^T (S_t + s^2 I)^{-1} S_t(k)
  /// Reference implementation used to cross-check the incremental updates.
  static Result<PosteriorSummary> BatchPosterior(
      const linalg::Matrix& prior_cov, double noise_variance,
      const std::vector<int>& arms, const std::vector<double>& ys);

  /// Log marginal likelihood of observations (arms, ys) under the prior:
  ///   -1/2 y^T (S_t + s^2 I)^{-1} y - 1/2 log|S_t + s^2 I| - t/2 log(2 pi).
  static Result<double> LogMarginalLikelihood(const linalg::Matrix& prior_cov,
                                              double noise_variance,
                                              const std::vector<int>& arms,
                                              const std::vector<double>& ys);

 private:
  DiscreteArmGp(linalg::Matrix prior_cov, double noise_variance,
                std::vector<double> prior_mean);

  linalg::Matrix prior_cov_;
  std::vector<double> prior_mean_;
  double noise_variance_;

  /// Copies cov_'s diagonal, clamped at 0 against floating-point
  /// cancellation, into marginals_.variance.
  void RefreshVariances();

  linalg::Matrix cov_;          // current posterior covariance
  PosteriorSummary marginals_;  // posterior mean and clamped cov_ diagonal
  int num_observations_ = 0;
};

}  // namespace easeml::gp

#endif  // EASEML_GP_GAUSSIAN_PROCESS_H_
