#include "gp/gaussian_process.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "linalg/cholesky.h"

namespace easeml::gp {

namespace {
constexpr double kHalfLogTwoPi = 0.9189385332046727;  // log(2*pi)/2
}  // namespace

DiscreteArmGp::DiscreteArmGp(linalg::Matrix prior_cov, double noise_variance,
                             std::vector<double> prior_mean)
    : prior_cov_(std::move(prior_cov)),
      prior_mean_(std::move(prior_mean)),
      noise_variance_(noise_variance),
      cov_(prior_cov_) {
  marginals_.mean = prior_mean_;
  RefreshVariances();
}

Result<DiscreteArmGp> DiscreteArmGp::Create(linalg::Matrix prior_cov,
                                            double noise_variance,
                                            std::vector<double> prior_mean) {
  if (prior_cov.rows() != prior_cov.cols() || prior_cov.rows() == 0) {
    return Status::InvalidArgument("DiscreteArmGp: covariance must be square");
  }
  if (!prior_cov.IsSymmetric(1e-9)) {
    return Status::InvalidArgument("DiscreteArmGp: covariance not symmetric");
  }
  if (noise_variance <= 0.0) {
    return Status::InvalidArgument(
        "DiscreteArmGp: noise variance must be > 0");
  }
  const int k = prior_cov.rows();
  if (prior_mean.empty()) prior_mean.assign(k, 0.0);
  if (static_cast<int>(prior_mean.size()) != k) {
    return Status::InvalidArgument("DiscreteArmGp: prior mean size mismatch");
  }
  for (int i = 0; i < k; ++i) {
    if (prior_cov(i, i) <= 0.0) {
      return Status::InvalidArgument(
          "DiscreteArmGp: non-positive prior variance on arm " +
          std::to_string(i));
    }
  }
  return DiscreteArmGp(std::move(prior_cov), noise_variance,
                       std::move(prior_mean));
}

void DiscreteArmGp::RefreshVariances() {
  const int k = cov_.rows();
  marginals_.variance.resize(k);
  for (int i = 0; i < k; ++i) {
    marginals_.variance[i] = std::max(0.0, cov_(i, i));
  }
}

size_t DiscreteArmGp::ApproxMemoryBytes() const {
  return sizeof(double) *
         (prior_cov_.data().size() + cov_.data().size() + prior_mean_.size() +
          marginals_.mean.size() + marginals_.variance.size());
}

Status DiscreteArmGp::Observe(int arm, double y) {
  if (arm < 0 || arm >= num_arms()) {
    return Status::OutOfRange("Observe: arm index " + std::to_string(arm));
  }
  const int k = num_arms();
  const double denom = cov_(arm, arm) + noise_variance_;
  EASEML_DCHECK(denom > 0.0);
  std::vector<double>& mean = marginals_.mean;
  const double innovation = y - mean[arm];
  // Copy of the pivot row before the covariance is overwritten.
  std::vector<double> pivot_row = cov_.Row(arm);
  for (int i = 0; i < k; ++i) {
    const double gain = pivot_row[i] / denom;
    mean[i] += gain * innovation;
    for (int j = 0; j < k; ++j) {
      cov_(i, j) -= gain * pivot_row[j];
    }
  }
  // Re-symmetrize to suppress floating-point drift over long runs.
  for (int i = 0; i < k; ++i) {
    for (int j = i + 1; j < k; ++j) {
      const double v = 0.5 * (cov_(i, j) + cov_(j, i));
      cov_(i, j) = v;
      cov_(j, i) = v;
    }
  }
  RefreshVariances();
  ++num_observations_;
  return Status::OK();
}

void DiscreteArmGp::Reset() {
  cov_ = prior_cov_;
  marginals_.mean = prior_mean_;
  RefreshVariances();
  num_observations_ = 0;
}

Result<PosteriorSummary> DiscreteArmGp::BatchPosterior(
    const linalg::Matrix& prior_cov, double noise_variance,
    const std::vector<int>& arms, const std::vector<double>& ys) {
  if (arms.size() != ys.size()) {
    return Status::InvalidArgument("BatchPosterior: arms/ys length mismatch");
  }
  const int k = prior_cov.rows();
  const int t = static_cast<int>(arms.size());
  for (int a : arms) {
    if (a < 0 || a >= k) {
      return Status::OutOfRange("BatchPosterior: arm out of range");
    }
  }
  PosteriorSummary out;
  if (t == 0) {
    out.mean.assign(k, 0.0);
    out.variance.resize(k);
    for (int i = 0; i < k; ++i) out.variance[i] = prior_cov(i, i);
    return out;
  }
  // S_t + s^2 I over the observed arms (with multiplicity).
  linalg::Matrix st(t, t);
  for (int i = 0; i < t; ++i) {
    for (int j = 0; j < t; ++j) st(i, j) = prior_cov(arms[i], arms[j]);
  }
  st.AddToDiagonal(noise_variance);
  EASEML_ASSIGN_OR_RETURN(linalg::Cholesky chol,
                          linalg::Cholesky::Compute(st));
  const std::vector<double> alpha = chol.Solve(ys);
  out.mean.resize(k);
  out.variance.resize(k);
  std::vector<double> stk(t);
  for (int arm = 0; arm < k; ++arm) {
    for (int i = 0; i < t; ++i) stk[i] = prior_cov(arms[i], arm);
    double mu = 0.0;
    for (int i = 0; i < t; ++i) mu += stk[i] * alpha[i];
    const std::vector<double> v = chol.Solve(stk);
    double reduction = 0.0;
    for (int i = 0; i < t; ++i) reduction += stk[i] * v[i];
    out.mean[arm] = mu;
    out.variance[arm] = std::max(0.0, prior_cov(arm, arm) - reduction);
  }
  return out;
}

Result<double> DiscreteArmGp::LogMarginalLikelihood(
    const linalg::Matrix& prior_cov, double noise_variance,
    const std::vector<int>& arms, const std::vector<double>& ys) {
  if (arms.size() != ys.size()) {
    return Status::InvalidArgument(
        "LogMarginalLikelihood: arms/ys length mismatch");
  }
  const int t = static_cast<int>(arms.size());
  if (t == 0) return 0.0;
  linalg::Matrix st(t, t);
  for (int i = 0; i < t; ++i) {
    for (int j = 0; j < t; ++j) st(i, j) = prior_cov(arms[i], arms[j]);
  }
  st.AddToDiagonal(noise_variance);
  EASEML_ASSIGN_OR_RETURN(linalg::Cholesky chol,
                          linalg::Cholesky::Compute(st));
  const std::vector<double> alpha = chol.Solve(ys);
  double quad = 0.0;
  for (int i = 0; i < t; ++i) quad += ys[i] * alpha[i];
  return -0.5 * quad - 0.5 * chol.LogDet() - t * kHalfLogTwoPi;
}

}  // namespace easeml::gp
