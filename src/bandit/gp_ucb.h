#ifndef EASEML_BANDIT_GP_UCB_H_
#define EASEML_BANDIT_GP_UCB_H_

#include <memory>
#include <utility>
#include <vector>

#include "bandit/bandit_policy.h"
#include "gp/arm_belief.h"
#include "gp/gaussian_process.h"

namespace easeml::bandit {

/// Configuration of the (cost-aware) GP-UCB policy.
struct GpUcbOptions {
  /// Confidence parameter delta in (0, 1); enters beta_t = log(K t^2 / delta).
  double delta = 0.1;

  /// If true, the selection index is mu + sqrt(beta_t / c_k) * sigma
  /// (the paper's Section 3.2 twist); `costs` must then be set.
  bool cost_aware = false;

  /// Per-arm execution costs c_k > 0. Required when `cost_aware`.
  std::vector<double> costs;

  /// If true, uses the theoretical schedule of Theorem 1,
  /// beta_t = 2 c* log(pi^2 K t^2 / (6 delta)), instead of the practical
  /// Algorithm-1 schedule beta_t = log(K t^2 / delta).
  bool theoretical_beta = false;
};

/// GP-UCB arm selection (Algorithm 1) with the optional cost-aware twist.
///
/// Works against any `gp::ArmBelief` — the dense `DiscreteArmGp` or the
/// multi-tenant `SharedPriorGp`. At round t it picks
///   argmax_k B_t(k) = mu_{t-1}(k) + sqrt(beta_t [/ c_k]) sigma_{t-1}(k)
/// over the available arms. Exposes the ingredients (mean, stddev, beta,
/// UCB) that the multi-tenant GREEDY scheduler needs for its user-picking
/// phase via the `BanditPolicy` diagnostics surface.
///
/// B_t depends only on the belief's marginals and on t, so the policy
/// keeps one bound vector: the first read after an observation computes
/// B_t(k) for all K arms in one pass over the batched posterior summary,
/// and every later `SelectArm`, `Ucb` and `MaxUcb` at that t only reads and
/// compares. `Update` drops the vector, and a read at another t refills it.
/// The const reads fill the vector, so like the belief's own marginal
/// caches a policy must not be read from two threads at once.
class GpUcbPolicy : public BanditPolicy {
 public:
  /// Validates options against the belief dimension. `belief` must be
  /// non-null.
  static Result<GpUcbPolicy> Create(std::unique_ptr<gp::ArmBelief> belief,
                                    GpUcbOptions options);

  /// Convenience for the dense representation (wraps it on the heap).
  static Result<GpUcbPolicy> Create(gp::DiscreteArmGp belief,
                                    GpUcbOptions options);

  /// Convenience: heap-allocated variants for polymorphic containers.
  static Result<std::unique_ptr<GpUcbPolicy>> CreateUnique(
      std::unique_ptr<gp::ArmBelief> belief, GpUcbOptions options);
  static Result<std::unique_ptr<GpUcbPolicy>> CreateUnique(
      gp::DiscreteArmGp belief, GpUcbOptions options);

  int num_arms() const override { return belief_->num_arms(); }
  Result<int> SelectArm(const std::vector<int>& available, int t) override;
  Status Update(int arm, double reward) override;
  std::string name() const override;

  /// beta_t per the configured schedule. Precondition: t >= 1.
  double Beta(int t) const;

  /// Diagnostics surface (scheduler-facing).
  bool HasConfidenceBounds() const override { return true; }
  double Mean(int arm) const override { return belief_->Mean(arm); }
  double StdDev(int arm) const override { return belief_->StdDev(arm); }
  /// Upper confidence bound B_t(k) = mu(k) + sqrt(beta_t [/ c_k]) sigma(k).
  double Ucb(int arm, int t) const override;
  /// Max-UCB over `arms` from the bound vector (what the in-flight-aware
  /// scheduler diagnostics consume each round).
  double MaxUcb(const std::vector<int>& arms, int t) const override;

  double ArmCost(int arm) const;

  const gp::ArmBelief& belief() const { return *belief_; }
  const GpUcbOptions& options() const { return options_; }

 private:
  GpUcbPolicy(std::unique_ptr<gp::ArmBelief> belief, GpUcbOptions options);

  /// The one place the selection index is computed: B(arm) =
  /// mean + sqrt(beta [/ c_arm]) * sqrt(max(0, variance)).
  double UcbFromMarginals(int arm, double beta, double mean,
                          double variance) const;

  /// B_t for all K arms, refilled on the first read since the last `Update`
  /// and on any read at a t other than the one it holds.
  const double* CachedBounds(int t) const;

  /// The first of `arms` with the largest B_t and that bound; (arms[0],
  /// -inf) when no bound exceeds -inf. Precondition: `arms` non-empty.
  std::pair<int, double> FirstMaxUcb(const std::vector<int>& arms,
                                     int t) const;

  std::unique_ptr<gp::ArmBelief> belief_;
  GpUcbOptions options_;
  double max_cost_ = 1.0;  // c* for the theoretical beta schedule

  // The bound vector: bounds_[k] = B_{bounds_t_}(k); bounds_t_ = 0 (no t
  // is below 1) means empty.
  mutable std::vector<double> bounds_;
  mutable int bounds_t_ = 0;
};

}  // namespace easeml::bandit

#endif  // EASEML_BANDIT_GP_UCB_H_
