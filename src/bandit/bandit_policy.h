#ifndef EASEML_BANDIT_BANDIT_POLICY_H_
#define EASEML_BANDIT_BANDIT_POLICY_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace easeml::bandit {

/// Model-picking policy of a single tenant.
///
/// Arms are candidate models. In ease.ml's model-selection setting each arm
/// is evaluated at most once per user (training a model twice on the same
/// data yields the same measurement), so `SelectArm` receives the set of
/// still-available arms and must choose among them.
///
/// Protocol per round: `SelectArm(available, t)` then `Update(arm, reward)`.
/// `t` is the user-local round counter, starting at 1.
class BanditPolicy {
 public:
  virtual ~BanditPolicy() = default;

  /// Total number of arms K.
  virtual int num_arms() const = 0;

  /// Chooses the next arm among `available` at round `t` (1-based).
  /// Fails with InvalidArgument if `available` is empty or contains an
  /// out-of-range index.
  virtual Result<int> SelectArm(const std::vector<int>& available, int t) = 0;

  /// Incorporates the observed reward of `arm`.
  virtual Status Update(int arm, double reward) = 0;

  /// Policy name for reports (e.g. "gp-ucb").
  virtual std::string name() const = 0;

  // --- Diagnostics surface -------------------------------------------------
  //
  // The multi-tenant schedulers (GREEDY's candidate set, HYBRID's greedy
  // phase, UserState's sigma~ recurrence) read per-arm confidence bounds
  // from the tenant's policy. Belief-backed policies (GP-UCB) override
  // these; heuristic baselines inherit the trivially correct defaults —
  // accuracies live in [0, 1], so 1 is always a valid upper bound.

  /// True when the policy maintains a posterior belief whose confidence
  /// bounds are informative (required by GREEDY/HYBRID scheduling).
  virtual bool HasConfidenceBounds() const { return false; }

  /// Posterior mean estimate of `arm`; 0 without a belief.
  virtual double Mean(int arm) const;

  /// Posterior standard deviation of `arm`; 0 without a belief.
  virtual double StdDev(int arm) const;

  /// Upper confidence bound B_t(arm) at round `t`; 1 without a belief.
  virtual double Ucb(int arm, int t) const;

  /// Largest B_t over `arms` (the caller passes the arms it considers
  /// live — e.g. neither played nor charged to an in-flight device);
  /// -infinity when `arms` is empty. Belief-backed policies override this
  /// to read bounds they computed in one batch instead of |arms| scalar
  /// queries.
  virtual double MaxUcb(const std::vector<int>& arms, int t) const;

 protected:
  /// Shared argument validation for SelectArm implementations.
  Status ValidateAvailable(const std::vector<int>& available) const;
};

}  // namespace easeml::bandit

#endif  // EASEML_BANDIT_BANDIT_POLICY_H_
