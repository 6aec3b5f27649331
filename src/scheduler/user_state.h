#ifndef EASEML_SCHEDULER_USER_STATE_H_
#define EASEML_SCHEDULER_USER_STATE_H_

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bandit/bandit_policy.h"
#include "common/status.h"

namespace easeml::scheduler {

/// Bit-exact serializable copy of a `UserState` MINUS the policy (the
/// belief is checkpointed separately: its observation history replays
/// bit-identically, so only history + verification factor are stored).
/// All doubles round-trip through their IEEE-754 bit patterns
/// (common/binary_io.h), so Capture/FromDurable is an exact state copy —
/// the invariant the WAL recovery battery compares engines with.
///
/// A retired tenant is a TOMBSTONE: only `user_id`, `num_models`,
/// `rounds_served`, `retired`, `best_reward` and `consumed_cost` carry
/// state; every other field keeps its default (the per-arm vectors are
/// empty). That is all a retired `UserState` still holds.
struct DurableUserState {
  int user_id = 0;
  int num_models = 0;  // == costs.size() for a live tenant
  std::vector<double> costs;
  std::vector<bool> played;
  int num_played = 0;
  int rounds_served = 0;
  std::vector<bool> in_flight;
  std::vector<double> in_flight_ucb;
  int num_in_flight = 0;
  int max_in_flight = 1;
  bool retired = false;
  double best_reward = 0.0;
  double last_reward = 0.0;
  double empirical_bound = 0.0;
  double min_empirical_ucb = 0.0;
  double consumed_cost = 0.0;
};

/// Per-tenant runtime state of the multi-tenant selection loop.
///
/// Wraps the tenant's model-picking policy (usually GP-UCB) and keeps the
/// bookkeeping the GREEDY user-picking phase needs (Algorithm 2, line 6):
/// after the user's m-th observation y_m of arm a_m,
///
///   sigma~_m = min{ B_m(a_m), min_{m' < m} (y_{m'} + sigma~_{m'}) } - y_m
///
/// where B_m(a_m) is the upper confidence bound of the chosen arm at
/// selection time. `empirical_bound()` exposes the latest sigma~.
///
/// Protocol per service round: `SelectArm()` then `RecordOutcome()`. Each
/// arm (model) is played at most once — training the same model on the same
/// data again yields no new information in ease.ml's setting.
///
/// Multi-device extension: up to `max_in_flight()` selections may be
/// outstanding at once (one per device serving this tenant). Arms that are
/// selected but not yet observed are *charged but unobserved*: they are
/// tracked in a per-arm in-flight mask, excluded from `AvailableArms()` and
/// from the `MaxUcb()` diagnostics every scheduler policy consults, and
/// each remembers the B_t captured at its own selection time so the sigma~
/// recurrence stays exact under out-of-order completions. The default cap
/// of 1 reproduces the paper's sequential protocol bit-identically.
class UserState {
 public:
  /// `costs` must have one positive entry per arm of `policy`.
  static Result<UserState> Create(
      int user_id, std::unique_ptr<bandit::BanditPolicy> policy,
      std::vector<double> costs);

  int user_id() const { return user_id_; }
  int num_models() const { return num_models_; }

  /// Number of completed (select, observe) rounds t_i.
  int rounds_served() const { return rounds_served_; }

  /// True when every arm has been played (in-flight arms do not count:
  /// their outcome has not been recorded yet). Retired users are exhausted
  /// by definition — nothing of theirs may be scheduled again.
  bool Exhausted() const { return retired_ || num_played_ == num_models(); }

  /// True once `Retire()` ran: the tenant left the system. Observed
  /// history (best reward, rounds served, consumed cost) stays readable;
  /// the policy belief is released and `policy()` must not be called.
  bool retired() const { return retired_; }

  /// Removes the user from scheduling permanently and shrinks it to an
  /// O(1) tombstone: user id, `num_models()`, `rounds_served()`,
  /// `best_reward()` and `consumed_cost()` stay readable. The policy belief
  /// (the O(t²) posterior) and the O(K) per-arm state (costs, played and
  /// in-flight masks, captured bounds) are freed, and the sigma~ recurrence,
  /// last reward and concurrency cap return to their fresh-tenant values —
  /// exactly the state `FromDurable` rebuilds from a tombstone, so a long-
  /// lived fleet's memory and checkpoints grow by O(1) per departed tenant.
  /// Precondition: no selection is in flight (`!has_pending()`); the
  /// selector enforces this with FailedPrecondition before routing here.
  void Retire();

  /// True while at least one selection is outstanding (SelectArm called,
  /// outcome not yet recorded) — e.g. a training job in flight on some
  /// device.
  bool has_pending() const { return num_in_flight_ > 0; }

  /// Number of outstanding selections.
  int in_flight_count() const { return num_in_flight_; }

  /// True while `arm` is charged but unobserved; false for every arm of a
  /// retired tenant (nothing of a tombstone is in flight).
  bool InFlight(int arm) const { return !retired_ && in_flight_[arm]; }

  /// Maximum number of concurrently outstanding selections (devices this
  /// tenant may occupy at once). Default 1 = the paper's sequential
  /// protocol.
  int max_in_flight() const { return max_in_flight_; }

  /// Raises/lowers the concurrency cap; must stay >= 1. Lowering below the
  /// current in-flight count is allowed — it only blocks new selections.
  Status set_max_in_flight(int cap);

  /// True iff a scheduler may serve this user now: not retired, an
  /// un-played, un-charged arm remains and a device slot is free under the
  /// concurrency cap. Single-device loops never observe a pending user at
  /// scheduling time, so this reduces to !Exhausted() there.
  bool Schedulable() const {
    return !retired_ && num_in_flight_ < max_in_flight_ &&
           num_played_ + num_in_flight_ < num_models();
  }

  /// True while the initialization sweep of Algorithm 2 lines 1-4 must
  /// still serve this user before regular scheduling: no observation yet,
  /// nothing in flight (the first run may already be charged), not
  /// exhausted. Shared by the selector's sweep scan and the candidate
  /// index's per-tenant key so the two paths can never diverge.
  bool NeedsInitialObservation() const {
    return !has_observations() && !has_pending() && !Exhausted();
  }

  /// Arms neither played nor in flight, ascending.
  std::vector<int> AvailableArms() const;

  bool has_observations() const { return rounds_served_ > 0; }

  /// Best observed reward so far; 0 before any observation (a tenant with no
  /// trained model serves nothing, per the paper's regret definition).
  double best_reward() const { return best_reward_; }

  double last_reward() const { return last_reward_; }

  /// Latest empirical confidence bound sigma~ (Algorithm 2 line 6);
  /// +infinity before the first observation.
  double empirical_bound() const { return empirical_bound_; }

  /// Sum of costs of played arms.
  double consumed_cost() const { return consumed_cost_; }

  /// Chooses the next model via the tenant's policy at local round
  /// t = rounds_served() + 1, marking it in flight. Fails if exhausted, if
  /// the concurrency cap is reached, or if every remaining arm is already
  /// in flight.
  Result<int> SelectArm();

  /// Records the observed reward for an arm previously returned by
  /// SelectArm, updating the policy belief and the sigma~ recurrence.
  /// Completions may arrive in any order; each consumes the B_t captured
  /// when its arm was selected.
  Status RecordOutcome(int arm, double reward);

  /// Un-charges an in-flight arm without an observation (device failure,
  /// job abort): the arm becomes selectable again and no belief or sigma~
  /// state is touched. Fails like RecordOutcome when `arm` is not in
  /// flight.
  Status CancelSelection(int arm);

  /// Largest upper confidence bound over the remaining arms (neither played
  /// nor in flight) at the current local round, read from the policy's
  /// batched diagnostics surface; -infinity when none remain.
  double MaxUcb() const;

  /// ease.ml's line-8 rule ingredient: gap between the largest UCB and the
  /// best accuracy observed so far.
  double UcbGap() const { return MaxUcb() - best_reward_; }

  /// The tenant's model-picking policy. Precondition: `!retired()` —
  /// retiring releases the belief.
  const bandit::BanditPolicy& policy() const { return *policy_; }

  /// Precondition: `!retired()` — retiring frees the per-arm costs.
  double ArmCost(int arm) const { return costs_[arm]; }

  /// Copies every field (except the policy) into its durable twin.
  DurableUserState CaptureDurable() const;

  /// Rebuilds a UserState from a durable copy plus a freshly reconstructed
  /// policy. `policy` must be null iff `d.retired` (retiring releases the
  /// belief); sizes must be mutually consistent. Unlike `Create` this
  /// restores the full mid-campaign state verbatim — played masks,
  /// in-flight charges with their captured B_t, the sigma~ recurrence.
  /// A retired `d` is read as its tombstone fields only.
  static Result<UserState> FromDurable(const DurableUserState& d,
                                       std::unique_ptr<bandit::BanditPolicy> policy);

 private:
  UserState(int user_id, std::unique_ptr<bandit::BanditPolicy> policy,
            std::vector<double> costs);

  /// The retired state `Retire()` leaves and `FromDurable` restores.
  static UserState Tombstone(int user_id, int num_models, int rounds_served,
                             double best_reward, double consumed_cost);

  int user_id_;
  int num_models_;
  std::unique_ptr<bandit::BanditPolicy> policy_;
  std::vector<double> costs_;
  std::vector<bool> played_;
  int num_played_ = 0;
  int rounds_served_ = 0;

  // Charged-but-unobserved bookkeeping. in_flight_ucb_[a] holds B_t(a)
  // captured when arm a was selected, consumed by the sigma~ recurrence
  // when its outcome arrives (in any order).
  std::vector<bool> in_flight_;
  std::vector<double> in_flight_ucb_;
  int num_in_flight_ = 0;
  int max_in_flight_ = 1;
  bool retired_ = false;

  double best_reward_ = 0.0;
  double last_reward_ = 0.0;
  double empirical_bound_ = std::numeric_limits<double>::infinity();
  // min_{m' <= m} (y_{m'} + sigma~_{m'}) from the recurrence.
  double min_empirical_ucb_ = std::numeric_limits<double>::infinity();
  double consumed_cost_ = 0.0;
};

}  // namespace easeml::scheduler

#endif  // EASEML_SCHEDULER_USER_STATE_H_
