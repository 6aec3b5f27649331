#include "scheduler/user_state.h"

#include <algorithm>

namespace easeml::scheduler {

UserState::UserState(int user_id,
                     std::unique_ptr<bandit::BanditPolicy> policy,
                     std::vector<double> costs)
    : user_id_(user_id),
      num_models_(static_cast<int>(costs.size())),
      policy_(std::move(policy)),
      costs_(std::move(costs)),
      played_(costs_.size(), false),
      in_flight_(costs_.size(), false),
      in_flight_ucb_(costs_.size(), 0.0) {}

Result<UserState> UserState::Create(
    int user_id, std::unique_ptr<bandit::BanditPolicy> policy,
    std::vector<double> costs) {
  if (policy == nullptr) {
    return Status::InvalidArgument("UserState: null policy");
  }
  if (static_cast<int>(costs.size()) != policy->num_arms()) {
    return Status::InvalidArgument("UserState: one cost per arm required");
  }
  for (double c : costs) {
    if (c <= 0.0) {
      return Status::InvalidArgument("UserState: costs must be positive");
    }
  }
  return UserState(user_id, std::move(policy), std::move(costs));
}

Status UserState::set_max_in_flight(int cap) {
  if (cap < 1) {
    return Status::InvalidArgument("set_max_in_flight: cap must be >= 1");
  }
  max_in_flight_ = cap;
  return Status::OK();
}

UserState UserState::Tombstone(int user_id, int num_models,
                               int rounds_served, double best_reward,
                               double consumed_cost) {
  UserState state(user_id, nullptr, {});
  state.num_models_ = num_models;
  state.rounds_served_ = rounds_served;
  state.retired_ = true;
  state.best_reward_ = best_reward;
  state.consumed_cost_ = consumed_cost;
  return state;
}

void UserState::Retire() {
  // Move-assigning the tombstone frees the belief and every O(K) vector.
  *this = Tombstone(user_id_, num_models_, rounds_served_, best_reward_,
                    consumed_cost_);
}

std::vector<int> UserState::AvailableArms() const {
  if (retired_) return {};
  std::vector<int> arms;
  arms.reserve(played_.size() - num_played_);
  for (int a = 0; a < num_models(); ++a) {
    if (!played_[a] && !in_flight_[a]) arms.push_back(a);
  }
  return arms;
}

Result<int> UserState::SelectArm() {
  if (num_in_flight_ >= max_in_flight_) {
    return Status::FailedPrecondition(
        "SelectArm: outcome of previous selection not recorded "
        "(in-flight cap reached)");
  }
  if (Exhausted()) {
    return Status::FailedPrecondition("SelectArm: all models trained");
  }
  const std::vector<int> available = AvailableArms();
  if (available.empty()) {
    return Status::FailedPrecondition(
        "SelectArm: every remaining model is already in flight");
  }
  const int t = rounds_served_ + 1;
  EASEML_ASSIGN_OR_RETURN(int arm, policy_->SelectArm(available, t));
  in_flight_[arm] = true;
  ++num_in_flight_;
  // Capture B_t(a_t) for the sigma~ recurrence. Policies without a belief
  // report the trivially correct bound of 1 (max accuracy).
  in_flight_ucb_[arm] = policy_->Ucb(arm, t);
  return arm;
}

Status UserState::RecordOutcome(int arm, double reward) {
  if (num_in_flight_ == 0) {
    return Status::FailedPrecondition("RecordOutcome: no pending selection");
  }
  if (arm < 0 || arm >= num_models() || !in_flight_[arm]) {
    return Status::InvalidArgument(
        "RecordOutcome: arm does not match a pending selection");
  }
  EASEML_RETURN_NOT_OK(policy_->Update(arm, reward));
  played_[arm] = true;
  ++num_played_;
  ++rounds_served_;
  consumed_cost_ += costs_[arm];
  last_reward_ = reward;
  best_reward_ = std::max(best_reward_, reward);

  // Algorithm 2, line 6 — against the bound captured when THIS arm was
  // selected, so out-of-order completions charge the right B_t.
  const double bound = std::min(in_flight_ucb_[arm], min_empirical_ucb_);
  empirical_bound_ = bound - reward;
  min_empirical_ucb_ = std::min(min_empirical_ucb_, reward + empirical_bound_);

  in_flight_[arm] = false;
  in_flight_ucb_[arm] = 0.0;
  --num_in_flight_;
  return Status::OK();
}

Status UserState::CancelSelection(int arm) {
  if (num_in_flight_ == 0) {
    return Status::FailedPrecondition("CancelSelection: no pending selection");
  }
  if (arm < 0 || arm >= num_models() || !in_flight_[arm]) {
    return Status::InvalidArgument(
        "CancelSelection: arm does not match a pending selection");
  }
  in_flight_[arm] = false;
  in_flight_ucb_[arm] = 0.0;
  --num_in_flight_;
  return Status::OK();
}

DurableUserState UserState::CaptureDurable() const {
  DurableUserState d;
  d.user_id = user_id_;
  d.num_models = num_models_;
  d.rounds_served = rounds_served_;
  d.retired = retired_;
  d.best_reward = best_reward_;
  d.consumed_cost = consumed_cost_;
  if (retired_) return d;  // the tombstone: every other field is default
  d.costs = costs_;
  d.played = played_;
  d.num_played = num_played_;
  d.in_flight = in_flight_;
  d.in_flight_ucb = in_flight_ucb_;
  d.num_in_flight = num_in_flight_;
  d.max_in_flight = max_in_flight_;
  d.last_reward = last_reward_;
  d.empirical_bound = empirical_bound_;
  d.min_empirical_ucb = min_empirical_ucb_;
  return d;
}

Result<UserState> UserState::FromDurable(
    const DurableUserState& d, std::unique_ptr<bandit::BanditPolicy> policy) {
  if (d.retired != (policy == nullptr)) {
    return Status::InvalidArgument(
        "UserState::FromDurable: policy must be absent exactly for retired "
        "tenants");
  }
  if (d.num_models < 0) {
    return Status::DataLoss("UserState::FromDurable: negative arm count");
  }
  if (d.retired) {
    return Tombstone(d.user_id, d.num_models, d.rounds_served, d.best_reward,
                     d.consumed_cost);
  }
  const size_t k = d.costs.size();
  if (static_cast<size_t>(d.num_models) != k || d.played.size() != k ||
      d.in_flight.size() != k ||
      d.in_flight_ucb.size() != k) {
    return Status::DataLoss(
        "UserState::FromDurable: per-arm vectors disagree on arm count");
  }
  if (policy != nullptr && static_cast<size_t>(policy->num_arms()) != k) {
    return Status::DataLoss(
        "UserState::FromDurable: policy arm count does not match costs");
  }
  if (d.num_played < 0 || d.num_in_flight < 0 || d.max_in_flight < 1 ||
      d.num_played + d.num_in_flight > static_cast<int>(k)) {
    return Status::DataLoss("UserState::FromDurable: counters out of range");
  }
  UserState state(d.user_id, std::move(policy), d.costs);
  state.played_ = d.played;
  state.num_played_ = d.num_played;
  state.rounds_served_ = d.rounds_served;
  state.in_flight_ = d.in_flight;
  state.in_flight_ucb_ = d.in_flight_ucb;
  state.num_in_flight_ = d.num_in_flight;
  state.max_in_flight_ = d.max_in_flight;
  state.best_reward_ = d.best_reward;
  state.last_reward_ = d.last_reward;
  state.empirical_bound_ = d.empirical_bound;
  state.min_empirical_ucb_ = d.min_empirical_ucb;
  state.consumed_cost_ = d.consumed_cost;
  return state;
}

double UserState::MaxUcb() const {
  const std::vector<int> remaining = AvailableArms();
  if (remaining.empty()) return -std::numeric_limits<double>::infinity();
  return policy_->MaxUcb(remaining, rounds_served_ + 1);
}

}  // namespace easeml::scheduler
