#ifndef EASEML_SCHEDULER_RANDOM_SCHEDULER_H_
#define EASEML_SCHEDULER_RANDOM_SCHEDULER_H_

#include "common/rng.h"
#include "scheduler/scheduler_policy.h"

namespace easeml::scheduler {

/// RANDOM (Section 5.3): serves a uniformly random active user each round —
/// sampling with replacement, versus ROUNDROBIN's without.
class RandomScheduler : public SchedulerPolicy {
 public:
  explicit RandomScheduler(uint64_t seed) : rng_(seed) {}

  Result<int> PickUser(const std::vector<UserState>& users,
                       int round) override;
  /// Index-backed pick: schedulable total off the tournament root
  /// (identical single draw), then rank binary search for the j-th
  /// schedulable id.
  Result<int> PickUserIndexed(const std::vector<UserState>& users, int round,
                              const CandidateIndex& index) override;
  std::string name() const override { return "random"; }

  void SaveDurable(std::string* out) const override;
  Status LoadDurable(std::string_view* in) override;

 private:
  Rng rng_;
};

}  // namespace easeml::scheduler

#endif  // EASEML_SCHEDULER_RANDOM_SCHEDULER_H_
