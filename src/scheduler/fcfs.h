#ifndef EASEML_SCHEDULER_FCFS_H_
#define EASEML_SCHEDULER_FCFS_H_

#include "scheduler/scheduler_policy.h"

namespace easeml::scheduler {

/// First-come-first-served: serves the lowest-index active user until all of
/// its models are trained, then moves to the next.
///
/// Included as the negative example of Section 4.1 ("This strategy incurs a
/// terrible cumulative regret of order T"); tests assert that it loses to
/// ROUNDROBIN.
class FcfsScheduler : public SchedulerPolicy {
 public:
  Result<int> PickUser(const std::vector<UserState>& users,
                       int round) override;
  /// O(1): the lowest schedulable id is a tournament-root field.
  Result<int> PickUserIndexed(const std::vector<UserState>& users, int round,
                              const CandidateIndex& index) override;
  std::string name() const override { return "fcfs"; }
};

}  // namespace easeml::scheduler

#endif  // EASEML_SCHEDULER_FCFS_H_
