#ifndef EASEML_SCHEDULER_HYBRID_H_
#define EASEML_SCHEDULER_HYBRID_H_

#include <vector>

#include "scheduler/greedy.h"
#include "scheduler/round_robin.h"
#include "scheduler/scheduler_policy.h"

namespace easeml::scheduler {

/// HYBRID (Section 4.4), ease.ml's default multi-tenant scheduler.
///
/// Runs GREEDY until it detects the "freezing stage": the candidate set has
/// stayed identical and the global objective (sum of best observed
/// accuracies, the observable complement of total regret) has not improved
/// for `patience` consecutive outcomes. It then switches to ROUNDROBIN so
/// the remaining users keep making progress. The paper uses s = 10.
class HybridScheduler : public SchedulerPolicy {
 public:
  explicit HybridScheduler(int patience = 10,
                           Line8Rule rule = Line8Rule::kMaxUcbGap,
                           uint64_t seed = 0)
      : patience_(patience), greedy_(rule, seed) {}

  Result<int> PickUser(const std::vector<UserState>& users,
                       int round) override;
  /// Delegates to the active phase's indexed pick (GREEDY before the
  /// freeze, ROUNDROBIN after). The freeze detector stays in OnOutcome on
  /// the report path — it compares whole candidate SETS, which no O(log T)
  /// summary answers — so HYBRID's Next() is fully indexed either way.
  Result<int> PickUserIndexed(const std::vector<UserState>& users, int round,
                              const CandidateIndex& index) override;
  void OnOutcome(const std::vector<UserState>& users,
                 int served_user) override;
  bool RequiresInitialSweep() const override { return true; }
  std::string name() const override { return "hybrid"; }

  /// Freeze-detector state + both phases' nested policy state.
  void SaveDurable(std::string* out) const override;
  Status LoadDurable(std::string_view* in) override;

  /// True once the freeze detector has fired and scheduling is round-robin.
  bool switched() const { return switched_; }

 private:
  int patience_;
  GreedyScheduler greedy_;
  RoundRobinScheduler round_robin_;

  bool switched_ = false;
  int frozen_steps_ = 0;
  bool have_snapshot_ = false;
  std::vector<int> last_candidates_;
  double last_total_best_ = 0.0;
};

}  // namespace easeml::scheduler

#endif  // EASEML_SCHEDULER_HYBRID_H_
