#ifndef EASEML_SCHEDULER_GREEDY_H_
#define EASEML_SCHEDULER_GREEDY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "scheduler/scheduler_policy.h"

namespace easeml::scheduler {

/// Candidate set V_t of Algorithm 2 line 7: active users whose empirical
/// confidence bound sigma~ is at least the average over active users.
/// Users without observations yet (infinite sigma~) are always candidates.
/// Returns an empty vector when no user is active.
///
/// The threshold test is evaluated EXACTLY (`ExactDoubleSum`): membership
/// is "sigma~ · finite_count >= exact sum of finite bounds", which is
/// independent of accumulation order — the property that lets the candidate
/// index maintain the sum incrementally (add and subtract per tenant event)
/// and still reproduce this set bit-identically.
std::vector<int> ComputeCandidateSet(const std::vector<UserState>& users);

/// How line 8 of Algorithm 2 picks one user from the candidate set. The
/// paper proves the regret bound for ANY rule ("the regret bound remains
/// the same regardless of the rule") but observes that the choice matters
/// in practice (Section 4.3, "Strategy for Line 8"); these are the three
/// variants it discusses.
enum class Line8Rule {
  /// ease.ml's production rule: maximum gap between the largest upper
  /// confidence bound and the best accuracy so far.
  kMaxUcbGap,
  /// Maximum empirical variance sigma~.
  kMaxEmpiricalBound,
  /// Uniformly random candidate.
  kRandom,
};

std::string Line8RuleName(Line8Rule rule);

/// GREEDY user picking (Algorithm 2, Section 4.3).
///
/// Phase 1 computes the candidate set from the empirical confidence bounds;
/// phase 2 picks one candidate according to the configured line-8 rule.
/// Requires every user to run a GP-UCB model-picking policy and the
/// initialization sweep of Algorithm 2 lines 1-4.
class GreedyScheduler : public SchedulerPolicy {
 public:
  explicit GreedyScheduler(Line8Rule rule = Line8Rule::kMaxUcbGap,
                           uint64_t seed = 0)
      : rule_(rule), rng_(seed) {}

  Result<int> PickUser(const std::vector<UserState>& users,
                       int round) override;
  /// Index-backed pick: phase A from the index's exact root aggregates
  /// (O(1)), phase B from the root argmax when it is a candidate (the
  /// common case) or a pruned tournament descent otherwise — no O(T) scan,
  /// no per-candidate MaxUcb reads. The random line-8 rule falls back to
  /// the sequential scan (candidate RANKS are not indexable under a moving
  /// threshold); the default max-ucb-gap rule is fully indexed.
  Result<int> PickUserIndexed(const std::vector<UserState>& users, int round,
                              const CandidateIndex& index) override;
  bool RequiresInitialSweep() const override { return true; }
  std::string name() const override { return "greedy"; }

  /// The RNG stream (consumed only by the random line-8 rule, but saved
  /// unconditionally: state, not configuration, decides what is durable).
  void SaveDurable(std::string* out) const override;
  Status LoadDurable(std::string_view* in) override;

  Line8Rule rule() const { return rule_; }

 private:
  Line8Rule rule_;
  Rng rng_;
};

}  // namespace easeml::scheduler

#endif  // EASEML_SCHEDULER_GREEDY_H_
