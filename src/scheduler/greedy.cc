#include "scheduler/greedy.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/binary_io.h"
#include "common/exact_sum.h"
#include "scheduler/candidate_index.h"

namespace easeml::scheduler {

namespace {

constexpr int kNoUser = std::numeric_limits<int>::max();

/// Candidate-set membership test of Algorithm 2 line 7, evaluated EXACTLY:
/// "sigma~ >= average of the finite sigma~ over active users" becomes
/// "sigma~ * finite_count >= exact sum", with no floating-point rounding on
/// either side. Exactness is what makes the test independent of the order
/// in which the bounds were accumulated, so the scan and the index's
/// incrementally maintained aggregate agree bit-for-bit. Users without
/// observations (sigma~ = +inf) are always candidates; NaN / -inf bounds
/// never are (mirroring the IEEE semantics of the former `bound >= avg`
/// comparison).
bool BoundIsCandidate(double bound, const ExactDoubleSum& sum,
                      int finite_count) {
  if (!std::isfinite(bound)) return std::isinf(bound) && bound > 0.0;
  return sum.CompareScaled(bound, finite_count) >= 0;
}

}  // namespace

std::string Line8RuleName(Line8Rule rule) {
  switch (rule) {
    case Line8Rule::kMaxUcbGap:
      return "max-ucb-gap";
    case Line8Rule::kMaxEmpiricalBound:
      return "max-empirical-bound";
    case Line8Rule::kRandom:
      return "random-candidate";
  }
  return "unknown";
}

std::vector<int> ComputeCandidateSet(const std::vector<UserState>& users) {
  std::vector<int> active;
  for (size_t i = 0; i < users.size(); ++i) {
    if (users[i].Schedulable()) active.push_back(static_cast<int>(i));
  }
  if (active.empty()) return {};

  // Users with no observations have sigma~ = +inf; they are always
  // candidates and are excluded from the (exactly accumulated) average.
  ExactDoubleSum sum;
  int finite_count = 0;
  for (int i : active) {
    const double s = users[i].empirical_bound();
    if (std::isfinite(s)) {
      sum.Add(s);
      ++finite_count;
    }
  }
  if (finite_count == 0) return active;

  std::vector<int> candidates;
  for (int i : active) {
    if (BoundIsCandidate(users[i].empirical_bound(), sum, finite_count)) {
      candidates.push_back(i);
    }
  }
  // With the exact comparison the maximal finite bound always passes its
  // own average, so the set cannot come out empty; the fall-back to all
  // active users is kept as a defensive guard (any rule over the candidate
  // set preserves the bound).
  if (candidates.empty()) return active;
  return candidates;
}

Result<int> GreedyScheduler::PickUser(const std::vector<UserState>& users,
                                      int round) {
  (void)round;
  for (const auto& u : users) {
    if (u.retired()) continue;  // belief released; never scheduled again
    if (!u.policy().HasConfidenceBounds()) {
      return Status::FailedPrecondition(
          "Greedy: user " + std::to_string(u.user_id()) +
          " does not run a belief-backed policy (GP-UCB)");
    }
  }
  const std::vector<int> candidates = ComputeCandidateSet(users);
  if (candidates.empty()) {
    return Status::FailedPrecondition("Greedy: all users exhausted");
  }
  switch (rule_) {
    case Line8Rule::kRandom:
      return candidates[rng_.UniformInt(
          0, static_cast<int>(candidates.size()) - 1)];
    case Line8Rule::kMaxEmpiricalBound: {
      int best = candidates[0];
      double best_bound = -std::numeric_limits<double>::infinity();
      for (int i : candidates) {
        const double b = users[i].empirical_bound();
        if (b > best_bound) {
          best_bound = b;
          best = i;
        }
      }
      return best;
    }
    case Line8Rule::kMaxUcbGap: {
      int best = candidates[0];
      double best_gap = -std::numeric_limits<double>::infinity();
      for (int i : candidates) {
        const double gap = users[i].UcbGap();
        if (gap > best_gap) {
          best_gap = gap;
          best = i;
        }
      }
      return best;
    }
  }
  return Status::Internal("Greedy: unknown line-8 rule");
}

Result<int> GreedyScheduler::PickUserIndexed(const std::vector<UserState>& users,
                                             int round,
                                             const CandidateIndex& index) {
  if (rule_ == Line8Rule::kRandom) {
    // Documented fallback: the random rule draws the j-th CANDIDATE, and
    // candidate ranks depend on the threshold that moves with every report
    // — not indexable by a static tournament. The sequential scan consumes
    // the RNG stream identically, so conformance is preserved.
    return PickUser(users, round);
  }
  (void)round;
  // Phase A from the O(1) root aggregates. Count/min merges are exact and
  // the bound sum is exact, so this equals the scan's single-pass
  // accumulation bit-for-bit.
  const CandidateIndex::IndexNode& root = index.Root();
  if (root.min_bad_policy != kNoUser) {
    return Status::FailedPrecondition(
        "Greedy: user " + std::to_string(root.min_bad_policy) +
        " does not run a belief-backed policy (GP-UCB)");
  }
  if (root.cnt_schedulable == 0) {
    return Status::FailedPrecondition("Greedy: all users exhausted");
  }
  CandidateIndex::Candidacy candidacy;
  candidacy.sum = &index.BoundSum();
  candidacy.finite_count = index.FiniteCount();
  candidacy.all_candidates = candidacy.finite_count == 0;
  const bool use_gap = rule_ == Line8Rule::kMaxUcbGap;

  // Phase B quick path: the global argmax key over ALL schedulable users,
  // read off the root in O(1). When it is itself a candidate it is the
  // argmax over candidates too (same total order on a superset) — the
  // common case, since high sigma~ and high UCB gap are correlated. For
  // the max-empirical-bound rule this always resolves: the largest finite
  // bound passes its own average and +inf is always a candidate.
  CandidateIndex::Best best{use_gap ? root.max_gap : root.max_bound,
                            use_gap ? root.max_gap_id : root.max_bound_id};
  if (best.user != CandidateIndex::kNone &&
      !candidacy.Admits(index.Key(best.user).bound)) {
    // Slow path: pruned tournament descent (same total order as the
    // scan's single argmax loop).
    best = index.BestCandidate(candidacy, use_gap);
  }
  if (best.user != CandidateIndex::kNone) return best.user;

  // No candidate key above -inf (all NaN/-inf): the sequential loop keeps
  // its `candidates[0]` initializer — the lowest candidate id.
  const int min_candidate = index.MinCandidate(candidacy);
  if (min_candidate == CandidateIndex::kNone) {
    return Status::Internal("Greedy: empty candidate set in index");
  }
  return min_candidate;
}

void GreedyScheduler::SaveDurable(std::string* out) const {
  PutString(out, rng_.SaveState());
}

Status GreedyScheduler::LoadDurable(std::string_view* in) {
  std::string state;
  EASEML_RETURN_NOT_OK(GetString(in, &state));
  return rng_.LoadState(state);
}

}  // namespace easeml::scheduler
