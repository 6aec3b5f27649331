/// Unit tests for the incremental candidate index: descent queries are
/// checked against brute force over the same keys — including ARTIFICIAL
/// candidacy thresholds that force the pruned-argmax slow path (global
/// argmax not a candidate), which real campaigns hit only occasionally —
/// plus incremental-refresh consistency and the Validate() invariant.
#include "scheduler/candidate_index.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "bandit/gp_ucb.h"
#include "bandit/ucb1.h"
#include "common/rng.h"
#include "linalg/matrix.h"
#include "scheduler/user_state.h"

namespace easeml::scheduler {
namespace {

constexpr int kNone = CandidateIndex::kNone;

UserState MakeGpUser(int id, int k) {
  auto belief = gp::DiscreteArmGp::Create(linalg::Matrix::Identity(k), 0.01);
  EXPECT_TRUE(belief.ok());
  auto policy = bandit::GpUcbPolicy::CreateUnique(std::move(belief).value(),
                                                  bandit::GpUcbOptions());
  EXPECT_TRUE(policy.ok());
  auto state = UserState::Create(id, std::move(policy).value(),
                                 std::vector<double>(k, 1.0));
  EXPECT_TRUE(state.ok());
  return std::move(state).value();
}

/// A population in assorted phases: fresh, partially served, in-flight,
/// exhausted, retired — every leaf shape the index must summarize.
std::vector<UserState> MakePopulation(int n, int k, uint64_t seed) {
  Rng rng(seed);
  std::vector<UserState> users;
  for (int i = 0; i < n; ++i) {
    users.push_back(MakeGpUser(i, k));
    UserState& u = users.back();
    const int steps = rng.UniformInt(0, k);
    for (int s = 0; s < steps && !u.Exhausted(); ++s) {
      auto arm = u.SelectArm();
      EXPECT_TRUE(arm.ok());
      EXPECT_TRUE(u.RecordOutcome(*arm, 0.1 + 0.8 * rng.Uniform()).ok());
    }
    if (!u.Exhausted() && rng.UniformInt(0, 4) == 0) {
      EXPECT_TRUE(u.SelectArm().ok());  // leave one selection in flight
    }
    if (!u.has_pending() && rng.UniformInt(0, 6) == 0) u.Retire();
  }
  return users;
}

/// An index over `users`, appended in id order (the engine's add path).
CandidateIndex BuildIndex(const std::vector<UserState>& users) {
  CandidateIndex index;
  for (const UserState& u : users) index.AppendTenant(u);
  return index;
}

/// Brute-force argmax over candidates with the scan's fold semantics.
CandidateIndex::Best BruteBest(const CandidateIndex& index, int n,
                               const CandidateIndex::Candidacy& candidacy,
                               bool use_gap) {
  CandidateIndex::Best best;
  for (int i = 0; i < n; ++i) {
    const CandidateIndex::TenantKey& key = index.Key(i);
    if (!key.schedulable || !candidacy.Admits(key.bound)) continue;
    const double value = use_gap ? key.gap : key.bound;
    // The scan's fold: -inf sentinel, strictly-greater wins, ascending ids
    // keep the lowest id among exact ties; NaN never wins.
    if (value > best.key) {
      best.key = value;
      best.user = i;
    }
  }
  return best;
}

int BruteMinCandidate(const CandidateIndex& index, int n,
                      const CandidateIndex::Candidacy& candidacy) {
  for (int i = 0; i < n; ++i) {
    const CandidateIndex::TenantKey& key = index.Key(i);
    if (key.schedulable && candidacy.Admits(key.bound)) return i;
  }
  return kNone;
}

TEST(CandidateIndexTest, DescentsMatchBruteForceUnderForcedThresholds) {
  constexpr int kUsers = 41;
  constexpr int kModels = 4;
  for (const uint64_t seed : {1235u, 1237u, 1238u}) {
    auto users = MakePopulation(kUsers, kModels, seed);
    const CandidateIndex index = BuildIndex(users);
    ASSERT_TRUE(index.Validate(users).ok());

    // Real aggregates, plus artificial ones that push the threshold
    // through the whole bound range, forcing every pruning branch:
    // thresholds between the minimum and far above the maximum (global
    // argmax not a candidate).
    std::vector<std::pair<ExactDoubleSum, int>> contexts;
    contexts.emplace_back(index.BoundSum(), index.FiniteCount());
    for (double target : {0.0, 0.5, 1.0, 2.0, 5.0, 50.0}) {
      ExactDoubleSum forced;  // mean == target, so candidacy = bound >= target
      forced.Add(target);
      contexts.emplace_back(forced, 1);
    }
    contexts.emplace_back(ExactDoubleSum(), 0);  // all-candidates mode

    for (const auto& [sum, finite] : contexts) {
      CandidateIndex::Candidacy candidacy;
      candidacy.sum = &sum;
      candidacy.finite_count = finite;
      candidacy.all_candidates = finite == 0;
      for (bool use_gap : {true, false}) {
        const CandidateIndex::Best got =
            index.BestCandidate(candidacy, use_gap);
        const CandidateIndex::Best expected =
            BruteBest(index, kUsers, candidacy, use_gap);
        EXPECT_EQ(got.user, expected.user)
            << "seed=" << seed << " finite=" << finite
            << " use_gap=" << use_gap;
        if (expected.user != kNone) {
          EXPECT_EQ(got.key, expected.key);
        }
      }
      EXPECT_EQ(index.MinCandidate(candidacy),
                BruteMinCandidate(index, kUsers, candidacy))
          << "seed=" << seed << " finite=" << finite;
    }

    // Rank and suffix queries against brute force, at every boundary.
    for (int floor_id = 0; floor_id <= kUsers; ++floor_id) {
      int expected = kNone;
      int expected_count = 0;
      for (int i = 0; i < kUsers; ++i) {
        if (!index.Key(i).schedulable) continue;
        if (i >= floor_id && expected == kNone) expected = i;
        if (i <= floor_id) ++expected_count;
      }
      EXPECT_EQ(index.MinSchedulableAtLeast(floor_id), expected)
          << "floor=" << floor_id;
      EXPECT_EQ(index.CountSchedulableLeq(floor_id), expected_count)
          << "cap=" << floor_id;
    }
  }
}

TEST(CandidateIndexTest, RefreshTracksEveryTenantEvent) {
  constexpr int kUsers = 17;
  constexpr int kModels = 3;
  auto users = MakePopulation(kUsers, kModels, 99);
  CandidateIndex index = BuildIndex(users);
  Rng rng(5);
  for (int step = 0; step < 300; ++step) {
    const int i = rng.UniformInt(0, kUsers - 1);
    UserState& u = users[i];
    if (u.retired()) {
      // retired tenants stay neutral; a refresh must keep them so
    } else if (u.has_pending()) {
      const int arm = [&] {
        for (int a = 0; a < kModels; ++a) {
          if (u.InFlight(a)) return a;
        }
        return -1;
      }();
      if (rng.UniformInt(0, 3) == 0) {
        ASSERT_TRUE(u.CancelSelection(arm).ok());
      } else {
        ASSERT_TRUE(u.RecordOutcome(arm, 0.1 + 0.8 * rng.Uniform()).ok());
      }
    } else if (u.Exhausted()) {
      u.Retire();
    } else if (rng.UniformInt(0, 5) == 0 && !u.has_pending()) {
      u.Retire();
    } else {
      ASSERT_TRUE(u.SelectArm().ok());
    }
    index.Refresh(users[i]);
    if (step % 50 == 49) {
      const Status valid = index.Validate(users);
      ASSERT_TRUE(valid.ok()) << "step " << step << ": " << valid.ToString();
    }
  }
  EXPECT_TRUE(index.Validate(users).ok());
}

TEST(CandidateIndexTest, ValidateCatchesStaleLeaf) {
  constexpr int kUsers = 6;
  auto users = MakePopulation(kUsers, 3, 7);
  CandidateIndex index = BuildIndex(users);
  ASSERT_TRUE(index.Validate(users).ok());
  // Mutate a tenant WITHOUT refreshing: the invalidation-contract breach
  // the invariant check exists to catch.
  int victim = -1;
  for (int i = 0; i < kUsers; ++i) {
    if (users[i].Schedulable()) {
      victim = i;
      break;
    }
  }
  ASSERT_NE(victim, -1);
  ASSERT_TRUE(users[victim].SelectArm().ok());
  const Status stale = index.Validate(users);
  EXPECT_FALSE(stale.ok());
  EXPECT_EQ(stale.code(), StatusCode::kInternal);
  index.Refresh(users[victim]);
  EXPECT_TRUE(index.Validate(users).ok());
}

TEST(CandidateIndexTest, BadPolicyTenantsSurfaceInRoots) {
  std::vector<UserState> users;
  users.push_back(MakeGpUser(0, 3));
  auto ucb1 = std::make_unique<bandit::Ucb1Policy>(3);
  auto state =
      UserState::Create(1, std::move(ucb1), std::vector<double>(3, 1.0));
  ASSERT_TRUE(state.ok());
  users.push_back(std::move(state).value());
  const CandidateIndex index = BuildIndex(users);
  EXPECT_EQ(index.Root().min_bad_policy, 1);
  EXPECT_EQ(index.Root().min_uninitialized, 0);
  EXPECT_EQ(index.Root().cnt_schedulable, 2);
}

}  // namespace
}  // namespace easeml::scheduler
