// HYBRID's freeze detector on the index (`OnOutcomeIndexed`: one double
// compare per tenant against the cached candidate cut) against its scan
// oracle (`OnOutcome` over `ComputeCandidateSet`), compared after EVERY
// Report. The differential harness compares engine bytes only at
// checkpoints and at the end, where a detector that misjudged one tenant
// a few outcomes earlier may already agree again; this suite compares the
// scheduler's durable blob outcome by outcome, on a fleet built so that
// bounds tie exactly at the cut.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/exact_sum.h"
#include "core/multi_tenant_selector.h"
#include "scheduler/hybrid.h"
#include "wal/checkpoint.h"
#include "wal/fault_injection.h"
#include "wal/recovery.h"
#include "wal/wal_test_util.h"

namespace easeml::differential {
namespace {

using core::MultiTenantSelector;
using core::SchedulerKind;
using core::SelectorOptions;

constexpr int kTenants = 9;
constexpr int kModels = 6;
constexpr char kDir[] = "/d";

/// The accuracy of a model, whichever tenant trains it: with one shared
/// prior and one cost vector, tenants that have trained the same models
/// hold bit-identical beliefs, so their bounds tie.
double Accuracy(int model) {
  static constexpr double kTable[kModels] = {0.62, 0.71, 0.55,
                                             0.80, 0.67, 0.74};
  return kTable[model];
}

SelectorOptions Options(bool index) {
  SelectorOptions options;
  options.scheduler = SchedulerKind::kHybrid;
  options.use_candidate_index = index;
  return options;
}

Result<core::DurableSelectorState> Capture(const MultiTenantSelector& s) {
  EASEML_ASSIGN_OR_RETURN(core::DurableSelectorState state,
                          s.CaptureDurableState());
  state.wal_epoch = 0;  // the oracle has no log
  state.wal_offset = 0;
  return state;
}

std::string Encode(const core::DurableSelectorState& state) {
  std::string bytes;
  wal::EncodeDurableSelectorState(&bytes, state);
  return bytes;
}

bool Switched(const std::string& hybrid_blob) {
  scheduler::HybridScheduler hybrid;
  std::string_view in = hybrid_blob;
  EXPECT_TRUE(hybrid.LoadDurable(&in).ok());
  return hybrid.switched();
}

/// Whether, after a Report (nothing in flight), some schedulable tenant's
/// finite bound sits exactly at the line-7 threshold while another
/// candidate lies strictly above it — a tie a detector one ulp off the cut
/// would misjudge.
bool TieAtTheCut(const core::DurableSelectorState& state) {
  std::vector<double> bounds;
  bool unbounded = false;  // an unobserved tenant: an infinite bound
  for (const core::DurableTenant& t : state.tenants) {
    const scheduler::DurableUserState& u = t.user;
    if (u.retired || u.num_played >= static_cast<int>(u.costs.size())) {
      continue;
    }
    if (std::isfinite(u.empirical_bound)) {
      bounds.push_back(u.empirical_bound);
    } else if (u.empirical_bound > 0.0) {
      unbounded = true;
    }
  }
  ExactDoubleSum sum;
  for (double b : bounds) sum.Add(b);
  const int n = static_cast<int>(bounds.size());
  bool tie = false;
  bool above = unbounded;
  for (double b : bounds) {
    const int side = sum.CompareScaled(b, n);
    tie = tie || side == 0;
    above = above || side > 0;
  }
  return tie && above;
}

TEST(HybridDetectorParity, TiesAtTheCutKeepSchedulerStateBitIdentical) {
  const auto prior = wal::MakeTestPrior(kModels, 0.5);
  const std::vector<double> costs = {1.0, 1.5, 1.0, 2.0, 1.25, 1.0};
  wal::FaultInjectingFileSystem fs;

  auto reference = MultiTenantSelector::Create(Options(false));
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  auto opened = wal::OpenOrRecover(&fs, kDir, Options(true));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  wal::RecoveredSelector subject = std::move(opened).value();
  for (int t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(reference->AddTenant(prior, costs).ok());
    ASSERT_TRUE(subject.selector->AddTenant(prior, costs).ok());
  }

  // Checkpoint once the initialization sweep is over, then restart from
  // it a few outcomes later; both happen while HYBRID is still greedy.
  constexpr int kCheckpointAt = kTenants + 4;
  constexpr int kRecoverAt = kCheckpointAt + 3;
  int reports = 0;
  int ties = 0;
  while (!reference->Exhausted()) {
    auto expected = reference->Next();
    auto got = subject.selector->Next();
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->tenant, expected->tenant) << "report " << reports;
    ASSERT_EQ(got->model, expected->model) << "report " << reports;
    const double accuracy = Accuracy(expected->model);
    ASSERT_TRUE(reference->Report(*expected, accuracy).ok());
    ASSERT_TRUE(subject.selector->Report(*got, accuracy).ok());
    ++reports;

    auto want = Capture(*reference);
    auto have = Capture(*subject.selector);
    ASSERT_TRUE(want.ok() && have.ok());
    // Plain boolean asserts: the blobs carry an RNG state and print long.
    ASSERT_TRUE(have->scheduler_state == want->scheduler_state)
        << "HYBRID detector state diverged after report " << reports;
    ties += TieAtTheCut(*want);

    if (reports == kCheckpointAt || reports == kRecoverAt) {
      ASSERT_FALSE(Switched(want->scheduler_state))
          << "HYBRID froze before report " << reports;
    }
    if (reports == kCheckpointAt) {
      ASSERT_TRUE(wal::CutCheckpoint(&fs, kDir, subject.wal.get(),
                                     *subject.selector, nullptr)
                      .ok());
    }
    if (reports == kRecoverAt) {
      subject = wal::RecoveredSelector{};  // close the engine and its log
      auto recovered = wal::OpenOrRecover(&fs, kDir, Options(true));
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      subject = std::move(recovered).value();
      ASSERT_TRUE(subject.stats.used_checkpoint);
      auto restored = Capture(*subject.selector);
      ASSERT_TRUE(restored.ok());
      ASSERT_TRUE(Encode(*restored) == Encode(*want))
          << "engine state diverged across the restart";
      ASSERT_TRUE(subject.selector->ValidateIndex().ok());
    }
  }
  EXPECT_TRUE(subject.selector->Exhausted());
  EXPECT_EQ(reports, kTenants * kModels);
  auto want = Capture(*reference);
  auto have = Capture(*subject.selector);
  ASSERT_TRUE(want.ok() && have.ok());
  EXPECT_TRUE(Encode(*have) == Encode(*want)) << "final engine state";
  EXPECT_TRUE(subject.selector->ValidateIndex().ok());
  // The shape must exercise what it was built for: outcomes after which a
  // tenant ties the threshold exactly while others clear it.
  EXPECT_GE(ties, kTenants - 1);
}

}  // namespace
}  // namespace easeml::differential
