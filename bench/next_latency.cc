/// Next() critical-path latency: O(T) scan vs incremental candidate index.
///
/// The serving hot path of the selector is the per-`Next()` user-picking
/// cost. The scan engines rescan all T tenants (GREEDY additionally reads
/// the batched MaxUcb diagnostics of every candidate) even though a Report
/// changes one tenant's summary; the candidate index replays one O(log T)
/// leaf path per event and answers the pick from the tournament root. This
/// bench sweeps T with BOTH engines on identical campaigns (the traces are
/// bit-identical — pinned by the differential harness) and reports
/// the per-call cost of `Next()` and `Report()` separately, because the
/// index deliberately moves work to the report path (the leaf refresh).
///
/// Timing: CLOCK_THREAD_CPUTIME_ID around each call on the driving thread,
/// which runs the whole engine — thread CPU clocks are not inflated by host
/// oversubscription, unlike wall time on a one-core host.
///
/// Machine-readable rows for scripts/bench.sh:
///   NEXT_LATENCY,<tenants>,<engine>,<next_us_mean>,<report_us_mean>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/multi_tenant_selector.h"
#include "gp/shared_prior_gp.h"
#include "linalg/matrix.h"

namespace {

using easeml::core::MultiTenantSelector;
using easeml::core::SchedulerKind;
using easeml::core::SelectorOptions;

constexpr int kModels = 6;
constexpr int kMeasureSteps = 200;

using easeml::ThreadCpuSeconds;

/// Deterministic ground-truth accuracy in (0, 1) via an integer hash.
double Accuracy(int tenant, int model) {
  const uint64_t x = easeml::SplitMix64(static_cast<uint64_t>(tenant) *
                                            1000003u +
                                        static_cast<uint64_t>(model));
  return 0.05 + 0.9 * (static_cast<double>(x >> 11) * 0x1.0p-53);
}

struct Cell {
  double next_us = 0.0;    // mean thread-CPU microseconds per Next()
  double report_us = 0.0;  // mean thread-CPU microseconds per Report()
};

Cell RunCampaign(int tenants, bool use_index) {
  SelectorOptions options;
  options.scheduler = SchedulerKind::kGreedy;
  options.cost_aware = true;
  options.num_devices = 1;
  options.use_candidate_index = use_index;
  auto created = MultiTenantSelector::Create(options);
  EASEML_CHECK(created.ok()) << created.status().ToString();
  MultiTenantSelector* selector = &created.value();

  auto prior = easeml::gp::MakeSharedGpPrior(
      easeml::linalg::Matrix::Identity(kModels), 1e-2);
  EASEML_CHECK(prior.ok()) << prior.status().ToString();
  for (int t = 0; t < tenants; ++t) {
    std::vector<double> costs;
    for (int m = 0; m < kModels; ++m) {
      costs.push_back(1.0 + 0.25 * ((t + m) % kModels));
    }
    EASEML_CHECK(selector->AddTenant(*prior, costs).ok());
  }

  // Initialization sweep (Algorithm 2 lines 1-4): serve every tenant once
  // so measurement happens in the regular GREEDY regime.
  for (int t = 0; t < tenants; ++t) {
    auto a = selector->Next();
    EASEML_CHECK(a.ok()) << a.status().ToString();
    EASEML_CHECK(selector->Report(*a, Accuracy(a->tenant, a->model)).ok());
  }

  // Steady state: K-1 arms per tenant remain, far more than kMeasureSteps.
  Cell cell;
  for (int step = 0; step < kMeasureSteps; ++step) {
    const double t0 = ThreadCpuSeconds();
    auto a = selector->Next();
    const double t1 = ThreadCpuSeconds();
    EASEML_CHECK(a.ok()) << a.status().ToString();
    EASEML_CHECK(selector->Report(*a, Accuracy(a->tenant, a->model)).ok());
    const double t2 = ThreadCpuSeconds();
    cell.next_us += (t1 - t0) * 1e6;
    cell.report_us += (t2 - t1) * 1e6;
  }
  cell.next_us /= kMeasureSteps;
  cell.report_us /= kMeasureSteps;
  return cell;
}

}  // namespace

int main() {
  std::printf(
      "# Next() critical path: scan vs candidate index (GREEDY, K=%d, D=1, "
      "shared prior, %d steady-state steps, thread-CPU clocks)\n",
      kModels, kMeasureSteps);
  std::printf("%8s %7s | %14s %14s | %13s\n", "tenants", "engine",
              "next_us_mean", "report_us_mean", "next_speedup");
  for (int tenants : {1000, 10000, 100000}) {
    Cell scan;
    for (const bool use_index : {false, true}) {
      const Cell cell = RunCampaign(tenants, use_index);
      if (!use_index) scan = cell;
      std::printf("%8d %7s | %14.3f %14.3f | %12.2fx\n", tenants,
                  use_index ? "index" : "scan", cell.next_us, cell.report_us,
                  use_index ? scan.next_us / cell.next_us : 1.0);
      std::printf("NEXT_LATENCY,%d,%s,%.3f,%.3f\n", tenants,
                  use_index ? "index" : "scan", cell.next_us, cell.report_us);
    }
  }
  return 0;
}
