/// Tenant-scaling microbenchmark for the belief representations (PR 2).
///
/// Sweeps T tenants x K arms and compares, at the paper's t << K operating
/// point, the dense per-tenant representation (`DiscreteArmGp`: two private
/// K x K matrices, O(K^2) per observation) against the shared-prior one
/// (`SharedPriorGp`: one Gram matrix for all tenants, O(t^2 + tK) per
/// observation). Reports per-(tenant, step) wall time and resident belief
/// bytes per tenant; results are recorded in BENCH_pr2.json.
///
/// The dense fleet is instantiated up to a cap (its per-tenant state is
/// T-independent, so timing and memory extrapolate exactly); the shared
/// fleet is always instantiated in full.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "common/rng.h"
#include "gp/gaussian_process.h"
#include "gp/kernel.h"
#include "gp/shared_prior_gp.h"
#include "linalg/matrix.h"

namespace {

using easeml::Rng;
using easeml::gp::DiscreteArmGp;
using easeml::gp::SharedPriorGp;

constexpr int kStepsPerTenant = 5;  // t << K (paper regime: few runs each)
constexpr int kDenseTenantCap = 200;

/// RBF Gram matrix over random 3-d model features, built through the same
/// kernel layer the experiment runner uses.
easeml::linalg::Matrix RandomGram(int k, Rng& rng) {
  std::vector<std::vector<double>> x(k, std::vector<double>(3));
  for (auto& row : x) {
    for (double& v : row) v = rng.Uniform();
  }
  easeml::gp::RbfKernel kernel(/*length_scale=*/0.5, /*signal_variance=*/0.5);
  auto gram = kernel.BuildGram(x);
  EASEML_CHECK(gram.ok()) << gram.status().ToString();
  gram->AddToDiagonal(1e-8);
  return std::move(gram).value();
}

struct RepResult {
  double us_per_step = 0.0;     // mean wall time per (tenant, step)
  double bytes_per_tenant = 0;  // resident belief bytes, amortized
};

/// One observation step: condition on a fresh reward, then refresh the
/// full posterior summary (what GP-UCB's batched SelectArm consumes).
template <typename Belief>
void Step(Belief& belief, int tenant, int step, int k) {
  const int arm = (tenant * 7 + step * 13) % k;
  const double y = 0.3 + 0.4 * (((tenant + 3) * (step + 11)) % 17) / 17.0;
  EASEML_CHECK(belief.Observe(arm, y).ok());
  const auto& summary = belief.AllMarginals();
  EASEML_CHECK(static_cast<int>(summary.mean.size()) == k);
}

RepResult RunDense(const easeml::linalg::Matrix& gram, int tenants, int k) {
  const int instantiated = std::min(tenants, kDenseTenantCap);
  std::vector<DiscreteArmGp> fleet;
  fleet.reserve(instantiated);
  for (int i = 0; i < instantiated; ++i) {
    auto gp = DiscreteArmGp::Create(gram, 1e-3);
    EASEML_CHECK(gp.ok());
    fleet.push_back(std::move(gp).value());
  }
  const double start = easeml::MonotonicSeconds();
  for (int s = 0; s < kStepsPerTenant; ++s) {
    for (int i = 0; i < instantiated; ++i) Step(fleet[i], i, s, k);
  }
  const double end = easeml::MonotonicSeconds();
  RepResult out;
  out.us_per_step =
      (end - start) * 1e6 / (static_cast<double>(instantiated) * kStepsPerTenant);
  out.bytes_per_tenant = static_cast<double>(fleet[0].ApproxMemoryBytes());
  return out;
}

RepResult RunShared(const easeml::linalg::Matrix& gram, int tenants, int k) {
  auto prior = easeml::gp::MakeSharedGpPrior(gram, 1e-3);
  EASEML_CHECK(prior.ok());
  std::vector<SharedPriorGp> fleet;
  fleet.reserve(tenants);
  for (int i = 0; i < tenants; ++i) {
    auto gp = SharedPriorGp::Create(*prior);
    EASEML_CHECK(gp.ok());
    fleet.push_back(std::move(gp).value());
  }
  const double start = easeml::MonotonicSeconds();
  for (int s = 0; s < kStepsPerTenant; ++s) {
    for (int i = 0; i < tenants; ++i) Step(fleet[i], i, s, k);
  }
  const double end = easeml::MonotonicSeconds();
  RepResult out;
  out.us_per_step =
      (end - start) * 1e6 / (static_cast<double>(tenants) * kStepsPerTenant);
  double own_bytes = 0.0;
  for (const auto& gp : fleet) {
    own_bytes += static_cast<double>(gp.ApproxMemoryBytes());
  }
  out.bytes_per_tenant = own_bytes / tenants +
                         static_cast<double>((*prior)->ApproxMemoryBytes()) /
                             tenants;
  return out;
}

}  // namespace

int main() {
  std::printf(
      "# Belief-representation scaling: T tenants x K arms, %d "
      "observations per tenant (t << K)\n",
      kStepsPerTenant);
  std::printf("%6s %5s | %18s %18s | %20s %20s | %8s %8s\n", "T", "K",
              "dense us/step", "shared us/step", "dense B/tenant",
              "shared B/tenant", "mem x", "time x");
  for (int k : {8, 179}) {
    Rng rng(42);
    const easeml::linalg::Matrix gram = RandomGram(k, rng);
    for (int tenants : {10, 100, 1000}) {
      const RepResult dense = RunDense(gram, tenants, k);
      const RepResult shared = RunShared(gram, tenants, k);
      std::printf(
          "%6d %5d | %18.3f %18.3f | %20.0f %20.0f | %8.1f %8.2f\n", tenants,
          k, dense.us_per_step, shared.us_per_step, dense.bytes_per_tenant,
          shared.bytes_per_tenant,
          dense.bytes_per_tenant / shared.bytes_per_tenant,
          dense.us_per_step / shared.us_per_step);
    }
  }
  return 0;
}
