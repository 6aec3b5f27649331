#ifndef EASEML_CORE_SELECTOR_OBSERVER_H_
#define EASEML_CORE_SELECTOR_OBSERVER_H_

#include <cstdint>
#include <vector>

namespace easeml::core {

/// One tenant's published state at a fold boundary: everything a dashboard
/// or analytics scan wants to know about the tenant, derived from the same
/// sources as the candidate index's `TenantKey` (σ̃ bound, line-8 gap,
/// batched MaxUcb diagnostics) plus the serving-side bookkeeping the engine
/// already tracks. Plain data — snapshots of it are copied and published
/// wholesale, never pointed into engine state.
struct TenantObservation {
  int tenant = -1;
  bool retired = false;
  bool schedulable = false;
  bool uninitialized = false;  // awaiting its initialization-sweep round
  int rounds_served = 0;
  int in_flight = 0;    // tickets currently charged against the tenant
  int num_models = 0;   // candidate count K
  int best_model = -1;  // -1 until the first completed run
  double best_reward = 0.0;
  double consumed_cost = 0.0;
  /// σ̃ bound (the GREEDY threshold input); +inf before the first
  /// observation, -inf when not schedulable.
  double bound = 0.0;
  /// Line-8 gap MaxUcb − best_reward; -inf when unavailable (tenant not
  /// schedulable, or the policy exposes no confidence bounds).
  double gap = 0.0;
  /// Batched MaxUcb diagnostic; -inf when `gap` is -inf.
  double max_ucb = 0.0;
};

/// Engine-side observation seam. The selector engine calls these hooks
/// from inside its public methods; implementations must be cheap, must
/// never call back into the selector, and must do their own cross-thread
/// synchronization for anything they publish (the obs layer's
/// `FleetObserver` is the canonical implementation).
///
/// Threading contract: the engine is single-threaded (its callers
/// serialize every call), so for one engine every hook fires on the thread
/// that is driving it at that moment and no two hooks ever run
/// concurrently. `OnTenantPlaced` always precedes a tenant's first
/// `OnTenantEvent`. Readers of what an implementation publishes (snapshot
/// scans) may run on any thread at any time.
///
/// Every hook has an empty default so implementations subscribe only to
/// what they consume. The engine skips all derivation work when
/// `SelectorOptions::observer` is null — the serving path is untouched
/// (and its traces bit-identical) with observation off.
class SelectorObserver {
 public:
  virtual ~SelectorObserver() = default;

  /// `tenant`'s state changed (selection, fold, cancel, retire): `obs` is
  /// its fresh summary.
  virtual void OnTenantEvent(const TenantObservation& obs) { (void)obs; }

  /// A new tenant was registered (ids grow at the tail). Fired before the
  /// tenant's first OnTenantEvent. `shard` is always 0; the parameter
  /// stays only because the end-to-end benchmark's decorator overrides
  /// this signature, and goes with the next benchmark change.
  virtual void OnTenantPlaced(int tenant, int shard) {
    (void)tenant;
    (void)shard;
  }

  /// Never called. Kept only because the end-to-end benchmark's decorator
  /// overrides it; the next benchmark change removes it.
  virtual void OnPlacementChanged(
      const std::vector<std::vector<int>>& shard_tenants) {
    (void)shard_tenants;
  }

  /// A `Next()` call finished its pick + arm-selection phases. `pick_us` is
  /// the tenant-pick (index descent / scan) thread-CPU cost, `arm_us` the
  /// arm-selection cost; `ok` is false when no assignment was handed out.
  virtual void OnNext(bool ok, double pick_us, double arm_us) {
    (void)ok;
    (void)pick_us;
    (void)arm_us;
  }

  /// A `Report()` finished successfully; `coord_us` is its thread-CPU
  /// microseconds outside the fold (validation, ticket retirement and the
  /// scheduler's OnOutcome).
  virtual void OnReport(double coord_us) { (void)coord_us; }

  /// A `Report()`/`Cancel()` ticket was rejected; `code` is the
  /// `StatusCode` of the precise rejection taxonomy (NotFound = unknown
  /// id, FailedPrecondition = stale/duplicate, InvalidArgument = forged
  /// entry or non-finite accuracy).
  virtual void OnTicketRejected(int code) { (void)code; }

  /// A validated report is about to fold (always inline; `shard` is always
  /// 0 — kept for the end-to-end benchmark's decorator signature until the
  /// next benchmark change).
  virtual void OnFoldQueued(int shard) { (void)shard; }

  /// A report's belief fold ran inline, costing `fold_us` thread-CPU
  /// microseconds. `shard` is always 0 (see `OnFoldQueued`).
  virtual void OnFold(int shard, double fold_us) {
    (void)shard;
    (void)fold_us;
  }

  /// Never called. Kept only because the end-to-end benchmark's decorator
  /// overrides it; the next benchmark change removes it.
  virtual void OnDrainWait(double wait_us) { (void)wait_us; }
};

}  // namespace easeml::core

#endif  // EASEML_CORE_SELECTOR_OBSERVER_H_
