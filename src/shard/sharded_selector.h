#ifndef EASEML_SHARD_SHARDED_SELECTOR_H_
#define EASEML_SHARD_SHARDED_SELECTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/thread_annotations.h"
#include "core/multi_tenant_selector.h"
#include "shard/shard_map.h"
#include "shard/shard_pool.h"

namespace easeml::shard {

/// Sharded selector engine: tenant state partitioned over shard workers,
/// with per-tenant arm selection and belief folds run on the owning shard.
///
/// Tenants are conditionally independent given the shared `SharedGpPrior`,
/// so their state shards cleanly by tenant: a `ShardMap` hash-partitions
/// tenants over N worker threads (`ShardPool`). A tenant's arm selection
/// and belief fold execute on its owning shard's worker (`SelectArmFor`
/// routing on the pick path, the per-shard report queues below on the
/// completion path), and the per-arm in-flight masks live inside the
/// tenant's `UserState`, so no cross-shard belief synchronization ever
/// happens.
///
/// The user pick itself runs on the coordinator, under `mu_`, through the
/// base engine's `PickTenant`. With `SelectorOptions::use_candidate_index`
/// (the serving configuration) each shard keeps an incremental tournament
/// tree over its local tenants (`scheduler::CandidateIndex`, placement
/// mirroring the shard map), the routed seams refresh the served tenant's
/// leaf on its owning worker in O(log T), and `Next()` reads the N shard
/// roots. With the index off the coordinator runs the policy's sequential
/// `PickUser` scan — the reference engine the conformance suites compare
/// against. Either way the picks are BIT-IDENTICAL to the sequential
/// engine's for every shard count and any thread interleaving: the
/// conformance suite replays N ∈ {1,2,4,7} against the unsharded selector
/// across all five scheduler policies.
///
/// ## Report pipeline (coordinator / shard split)
///
/// `Report`/`Cancel` run in two phases. The COORDINATOR phase holds `mu_`:
/// it validates the ticket against the in-flight table, retires the entry
/// (duplicate taxonomy is pinned the moment the call returns), and enqueues
/// the FOLD — the O(t^2) Cholesky append plus the index-leaf refresh — on
/// the tenant's owning shard worker through `ShardPool::Enqueue`. The
/// worker drains its queue FIFO, so per-tenant fold order equals the order
/// the coordinator validated the completions in — exactly the sequential
/// engine's fold order — while folds for tenants on DIFFERENT shards run
/// concurrently instead of serializing under the engine lock. For policies
/// whose `ObservesOutcomes()` is false (everything but HYBRID) the
/// scheduler is sequenced immediately and `Report` returns with the fold
/// still in flight; HYBRID's freeze detector reads every tenant, so its
/// reports drain the queues before `OnOutcome`. Every reader of tenant or
/// index state (`Next`, accessors, churn) quiesces the same way: it takes
/// `mu_` — which stops new folds from being enqueued — then drains the
/// queues, so it always observes a fully folded engine.
///
/// Drop-in: the class IS a `core::MultiTenantSelector` (same ticketed
/// `Next()/Report()/Cancel()` protocol, same Status taxonomy), selected via
/// `SelectorOptions::num_shards > 1` through `MakeSelector`. Unlike the
/// base engine every public method is thread-safe: a selector-wide lock
/// serializes the protocol while folds run on the shard workers. (Sole
/// exception: `scheduler_policy()` hands out a raw reference into policy
/// state and is for quiescent diagnostics only.) Tenant churn
/// (`AddTenant`/`RemoveTenant`) rebalances the shard map under the same
/// lock.
class ShardedMultiTenantSelector final : public core::MultiTenantSelector {
 public:
  /// Validates `options` (num_shards >= 1) and starts the shard workers.
  static Result<std::unique_ptr<ShardedMultiTenantSelector>> Create(
      const core::SelectorOptions& options);

  // Thread-safe protocol overrides: take the selector lock, then run the
  // base implementation, whose routed seams run on the shard workers.
  Result<int> AddTenant(std::shared_ptr<const gp::SharedGpPrior> prior,
                        std::vector<double> costs) override;
  Result<int> AddTenantWithDefaultPrior(int num_models,
                                        std::vector<double> costs,
                                        double noise_variance = 1e-2) override;
  Status RemoveTenant(int tenant) override;
  int num_tenants() const override;
  bool Exhausted() const override;
  int num_in_flight() const override;
  bool HasDispatchableWork() const override;
  Result<Assignment> Next() override;
  Status Report(const Assignment& assignment, double accuracy) override;
  Status Cancel(const Assignment& assignment) override;
  Result<Assignment> InFlightAssignment(int64_t ticket) const override;
  Result<int> BestModel(int tenant) const override;
  Result<double> BestAccuracy(int tenant) const override;
  Result<int> RoundsServed(int tenant) const override;

  /// Shard count (== options().num_shards).
  int num_shards() const { return pool_.size(); }

  /// Current shard sizes, ascending shard index (diagnostics / bench).
  std::vector<int> ShardSizes() const;

  /// Thread-safe index invariant check (see the base class): additionally
  /// verifies the index placement mirrors the shard map exactly, so tenant
  /// churn rebalances can never desynchronize leaf ownership. Wired into
  /// the stress battery; OK when the index is disabled.
  Status ValidateIndex() const override;

  /// Thread-safe durable-state capture/restore (see the base class): both
  /// lock the coordinator and drain the fold pipeline first, so a capture
  /// is quiesced (every acknowledged fold applied) and a restore never
  /// races a worker.
  Result<core::DurableSelectorState> CaptureDurableState() const override;
  Status RestoreDurableState(const core::DurableSelectorState& state) override;

  /// Cumulative per-shard-worker CPU seconds spent in routed and fold
  /// closures. Max over shards tracks the parallel critical path even when
  /// the host has fewer cores than shards (see ShardPool). Locks and
  /// drains the report queues first, so the numbers include every fold of
  /// every completion already reported — same quiescence discipline as the
  /// other const accessors.
  std::vector<double> ShardCpuSeconds() const;

 private:
  ShardedMultiTenantSelector(core::MultiTenantSelector&& base,
                             int num_shards);

  // Engine seams (called with mu_ held by the public overrides). Only arm
  // selection is routed per call; the user pick is the base engine's
  // non-virtual `PickTenant` on the coordinator, and the Report/Cancel
  // overrides ship the base fold phases (`FoldReportedOutcome` /
  // `FoldCancel`) whole to the owning worker through the report queue.
  Result<int> SelectArmFor(int tenant) override EASEML_REQUIRES(mu_);
  // Churn re-partitions the shard map (rebalanced within +-1, which may
  // move OTHER tenants between shards); the candidate index mirrors the
  // new placement via SyncIndex. On add, the base engine syncs right after
  // this hook; removal syncs here (the base only neutralizes the leaf).
  void OnTenantAdded(int tenant) override EASEML_REQUIRES(mu_) {
    map_.Add(tenant);
    SyncIndexPlacement();
    // A rebalance may have moved OTHER tenants too: republish the whole
    // placement, then the new tenant's first observation.
    NotifyPlacementLocked();
    NotifyTenantEvent(tenant);
  }
  void OnTenantRemoved(int tenant) override EASEML_REQUIRES(mu_) {
    map_.Remove(tenant);
    SyncIndexPlacement();
    // The base hook already published the retirement event; dropping the
    // tenant from the placement is what retires its snapshot entry.
    NotifyPlacementLocked();
  }

  /// Publishes the current shard->tenants partition to the observer (no-op
  /// without one). Quiesced by construction: every caller holds mu_ right
  /// after a drain, so no worker-side tenant event runs concurrently.
  void NotifyPlacementLocked() EASEML_REQUIRES(mu_);

  /// Rebuilds the index placement from the shard map's partition (no-op
  /// when the index is disabled): one tournament tree per shard over its
  /// local tenants, so a tenant's leaf refresh runs on its owning worker
  /// (inside the routed seams) and stays shard-local. Cached keys are
  /// reused — churn costs O(T) re-aggregation, not O(T·K) re-reads.
  void SyncIndexPlacement() EASEML_REQUIRES(mu_);

  /// Runs `fn` on `tenant`'s owning shard worker and returns its result;
  /// a precise FailedPrecondition when the pool declined the closure
  /// (shut down) — the closure's result is only read when it actually ran.
  template <typename Fn>
  auto RouteToOwner(int tenant, Fn fn) -> decltype(fn()) EASEML_REQUIRES(mu_);

  /// Quiesces the report pipeline: blocks until every queued fold has
  /// finished. Callers hold `mu_`, so no new fold can be enqueued while
  /// they proceed — from here to unlock the engine is fully folded. Every
  /// reader of tenant/index state must call this right after locking. The
  /// observed wall-time stall (readers blocked behind in-flight folds) is
  /// the pipeline's queue-stall metric.
  void DrainFolds() const EASEML_REQUIRES(mu_) {
    core::SelectorObserver* obs = observer();
    if (obs == nullptr) {
      pool_.DrainQueues();
      return;
    }
    const double w0 = MonotonicSeconds();
    pool_.DrainQueues();
    obs->OnDrainWait((MonotonicSeconds() - w0) * 1e6);
  }

  /// Serializes the ticketed protocol. Guards the shard map (and, through
  /// the engine seams it wraps, all base-engine tenant state: users,
  /// in-flight table, candidate index — owned by the base class and
  /// therefore not annotatable here). pool_ is internally synchronized;
  /// queued folds touch only their own tenant's belief and shard-local
  /// index tree, and every path that reads or resizes tenant state drains
  /// them first (DrainFolds), so fold writes never race an engine read.
  mutable Mutex mu_;
  ShardMap map_ EASEML_GUARDED_BY(mu_);
  ShardPool pool_;
  /// Cached scheduler().ObservesOutcomes(): true (HYBRID) forces Report to
  /// drain the fold queues before sequencing OnOutcome; false lets Report
  /// return with its fold still queued (fully asynchronous completions).
  const bool scheduler_observes_outcomes_;
};

/// Builds the selector engine `options` asks for: the plain sequential
/// `MultiTenantSelector` when `num_shards <= 1`, the sharded engine
/// otherwise. The two are interchangeable behind the returned pointer and
/// produce bit-identical selection traces.
Result<std::unique_ptr<core::MultiTenantSelector>> MakeSelector(
    const core::SelectorOptions& options);

}  // namespace easeml::shard

#endif  // EASEML_SHARD_SHARDED_SELECTOR_H_
