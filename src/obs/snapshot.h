#ifndef EASEML_OBS_SNAPSHOT_H_
#define EASEML_OBS_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_annotations.h"
#include "core/selector_observer.h"

namespace easeml::obs {

/// Versioned, immutable, copy-on-write fleet snapshots.
///
/// The engine is single-threaded: its callers serialize every call (the
/// service under its mutex), so an analytics scan walking 10^5 tenants
/// under that serialization would stall the `Next()` hot path for its
/// whole walk. The snapshot plane decouples the two: the engine's driving
/// thread PUBLISHES an immutable `FleetSnapshot` at fold boundaries, and
/// readers WALK the last published snapshot lock-free (one brief pointer
/// copy aside), never touching the engine's serialization at all.
///
/// Writer side (the thread driving the engine, one at a time):
///   - `master_` holds the latest `TenantObservation` per tenant, indexed by
///     tenant id (ids are dense and never reused; a retired tenant keeps
///     its entry).
///   - Per-chunk dirty bits (chunks of `kChunk` tenants), a monotone event
///     counter, and integer-only running aggregates maintained by old/new
///     diff on every event — integers so a validator can recompute them
///     from a published snapshot and compare EXACTLY.
///
/// Publishing: after `publish_interval` events (or an explicit `Flush`) the
/// writer builds a fresh snapshot — dirty chunks copied from `master_`,
/// clean chunks reference-shared with the previous snapshot — and swaps it
/// into the `published_` pointer under a tiny leaf mutex. A snapshot's
/// `epoch` is the event count at publish, so epochs are strictly monotone.
///
/// Consistency: dirty bits cover every `master_` write since the covering
/// chunk was last copied, so each published snapshot equals `master_` at
/// one instant — internally consistent by construction (aggregates match
/// a recount of its entries). The stress battery races scans against a
/// churning engine to hold the plane to exactly that.
///
/// Threading contract (mirrors `core::SelectorObserver`):
///   - `Apply`, `Place` and `Flush` are writer calls: never concurrent with
///     each other.
///   - `Snapshot` is safe from ANY thread at ANY time.
constexpr int kChunk = 64;

/// Integer-only fleet aggregates. Every field is recomputable by summing a
/// snapshot's entries — the stress battery does exactly that and demands
/// equality, which is why nothing here is a double.
struct FleetAggregates {
  int64_t tenants = 0;        // registered (retired included)
  int64_t retired = 0;
  int64_t schedulable = 0;
  int64_t uninitialized = 0;  // awaiting the initialization sweep
  int64_t in_flight = 0;      // sum of per-tenant in-flight tickets
  int64_t rounds = 0;         // sum of rounds_served

  bool operator==(const FleetAggregates& o) const {
    return tenants == o.tenants && retired == o.retired &&
           schedulable == o.schedulable && uninitialized == o.uninitialized &&
           in_flight == o.in_flight && rounds == o.rounds;
  }
};

/// One published summary of the whole fleet: immutable after publication;
/// chunks may be shared (by shared_ptr) with earlier and later snapshots —
/// copy-on-write at chunk granularity.
struct FleetSnapshot {
  uint64_t epoch = 0;  // event count at publish; strictly monotone
  int num_tenants = 0;
  std::vector<std::shared_ptr<const std::vector<core::TenantObservation>>>
      chunks;  // chunk c covers tenants [c*kChunk, min((c+1)*kChunk, n))
  FleetAggregates totals;

  const core::TenantObservation& at(int tenant) const {
    return (*chunks[static_cast<size_t>(tenant / kChunk)])[static_cast<size_t>(
        tenant % kChunk)];
  }

  /// Calls `fn(observation)` for every tenant, in ascending id order.
  template <typename Fn>
  void ForEachTenant(Fn fn) const {
    for (int t = 0; t < num_tenants; ++t) fn(at(t));
  }
};

class SnapshotPlane {
 public:
  /// `publish_interval` = tenant events absorbed between automatic
  /// publishes; 1 publishes on every fold boundary.
  explicit SnapshotPlane(int publish_interval = 32);
  ~SnapshotPlane();

  SnapshotPlane(const SnapshotPlane&) = delete;
  SnapshotPlane& operator=(const SnapshotPlane&) = delete;

  // --- Writer side (threading contract above) -----------------------------

  /// Folds one tenant observation into the master copy and its chunk's
  /// dirty bit; publishes when the interval elapses. The tenant must have
  /// been placed first.
  void Apply(const core::TenantObservation& obs);

  /// Registers a new tenant; `tenant` must equal the number placed so far
  /// (ids are dense).
  void Place(int tenant);

  /// Publishes any unpublished events. After this, `Snapshot()` reflects
  /// every event applied so far.
  void Flush();

  // --- Reader side (any thread) -------------------------------------------

  /// Lock-free fleet walk: copies the published-snapshot pointer (one brief
  /// leaf-mutex hold, never contended by more than a pointer swap).
  std::shared_ptr<const FleetSnapshot> Snapshot() const;

 private:
  /// Builds and publishes a fresh snapshot from the dirty chunks.
  void Publish();

  std::vector<core::TenantObservation> master_;
  std::vector<uint8_t> chunk_dirty_;  // one flag per kChunk tenants
  uint64_t events_ = 0;               // monotone; snapshot epoch source
  int since_publish_ = 0;
  FleetAggregates totals_;
  std::shared_ptr<const FleetSnapshot> last_;  // writer's copy of published_
  const int publish_interval_;

  // Publication point: the ONLY state readers touch.
  mutable Mutex pub_mu_;
  std::shared_ptr<const FleetSnapshot> published_ EASEML_GUARDED_BY(pub_mu_);
};

}  // namespace easeml::obs

#endif  // EASEML_OBS_SNAPSHOT_H_
