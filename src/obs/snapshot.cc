#include "obs/snapshot.h"

#include <algorithm>

#include "common/logging.h"

namespace easeml::obs {

namespace {

/// Per-tenant contribution to the integer aggregates; `Apply` diffs two of
/// these.
FleetAggregates Contribution(const core::TenantObservation& o) {
  FleetAggregates c;
  c.tenants = 1;
  c.retired = o.retired ? 1 : 0;
  c.schedulable = o.schedulable ? 1 : 0;
  c.uninitialized = o.uninitialized ? 1 : 0;
  c.in_flight = o.in_flight;
  c.rounds = o.rounds_served;
  return c;
}

void AddInPlace(FleetAggregates& agg, const FleetAggregates& c, int sign) {
  agg.tenants += sign * c.tenants;
  agg.retired += sign * c.retired;
  agg.schedulable += sign * c.schedulable;
  agg.uninitialized += sign * c.uninitialized;
  agg.in_flight += sign * c.in_flight;
  agg.rounds += sign * c.rounds;
}

int NumChunks(int n) { return (n + kChunk - 1) / kChunk; }

}  // namespace

SnapshotPlane::SnapshotPlane(int publish_interval)
    : publish_interval_(std::max(1, publish_interval)) {
  // Seed an empty epoch-0 snapshot so readers always find one.
  last_ = std::make_shared<FleetSnapshot>();
  MutexLock lock(pub_mu_);
  published_ = last_;
}

SnapshotPlane::~SnapshotPlane() = default;

void SnapshotPlane::Apply(const core::TenantObservation& obs) {
  const int tenant = obs.tenant;
  EASEML_CHECK(tenant >= 0 && tenant < static_cast<int>(master_.size()))
      << "obs: Apply for unplaced tenant " << tenant
      << " (placement hooks must precede tenant events)";
  core::TenantObservation& entry = master_[static_cast<size_t>(tenant)];
  // Integer-diff the aggregates before overwriting the master entry. The
  // tenant counts of the two contributions cancel: membership is Place's
  // to maintain, not Apply's.
  AddInPlace(totals_, Contribution(obs), +1);
  AddInPlace(totals_, Contribution(entry), -1);
  entry = obs;
  chunk_dirty_[static_cast<size_t>(tenant / kChunk)] = 1;
  ++events_;
  // The configured interval is a floor: the plane additionally batches at
  // least num_chunks/8 events per publish, so the per-publish chunk-pointer
  // vector rebuild (one shared_ptr copy per chunk, refcounted) amortizes to
  // O(1) refcount traffic per event at any fleet size — without this a
  // 10^5-tenant fleet would spend more on pointer churn than on the fold
  // it is observing.
  const int threshold = std::max(
      publish_interval_, static_cast<int>(chunk_dirty_.size()) / 8);
  if (++since_publish_ >= threshold) Publish();
}

void SnapshotPlane::Place(int tenant) {
  EASEML_CHECK(tenant == static_cast<int>(master_.size()))
      << "obs: Place(" << tenant << ") after " << master_.size()
      << " tenants (ids must be dense)";
  master_.emplace_back();
  master_.back().tenant = tenant;  // entry is live now
  chunk_dirty_.resize(static_cast<size_t>(NumChunks(tenant + 1)), 1);
  chunk_dirty_[static_cast<size_t>(tenant / kChunk)] = 1;
  totals_.tenants += 1;  // default-constructed entry contributes only this
  ++events_;
  ++since_publish_;  // placement is an event: it must reach readers
}

void SnapshotPlane::Flush() {
  if (since_publish_ > 0) Publish();
}

std::shared_ptr<const FleetSnapshot> SnapshotPlane::Snapshot() const {
  MutexLock lock(pub_mu_);
  return published_;
}

void SnapshotPlane::Publish() {
  const int n = static_cast<int>(master_.size());
  const int num_chunks = NumChunks(n);
  auto snap = std::make_shared<FleetSnapshot>();
  snap->epoch = events_;
  snap->num_tenants = n;
  snap->totals = totals_;
  snap->chunks.resize(static_cast<size_t>(num_chunks));
  for (int c = 0; c < num_chunks; ++c) {
    if (chunk_dirty_[static_cast<size_t>(c)] == 0) {
      // Clean chunk: share the previous snapshot's copy (COW reuse). A
      // chunk that grew since was dirtied by Place, so this one exists.
      snap->chunks[static_cast<size_t>(c)] =
          last_->chunks[static_cast<size_t>(c)];
      continue;
    }
    const int lo = c * kChunk;
    const int hi = std::min(n, lo + kChunk);
    snap->chunks[static_cast<size_t>(c)] =
        std::make_shared<const std::vector<core::TenantObservation>>(
            master_.begin() + lo, master_.begin() + hi);
    chunk_dirty_[static_cast<size_t>(c)] = 0;
  }
  last_ = snap;
  since_publish_ = 0;
  MutexLock lock(pub_mu_);
  published_ = std::move(snap);
}

}  // namespace easeml::obs
