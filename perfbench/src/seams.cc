#include "seams.h"

#include <utility>

namespace perfbench {
namespace {

using easeml::Result;
using easeml::Status;
using easeml::StatusCode;

double UsSince(int64_t t0) { return static_cast<double>(NowNs() - t0) * 1e-3; }

/// Log-file appends are told apart from checkpoint writes by file name
/// (wal::LogPath and wal::CheckpointPath share the directory).
bool IsLogPath(const std::string& path) {
  return path.size() >= 4 && path.compare(path.size() - 4, 4, ".log") == 0;
}

class CountingFile final : public easeml::wal::WritableFile {
 public:
  CountingFile(std::unique_ptr<easeml::wal::WritableFile> base,
               CountingFileSystem* fs, bool is_log)
      : base_(std::move(base)), fs_(fs), is_log_(is_log) {}

  Status Append(std::string_view data) override {
    ScopedSpan span(Layer::kWalWrite);
    const int64_t t0 = NowNs();
    Status s = base_->Append(data);
    fs_->RecordWrite(is_log_, data.size(), UsSince(t0));
    return s;
  }
  Status Sync() override {
    ScopedSpan span(Layer::kWalSync);
    const int64_t t0 = NowNs();
    Status s = base_->Sync();
    fs_->RecordSync(UsSince(t0));
    return s;
  }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<easeml::wal::WritableFile> base_;
  CountingFileSystem* const fs_;
  const bool is_log_;
};

}  // namespace

Result<std::unique_ptr<easeml::wal::WritableFile>>
CountingFileSystem::OpenAppendable(const std::string& path) {
  auto file = base_->OpenAppendable(path);
  if (!file.ok()) return file.status();
  std::unique_ptr<easeml::wal::WritableFile> wrapped =
      std::make_unique<CountingFile>(std::move(*file), this, IsLogPath(path));
  return wrapped;
}

Status CountingFileSystem::SyncDir(const std::string& dir) {
  ScopedSpan span(Layer::kWalSync);
  const int64_t t0 = NowNs();
  Status s = base_->SyncDir(dir);
  RecordSync(UsSince(t0));
  return s;
}

void CountingFileSystem::RecordWrite(bool is_log, size_t bytes, double us) {
  std::lock_guard<std::mutex> lock(mu_);
  if (is_log) {
    ++stats_.log_write_calls;
    stats_.log_bytes += static_cast<int64_t>(bytes);
  } else {
    stats_.checkpoint_bytes += static_cast<int64_t>(bytes);
  }
  stats_.write_us.push_back(us);
}

void CountingFileSystem::RecordSync(double us) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.fsync_calls;
  stats_.sync_us.push_back(us);
}

CountingFileSystem::Stats CountingFileSystem::TakeStats() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(stats_, Stats{});
}

template <typename F>
void TracedObserver::Forward(F&& forward) {
  ScopedSpan span(Layer::kObsHook);
  const int64_t t0 = NowNs();
  forward();
  hook_ns_.fetch_add(NowNs() - t0, std::memory_order_relaxed);
}

void TracedObserver::OnTenantEvent(
    const easeml::core::TenantObservation& obs) {
  tenant_events_.fetch_add(1, std::memory_order_relaxed);
  Forward([&] { base_->OnTenantEvent(obs); });
}

void TracedObserver::OnTenantPlaced(int tenant, int shard) {
  Forward([&] { base_->OnTenantPlaced(tenant, shard); });
}

void TracedObserver::OnPlacementChanged(
    const std::vector<std::vector<int>>& shard_tenants) {
  Forward([&] { base_->OnPlacementChanged(shard_tenants); });
}

void TracedObserver::OnNext(bool ok, double pick_us, double arm_us) {
  Forward([&] { base_->OnNext(ok, pick_us, arm_us); });
  if (!ok) return;
  std::lock_guard<std::mutex> lock(mu_);
  samples_.pick_us.push_back(pick_us);
  samples_.arm_us.push_back(arm_us);
}

void TracedObserver::OnReport(double coord_us) {
  Forward([&] { base_->OnReport(coord_us); });
  std::lock_guard<std::mutex> lock(mu_);
  samples_.coord_us.push_back(coord_us);
}

void TracedObserver::OnTicketRejected(int code) {
  Forward([&] { base_->OnTicketRejected(code); });
}

void TracedObserver::OnFoldQueued(int shard) {
  Forward([&] { base_->OnFoldQueued(shard); });
}

void TracedObserver::OnFold(int shard, double fold_us) {
  Forward([&] { base_->OnFold(shard, fold_us); });
  std::lock_guard<std::mutex> lock(mu_);
  samples_.fold_us.push_back(fold_us);
}

void TracedObserver::OnDrainWait(double wait_us) {
  Forward([&] { base_->OnDrainWait(wait_us); });
}

TracedObserver::Stats TracedObserver::TakeStats() {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out = std::exchange(samples_, Stats{});
  out.tenant_events = tenant_events_.exchange(0);
  out.hook_ns = hook_ns_.exchange(0);
  return out;
}

std::unique_ptr<TimedSelector> TimedSelector::Create(
    const easeml::core::SelectorOptions& options) {
  auto policy = easeml::core::MakeSchedulerPolicy(options);
  if (policy == nullptr || options.num_shards != 1) return nullptr;
  std::unique_ptr<TimedSelector> selector(
      new TimedSelector(options, std::move(policy)));
  if (options.use_candidate_index) selector->ResetIndex(1);
  return selector;
}

Result<TimedSelector::Assignment> TimedSelector::Next() {
  ScopedSpan span(Layer::kCoreNext);
  const int64_t t0 = NowNs();
  Result<Assignment> a = MultiTenantSelector::Next();
  const double us = UsSince(t0);
  ++samples_.next_calls;
  if (a.ok()) {
    span.set_ticket(a->id);
    samples_.next_us.push_back(us);
  } else if (a.status().code() == StatusCode::kFailedPrecondition) {
    ++samples_.next_refused;
  } else {
    ++samples_.failed;
  }
  return a;
}

Status TimedSelector::Report(const Assignment& assignment, double accuracy) {
  Status s;
  {
    ScopedSpan span(Layer::kCoreReport, assignment.id);
    const int64_t t0 = NowNs();
    s = MultiTenantSelector::Report(assignment, accuracy);
    const double us = UsSince(t0);
    ++samples_.other_calls;
    if (!s.ok()) {
      ++samples_.failed;
      return s;
    }
    samples_.report_us.push_back(us);
  }
  samples_.events.push_back(
      {Event::kReport, assignment.tenant, assignment.model, accuracy});
  const int64_t reports = static_cast<int64_t>(samples_.report_us.size());
  if (after_every_ > 0 && reports % after_every_ == 0) after_report_();
  return s;
}

Status TimedSelector::Cancel(const Assignment& assignment) {
  ScopedSpan span(Layer::kCoreCancel, assignment.id);
  Status s = MultiTenantSelector::Cancel(assignment);
  ++samples_.other_calls;
  if (!s.ok()) ++samples_.failed;
  return s;
}

Result<int> TimedSelector::AddTenantWithDefaultPrior(
    int num_models, std::vector<double> costs, double noise_variance) {
  ScopedSpan span(Layer::kCoreAddTenant);
  Result<int> id = MultiTenantSelector::AddTenantWithDefaultPrior(
      num_models, std::move(costs), noise_variance);
  ++samples_.other_calls;
  if (!id.ok()) {
    ++samples_.failed;
  } else {
    samples_.events.push_back({Event::kAdd, *id, -1, 0.0});
    if (static_cast<int>(samples_.shapes.size()) <= *id) {
      samples_.shapes.resize(*id + 1);
    }
    samples_.shapes[*id] = {num_models, noise_variance};
  }
  return id;
}

uint64_t DigestAssignment(uint64_t digest, int tenant, int model,
                          int64_t ticket) {
  const uint64_t words[3] = {static_cast<uint64_t>(tenant),
                             static_cast<uint64_t>(model),
                             static_cast<uint64_t>(ticket)};
  for (const uint64_t w : words) {
    for (int b = 0; b < 8; ++b) {
      digest ^= (w >> (8 * b)) & 0xffu;
      digest *= 1099511628211ull;
    }
  }
  return digest;
}

}  // namespace perfbench
