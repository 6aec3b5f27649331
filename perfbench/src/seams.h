#ifndef PERFBENCH_SEAMS_H_
#define PERFBENCH_SEAMS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/durability_log.h"
#include "core/multi_tenant_selector.h"
#include "core/selector_observer.h"
#include "trace.h"
#include "wal/file.h"

namespace perfbench {

// Benchmark-side decorators on the seams the program already exposes. They
// forward every call unchanged and time it on the benchmark's monotonic
// clock; only the traced run wires them in, so the untraced run measures
// the program's own stack.

/// Counts and times what the WAL asks of the filesystem. Log-file writes
/// are counted apart from checkpoint writes; every fsync (log, checkpoint,
/// directory) is counted.
class CountingFileSystem final : public easeml::wal::FileSystem {
 public:
  struct Stats {
    int64_t log_write_calls = 0;
    int64_t log_bytes = 0;
    int64_t checkpoint_bytes = 0;
    int64_t fsync_calls = 0;
    std::vector<double> write_us;  // every Append
    std::vector<double> sync_us;   // every fsync
  };

  explicit CountingFileSystem(easeml::wal::FileSystem* base) : base_(base) {}

  Stats TakeStats();

  easeml::Result<std::unique_ptr<easeml::wal::WritableFile>> OpenAppendable(
      const std::string& path) override;
  easeml::Result<std::string> ReadFile(const std::string& path) override {
    return base_->ReadFile(path);
  }
  easeml::Result<bool> Exists(const std::string& path) override {
    return base_->Exists(path);
  }
  easeml::Status Truncate(const std::string& path, uint64_t size) override {
    return base_->Truncate(path, size);
  }
  easeml::Status Rename(const std::string& from,
                        const std::string& to) override {
    return base_->Rename(from, to);
  }
  easeml::Status Delete(const std::string& path) override {
    return base_->Delete(path);
  }
  easeml::Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }
  easeml::Status SyncDir(const std::string& dir) override;

  void RecordWrite(bool is_log, size_t bytes, double us);
  void RecordSync(double us);

 private:
  easeml::wal::FileSystem* const base_;
  std::mutex mu_;
  Stats stats_;
};

/// `core::DurabilityLog` decorator: one wal.append span per record.
class TracedLog final : public easeml::core::DurabilityLog {
 public:
  explicit TracedLog(easeml::core::DurabilityLog* base) : base_(base) {}

  easeml::Status LogAddTenant(
      int tenant,
      const std::shared_ptr<const easeml::gp::SharedGpPrior>& prior,
      const std::vector<double>& costs) override {
    ScopedSpan span(Layer::kWalAppend);
    return base_->LogAddTenant(tenant, prior, costs);
  }
  easeml::Status LogRemoveTenant(int tenant) override {
    ScopedSpan span(Layer::kWalAppend);
    return base_->LogRemoveTenant(tenant);
  }
  easeml::Status LogNext(int tenant, int model, int64_t ticket) override {
    ScopedSpan span(Layer::kWalAppend, ticket);
    return base_->LogNext(tenant, model, ticket);
  }
  easeml::Status LogReport(int64_t ticket, int tenant, int model,
                           double accuracy) override {
    ScopedSpan span(Layer::kWalAppend, ticket);
    return base_->LogReport(ticket, tenant, model, accuracy);
  }
  easeml::Status LogCancel(int64_t ticket, int tenant, int model) override {
    ScopedSpan span(Layer::kWalAppend, ticket);
    return base_->LogCancel(ticket, tenant, model);
  }
  easeml::Status Sync() override {
    ScopedSpan span(Layer::kWalSync);
    return base_->Sync();
  }
  bool SyncIsDeferred() const override { return base_->SyncIsDeferred(); }
  Position position() const override { return base_->position(); }

 private:
  easeml::core::DurabilityLog* const base_;
};

/// `core::SelectorObserver` decorator: times every forwarded hook (the
/// FleetObserver's own work) and keeps the program's thread-CPU timings it
/// is handed.
class TracedObserver final : public easeml::core::SelectorObserver {
 public:
  struct Stats {
    std::vector<double> pick_us;    // OnNext pick (program, thread-CPU)
    std::vector<double> arm_us;     // OnNext arm selection (program)
    std::vector<double> coord_us;   // OnReport (program)
    std::vector<double> fold_us;    // OnFold (program)
    int64_t tenant_events = 0;
    int64_t hook_ns = 0;  // summed self time of the forwarded hooks
  };

  explicit TracedObserver(easeml::core::SelectorObserver* base)
      : base_(base) {}

  Stats TakeStats();

  void OnTenantEvent(const easeml::core::TenantObservation& obs) override;
  void OnTenantPlaced(int tenant, int shard) override;
  void OnPlacementChanged(
      const std::vector<std::vector<int>>& shard_tenants) override;
  void OnNext(bool ok, double pick_us, double arm_us) override;
  void OnReport(double coord_us) override;
  void OnTicketRejected(int code) override;
  void OnFoldQueued(int shard) override;
  void OnFold(int shard, double fold_us) override;
  void OnDrainWait(double wait_us) override;

 private:
  /// Runs `forward` inside an obs.hook span and adds its wall time.
  template <typename F>
  void Forward(F&& forward);

  easeml::core::SelectorObserver* const base_;
  std::atomic<int64_t> hook_ns_{0};
  std::atomic<int64_t> tenant_events_{0};
  std::mutex mu_;
  Stats samples_;  // vectors only; guarded by mu_
};

/// Folds one assignment into a running FNV-1a digest of the decision trace.
uint64_t DigestAssignment(uint64_t digest, int tenant, int model,
                          int64_t ticket);
inline constexpr uint64_t kDigestSeed = 1469598103934665603ull;

/// One recorded completion or churn event of a campaign, in serving order.
struct Event {
  enum Kind : uint8_t { kAdd, kRemove, kReport } kind;
  int tenant;
  int model;
  double accuracy;
};

/// The sequential engine with its public entry points timed — the one way
/// to see the Next/Report latencies of a selector that
/// `EaseMlService::RunAsync` drives internally. Built around the same
/// scheduler policy `MultiTenantSelector::Create` builds, handed to the
/// service through `EaseMlService::CreateWithSelector`.
class TimedSelector final : public easeml::core::MultiTenantSelector {
 public:
  struct Samples {
    std::vector<double> next_us;    // successful Next calls
    std::vector<double> report_us;  // successful Report calls
    int64_t next_calls = 0;
    int64_t next_refused = 0;  // FailedPrecondition: no device/work
    int64_t other_calls = 0;
    int64_t failed = 0;        // any other non-OK outcome
    std::vector<Event> events;
    /// (K, noise variance) of every tenant's default prior, by tenant id.
    std::vector<std::pair<int, double>> shapes;
  };

  static std::unique_ptr<TimedSelector> Create(
      const easeml::core::SelectorOptions& options);

  /// Called after every `every`-th successful Report, outside its timing
  /// (the service workload cuts its checkpoints here).
  void SetAfterReport(int every, std::function<void()> hook) {
    after_every_ = every;
    after_report_ = std::move(hook);
  }

  Samples& samples() { return samples_; }

  easeml::Result<Assignment> Next() override;
  easeml::Status Report(const Assignment& assignment,
                        double accuracy) override;
  easeml::Status Cancel(const Assignment& assignment) override;
  easeml::Result<int> AddTenantWithDefaultPrior(
      int num_models, std::vector<double> costs,
      double noise_variance) override;

 private:
  TimedSelector(const easeml::core::SelectorOptions& options,
                std::unique_ptr<easeml::scheduler::SchedulerPolicy> policy)
      : MultiTenantSelector(options, std::move(policy)) {}

  Samples samples_;
  int after_every_ = 0;
  std::function<void()> after_report_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SEAMS_H_
