#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/multi_tenant_selector.h"
#include "gp/shared_prior_gp.h"
#include "seams.h"
#include "trace.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs for the self-test: same code paths, a fraction of a second.
  bool smoke = false;
  /// Fresh directory for this run's WAL and checkpoint files.
  std::string work_dir;
  /// Where the traced run writes its spans (empty: not written).
  std::string trace_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `metrics` holds exactly the end-to-end list
/// (untraced) or the per-layer list (traced), in BENCHMARK.json order;
/// `details` holds the per-layer figures only some workloads can observe
/// and the ledger rows, printed for humans but not part of the result.
struct RunResult {
  std::vector<std::string> problems;  // failed correctness checks
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> details;
  std::string notes;  // human-readable lines (digests, ledger table)
};

/// Name and unit of every end-to-end / per-layer metric, in output order.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Collects named values and emits them in the canonical order; a metric
/// the run never set is a problem, so a list and its producer cannot
/// silently drift apart.
class MetricSink {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  void Detail(const std::string& name, double value, const std::string& unit);
  void Emit(bool traced, RunResult* result) const;

 private:
  std::map<std::string, double> values_;
  std::vector<Metric> details_;
};

double Median(std::vector<double> samples);

/// Peak resident set of the process (VmHWM), in MiB.
double PeakRssMb();

/// Filesystem type of `path` (statfs magic mapped to a name).
std::string FsTypeName(const std::string& path);

void RemoveTree(const std::string& path);

/// Byte encoding of an engine's durable state (the recovery comparison).
easeml::Result<std::string> EncodedState(
    const easeml::core::MultiTenantSelector& selector);

/// The paper's average accuracy loss, averaged over the run's decisions:
/// after every report, the mean over live tenants of (best achievable -
/// best found so far), where a tenant not yet served has found 0.
/// `best_possible[t]` is tenant t's ceiling.
double RegretAuc(const std::vector<Event>& events,
                 const std::vector<double>& best_possible);

/// Checks every tenant's reports: no (tenant, model) twice, each tenant's
/// engine-side BestAccuracy equal to the best it reported, and — when
/// `expected_models[t] > 0` — exactly that many models reported.
void CheckReports(const std::vector<Event>& events,
                  const easeml::core::MultiTenantSelector& selector,
                  const std::vector<int>& expected_models,
                  std::vector<std::string>* problems);

/// One campaign's end-to-end figures, as measured.
struct CampaignFigures {
  double setup_s = 0.0;
  double serve_s = 0.0;
  int64_t decisions = 0;
  std::vector<double> next_us;    // every successful Next
  std::vector<double> report_us;  // every successful Report
  double regret_auc = 0.0;
  std::vector<double> recover_s;  // empty when the campaign was not killed
  /// Digest of the decision trace; 0 when the traffic does not fix it
  /// (worker threads order the service's completions).
  uint64_t digest = 0;
};

/// Runs `campaign(i)` for i = 0, 1, ... until `min_campaigns` have run and
/// their serve phases add up to `seconds` (or `ok()` turns false), then
/// sets every end-to-end metric: the decision rate over all the campaigns'
/// serve phases, and for every other figure the median over the campaigns
/// (a host hiccup that inflates one campaign's tail does not set the run's
/// p99). Campaign i serves its own seeded traffic; every campaign's figures
/// are listed in `notes`.
void MeasureEndToEnd(double seconds, int min_campaigns,
                     const std::function<CampaignFigures(int)>& campaign,
                     const std::function<bool()>& ok, MetricSink* sink,
                     std::string* notes);

double Rate(int64_t decisions, double seconds);

struct LayerInputs;

/// The traced run. `campaign(counting, layers)` runs one campaign of the
/// workload's reference traffic; untraced when both are null, otherwise on
/// `counting` with the decorators wired in, filling `layers`. Serves a
/// warm-up campaign (the process's first pays its page faults and cold
/// caches), the untraced reference and the traced campaign; checks that
/// the two decision digests agree; sets every per-layer metric; writes the
/// spans to `opts.trace_path`.
void MeasurePerLayer(
    const RunOptions& opts,
    const std::function<CampaignFigures(CountingFileSystem*, LayerInputs*)>&
        campaign,
    MetricSink* sink, RunResult* result);

/// Per-call timings of the GP and linalg layers, replayed on fresh
/// SharedPriorGp / Cholesky instances from the recorded (arm, reward)
/// sequence of every tenant (capped at `max_observations` in total).
struct ReplayTimings {
  std::vector<double> observe_us;
  std::vector<double> marginals_us;
  std::vector<double> chol_append_us;
  /// Sum of replayed posterior means: consumed by the caller so the timed
  /// marginal reads cannot be optimized away.
  double checksum = 0.0;
};
ReplayTimings ReplayBeliefs(
    const std::vector<Event>& events,
    const std::function<std::shared_ptr<const easeml::gp::SharedGpPrior>(int)>&
        prior_of,
    int64_t max_observations);

/// What every traced campaign collects from the decorators, turned into
/// the shared per-layer metrics. `serve_begin_ns`/`serve_end_ns` bound the
/// serve phase on the calling (critical-path) thread.
struct LayerInputs {
  const std::vector<Span>* spans = nullptr;  // critical-path thread
  std::vector<const SpanLog*> all_logs;
  int64_t serve_begin_ns = 0;
  int64_t serve_end_ns = 0;
  int64_t decisions = 0;
  int64_t next_calls = 0;
  int64_t next_refused = 0;
  int64_t wal_records = 0;  // log epochs advanced during the serve phase
  int checkpoints = 0;
  TracedObserver::Stats observer;
  CountingFileSystem::Stats fs;
  ReplayTimings replay;
  double replay_records_per_s = 0.0;
  double untraced_decisions_per_s = 0.0;
  double traced_decisions_per_s = 0.0;
};
void AddLayerMetrics(const LayerInputs& in, MetricSink* sink,
                     std::string* notes);

/// Durations (µs) of the spans of `layer` across `logs`; with
/// `ticketed_only`, only spans that carry a ticket.
std::vector<double> SpanDurationsUs(const std::vector<const SpanLog*>& logs,
                                    Layer layer, bool ticketed_only = false);

/// Timed recoveries per killed campaign; recover_s is their median.
inline constexpr int kRecoveries = 3;

/// Recovers the durable selector in `dir` `repeats` times, timing each
/// `wal::OpenOrRecover` (with a fresh FleetObserver, as a restarted service
/// would run). Every recovered state must equal `expected_state` byte for
/// byte; `on_recovered` then runs on the last recovered engine, the only
/// one that may append to the log. Failures go to `problems`.
struct Recovery {
  std::vector<double> seconds;
  int64_t replayed_records = 0;
};
Recovery Recover(
    const std::string& dir, int repeats, easeml::core::SelectorOptions options,
    const std::string& expected_state,
    const std::function<void(easeml::core::MultiTenantSelector&)>&
        on_recovered,
    std::vector<std::string>* problems);

/// Retires tenants 0..num_tenants-1, each inside a core.remove_tenant span.
void RetireAll(easeml::core::MultiTenantSelector& selector, int num_tenants,
               std::vector<std::string>* problems);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
