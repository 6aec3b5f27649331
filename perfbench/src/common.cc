#include "common.h"

#include <sys/statfs.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "linalg/cholesky.h"
#include "obs/fleet_observer.h"
#include "wal/checkpoint.h"
#include "wal/file.h"
#include "wal/recovery.h"

namespace perfbench {

namespace fs = std::filesystem;
using easeml::Result;
using easeml::Status;

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kList = {
      {"setup_s", "s"},          {"decisions_per_s", "1/s"},
      {"next_p50_us", "us"},     {"next_p99_us", "us"},
      {"report_p50_us", "us"},   {"report_p99_us", "us"},
      {"recover_s", "s"},        {"regret_auc", "acc"},
      {"peak_rss_mb", "MiB"},
  };
  return kList;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kList = {
      {"core.next_self_us_p50", "us"},
      {"core.next_self_us_p99", "us"},
      {"core.report_self_us_p50", "us"},
      {"core.report_self_us_p99", "us"},
      {"core.add_tenant_us_p50", "us"},
      {"core.remove_tenant_us_p50", "us"},
      {"core.next_refused_ratio", "ratio"},
      {"core.report_coord_us_p50", "us"},
      {"core.report_coord_us_p99", "us"},
      {"scheduler.pick_us_p50", "us"},
      {"scheduler.pick_us_p99", "us"},
      {"bandit.select_arm_us_p50", "us"},
      {"bandit.select_arm_us_p99", "us"},
      {"gp.fold_us_p50", "us"},
      {"gp.fold_us_p99", "us"},
      {"gp.observe_us_p50", "us"},
      {"gp.observe_us_p99", "us"},
      {"gp.marginals_us_p50", "us"},
      {"linalg.chol_append_us_p50", "us"},
      {"linalg.chol_append_us_p99", "us"},
      {"wal.append_us_p50", "us"},
      {"wal.append_us_p99", "us"},
      {"wal.sync_us_p99", "us"},
      {"wal.records_per_decision", "ratio"},
      {"wal.bytes_per_decision", "B"},
      {"wal.write_calls_per_decision", "ratio"},
      {"wal.fsync_calls_per_decision", "ratio"},
      {"wal.write_us_p99", "us"},
      {"wal.checkpoint_ms", "ms"},
      {"wal.checkpoint_bytes", "B"},
      {"wal.replay_records_per_s", "1/s"},
      {"obs.hook_us_per_decision", "us"},
      {"obs.tenant_events_per_decision", "ratio"},
      {"ledger.unexplained_pct", "%"},
      {"trace.clock_floor_ns", "ns"},
      {"trace.overhead_pct", "%"},
  };
  return kList;
}

void MetricSink::Detail(const std::string& name, double value,
                        const std::string& unit) {
  details_.push_back({name, value, unit});
}

void MetricSink::Emit(bool traced, RunResult* result) const {
  for (const auto& [name, unit] :
       traced ? PerLayerMetrics() : EndToEndMetrics()) {
    auto it = values_.find(name);
    if (it == values_.end()) {
      result->problems.push_back("metric " + name + " was not measured");
      continue;
    }
    result->metrics.push_back({name, it->second, unit});
  }
  result->details.insert(result->details.end(), details_.begin(),
                         details_.end());
}

double Median(std::vector<double> samples) { return Quantile(samples, 0.5); }

double Rate(int64_t decisions, double seconds) {
  return seconds > 0.0 ? static_cast<double>(decisions) / seconds : 0.0;
}

void MeasureEndToEnd(double seconds, int min_campaigns,
                     const std::function<CampaignFigures(int)>& campaign,
                     const std::function<bool()>& ok, MetricSink* sink,
                     std::string* notes) {
  std::map<std::string, std::vector<double>> by_campaign;
  std::vector<double> recover_s;
  double served_s = 0.0;
  int64_t decisions = 0;
  int runs = 0;
  while (ok() && (runs < min_campaigns || served_s < seconds)) {
    CampaignFigures f = campaign(runs++);
    served_s += f.serve_s;
    decisions += f.decisions;
    by_campaign["decisions_per_s"].push_back(Rate(f.decisions, f.serve_s));
    by_campaign["next_p50_us"].push_back(Quantile(f.next_us, 0.5));
    by_campaign["next_p99_us"].push_back(Quantile(f.next_us, 0.99));
    by_campaign["report_p50_us"].push_back(Quantile(f.report_us, 0.5));
    by_campaign["report_p99_us"].push_back(Quantile(f.report_us, 0.99));
    by_campaign["setup_s"].push_back(f.setup_s);
    by_campaign["regret_auc"].push_back(f.regret_auc);
    recover_s.insert(recover_s.end(), f.recover_s.begin(), f.recover_s.end());
  }
  for (const auto& [name, values] : by_campaign) {
    if (name != "decisions_per_s") sink->Set(name, Median(values));
  }
  sink->Set("decisions_per_s", Rate(decisions, served_s));
  sink->Set("recover_s", Median(recover_s));
  sink->Set("peak_rss_mb", PeakRssMb());
  *notes += "campaigns: " + std::to_string(runs) + ", decisions: " +
            std::to_string(decisions) + ", serve seconds: " +
            std::to_string(served_s) + "\n";
  for (const auto& [name, values] : by_campaign) {
    *notes += "  per campaign " + name + ":";
    for (const double x : values) *notes += " " + std::to_string(x);
    *notes += "\n";
  }
}

void MeasurePerLayer(
    const RunOptions& opts,
    const std::function<CampaignFigures(CountingFileSystem*, LayerInputs*)>&
        campaign,
    MetricSink* sink, RunResult* result) {
  CampaignFigures reference;
  for (int pass = 0; pass < 2 && result->problems.empty(); ++pass) {
    reference = campaign(nullptr, nullptr);
  }
  CountingFileSystem counting(easeml::wal::GetPosixFileSystem());
  LayerInputs layers;
  SetTracingEnabled(true);
  ResetTracing();
  SpanLog* log = ThreadLog();
  const CampaignFigures traced = campaign(&counting, &layers);
  SetTracingEnabled(false);
  if (traced.digest != reference.digest) {
    result->problems.push_back(
        "traced decision digest differs from the untraced one");
  }
  layers.spans = &log->spans();
  layers.all_logs = AllLogs();
  layers.untraced_decisions_per_s =
      Rate(reference.decisions, reference.serve_s);
  layers.traced_decisions_per_s = Rate(traced.decisions, traced.serve_s);
  sink->Set("trace.clock_floor_ns", ClockFloorNs());
  AddLayerMetrics(layers, sink, &result->notes);
  char line[160];
  if (traced.digest != 0) {
    std::snprintf(line, sizeof(line),
                  "decision digest: untraced %016llx traced %016llx\n",
                  static_cast<unsigned long long>(reference.digest),
                  static_cast<unsigned long long>(traced.digest));
    result->notes += line;
  }
  std::snprintf(line, sizeof(line), "replay checksum %.6g\n",
                layers.replay.checksum);
  result->notes += line;
  if (!opts.trace_path.empty()) {
    std::ofstream out(opts.trace_path);
    out << SpansToJson(layers.all_logs);
  }
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

std::string FsTypeName(const std::string& path) {
  struct statfs info;
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x01021994:
      return "tmpfs";
    case 0x794C7630:
      return "overlayfs";
    case 0x2FC12FC1:
      return "zfs";
    case 0x65735546:
      return "fuse";
    default:
      break;
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%lx",
                static_cast<unsigned long>(info.f_type));
  return hex;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

Result<std::string> EncodedState(
    const easeml::core::MultiTenantSelector& selector) {
  auto state = selector.CaptureDurableState();
  if (!state.ok()) return state.status();
  std::string out;
  easeml::wal::EncodeDurableSelectorState(&out, *state);
  return out;
}

double RegretAuc(const std::vector<Event>& events,
                 const std::vector<double>& best_possible) {
  std::vector<double> best(best_possible.size(), 0.0);
  double loss_sum = 0.0;
  int64_t live = 0;
  double auc = 0.0;
  int64_t reports = 0;
  for (const Event& e : events) {
    const double ceiling = best_possible[e.tenant];
    switch (e.kind) {
      case Event::kAdd:
        loss_sum += ceiling;
        ++live;
        break;
      case Event::kRemove:
        loss_sum -= ceiling - best[e.tenant];
        --live;
        break;
      case Event::kReport:
        if (e.accuracy > best[e.tenant]) {
          loss_sum -= e.accuracy - best[e.tenant];
          best[e.tenant] = e.accuracy;
        }
        auc += live > 0 ? loss_sum / static_cast<double>(live) : 0.0;
        ++reports;
        break;
    }
  }
  return reports > 0 ? auc / static_cast<double>(reports) : 0.0;
}

void CheckReports(const std::vector<Event>& events,
                  const easeml::core::MultiTenantSelector& selector,
                  const std::vector<int>& expected_models,
                  std::vector<std::string>* problems) {
  const int tenants = selector.num_tenants();
  std::vector<std::vector<bool>> seen(tenants);
  std::vector<int> count(tenants, 0);
  std::vector<double> best(tenants, 0.0);
  for (const Event& e : events) {
    if (e.kind != Event::kReport) continue;
    if (e.tenant < 0 || e.tenant >= tenants) {
      problems->push_back("report for unknown tenant " +
                          std::to_string(e.tenant));
      return;
    }
    std::vector<bool>& s = seen[e.tenant];
    if (static_cast<int>(s.size()) <= e.model) s.resize(e.model + 1, false);
    if (s[e.model]) {
      problems->push_back("tenant " + std::to_string(e.tenant) + " model " +
                          std::to_string(e.model) + " reported twice");
      return;
    }
    s[e.model] = true;
    ++count[e.tenant];
    best[e.tenant] = std::max(best[e.tenant], e.accuracy);
  }
  for (int t = 0; t < tenants; ++t) {
    if (t < static_cast<int>(expected_models.size()) &&
        expected_models[t] > 0 && count[t] != expected_models[t]) {
      problems->push_back("tenant " + std::to_string(t) + " reported " +
                          std::to_string(count[t]) + " of " +
                          std::to_string(expected_models[t]) + " models");
      return;
    }
    auto engine_best = selector.BestAccuracy(t);
    if (!engine_best.ok() || *engine_best != best[t]) {
      problems->push_back("tenant " + std::to_string(t) +
                          " BestAccuracy differs from its best report");
      return;
    }
  }
}

ReplayTimings ReplayBeliefs(
    const std::vector<Event>& events,
    const std::function<std::shared_ptr<const easeml::gp::SharedGpPrior>(int)>&
        prior_of,
    int64_t max_observations) {
  std::map<int, std::vector<std::pair<int, double>>> sequences;
  int64_t kept = 0;
  for (const Event& e : events) {
    if (e.kind != Event::kReport || kept >= max_observations) continue;
    sequences[e.tenant].emplace_back(e.model, e.accuracy);
    ++kept;
  }
  ReplayTimings out;
  out.observe_us.reserve(kept);
  out.marginals_us.reserve(kept);
  out.chol_append_us.reserve(kept);
  std::vector<double> b;
  for (const auto& [tenant, seq] : sequences) {
    std::shared_ptr<const easeml::gp::SharedGpPrior> prior = prior_of(tenant);
    auto belief = easeml::gp::SharedPriorGp::CreateUnique(prior);
    if (!belief.ok()) continue;
    for (const auto& [arm, reward] : seq) {
      const int64_t t0 = NowNs();
      const Status s = (*belief)->Observe(arm, reward);
      const int64_t t1 = NowNs();
      const easeml::gp::PosteriorSummary summary = (*belief)->AllMarginals();
      const int64_t t2 = NowNs();
      if (!s.ok()) break;
      out.checksum += summary.mean.empty() ? 0.0 : summary.mean[0];
      out.observe_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      out.marginals_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
    }
    easeml::linalg::Cholesky chol;
    for (size_t i = 0; i < seq.size(); ++i) {
      const int arm = seq[i].first;
      b.resize(i);
      for (size_t j = 0; j < i; ++j) b[j] = prior->gram(arm, seq[j].first);
      const double d = prior->gram(arm, arm) + prior->noise_variance;
      const int64_t t0 = NowNs();
      const Status s = chol.Append(b, d);
      const int64_t t1 = NowNs();
      if (!s.ok()) break;
      out.chol_append_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    }
  }
  return out;
}

std::vector<double> SpanDurationsUs(const std::vector<const SpanLog*>& logs,
                                    Layer layer, bool ticketed_only) {
  std::vector<double> out;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      if (s.layer != layer || (ticketed_only && s.ticket < 0)) continue;
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    }
  }
  return out;
}

namespace {

/// Self times (µs) of the spans of `layer` on one thread.
std::vector<double> SelfTimesUs(const std::vector<Span>& spans, Layer layer,
                                bool ticketed_only) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::vector<double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].layer != layer || (ticketed_only && spans[i].ticket < 0)) {
      continue;
    }
    out.push_back(static_cast<double>(self[i]) * 1e-3);
  }
  return out;
}

double PerDecision(double total, int64_t decisions) {
  return decisions > 0 ? total / static_cast<double>(decisions) : 0.0;
}

}  // namespace

void AddLayerMetrics(const LayerInputs& in, MetricSink* sink,
                     std::string* notes) {
  const std::vector<Span>& spans = *in.spans;
  std::vector<double> v;

  v = SelfTimesUs(spans, Layer::kCoreNext, /*ticketed_only=*/true);
  sink->Set("core.next_self_us_p50", Quantile(v, 0.5));
  sink->Set("core.next_self_us_p99", Quantile(v, 0.99));
  v = SelfTimesUs(spans, Layer::kCoreReport, false);
  sink->Set("core.report_self_us_p50", Quantile(v, 0.5));
  sink->Set("core.report_self_us_p99", Quantile(v, 0.99));
  v = SpanDurationsUs(in.all_logs, Layer::kCoreAddTenant);
  sink->Set("core.add_tenant_us_p50", Quantile(v, 0.5));
  v = SpanDurationsUs(in.all_logs, Layer::kCoreRemoveTenant);
  sink->Set("core.remove_tenant_us_p50", Quantile(v, 0.5));
  v = SpanDurationsUs(in.all_logs, Layer::kCoreCancel);
  if (!v.empty()) sink->Detail("core.cancel_us_p50", Quantile(v, 0.5), "us");
  sink->Set("core.next_refused_ratio",
            in.next_calls > 0 ? static_cast<double>(in.next_refused) /
                                    static_cast<double>(in.next_calls)
                              : 0.0);

  TracedObserver::Stats o = in.observer;
  sink->Set("core.report_coord_us_p50", Quantile(o.coord_us, 0.5));
  sink->Set("core.report_coord_us_p99", Quantile(o.coord_us, 0.99));
  sink->Set("scheduler.pick_us_p50", Quantile(o.pick_us, 0.5));
  sink->Set("scheduler.pick_us_p99", Quantile(o.pick_us, 0.99));
  sink->Set("bandit.select_arm_us_p50", Quantile(o.arm_us, 0.5));
  sink->Set("bandit.select_arm_us_p99", Quantile(o.arm_us, 0.99));
  sink->Set("gp.fold_us_p50", Quantile(o.fold_us, 0.5));
  sink->Set("gp.fold_us_p99", Quantile(o.fold_us, 0.99));

  ReplayTimings r = in.replay;
  sink->Set("gp.observe_us_p50", Quantile(r.observe_us, 0.5));
  sink->Set("gp.observe_us_p99", Quantile(r.observe_us, 0.99));
  sink->Set("gp.marginals_us_p50", Quantile(r.marginals_us, 0.5));
  sink->Set("linalg.chol_append_us_p50", Quantile(r.chol_append_us, 0.5));
  sink->Set("linalg.chol_append_us_p99", Quantile(r.chol_append_us, 0.99));

  v = SpanDurationsUs(in.all_logs, Layer::kWalAppend);
  sink->Set("wal.append_us_p50", Quantile(v, 0.5));
  sink->Set("wal.append_us_p99", Quantile(v, 0.99));
  CountingFileSystem::Stats f = in.fs;
  sink->Set("wal.sync_us_p99", Quantile(f.sync_us, 0.99));
  sink->Set("wal.write_us_p99", Quantile(f.write_us, 0.99));
  sink->Set("wal.records_per_decision",
            PerDecision(static_cast<double>(in.wal_records), in.decisions));
  sink->Set("wal.bytes_per_decision",
            PerDecision(static_cast<double>(f.log_bytes), in.decisions));
  sink->Set("wal.write_calls_per_decision",
            PerDecision(static_cast<double>(f.log_write_calls), in.decisions));
  sink->Set("wal.fsync_calls_per_decision",
            PerDecision(static_cast<double>(f.fsync_calls), in.decisions));
  v = SpanDurationsUs(in.all_logs, Layer::kWalCheckpoint);
  sink->Set("wal.checkpoint_ms", Quantile(v, 0.5) * 1e-3);
  sink->Set("wal.checkpoint_bytes",
            in.checkpoints > 0 ? static_cast<double>(f.checkpoint_bytes) /
                                     in.checkpoints
                               : 0.0);
  sink->Set("wal.replay_records_per_s", in.replay_records_per_s);

  sink->Set("obs.hook_us_per_decision",
            PerDecision(static_cast<double>(o.hook_ns) * 1e-3, in.decisions));
  sink->Set("obs.tenant_events_per_decision",
            PerDecision(static_cast<double>(o.tenant_events), in.decisions));

  v = SpanDurationsUs(in.all_logs, Layer::kPlatformSubmit);
  if (!v.empty()) {
    sink->Detail("platform.submit_job_us_p50", Quantile(v, 0.5), "us");
  }

  const Ledger ledger = BuildLedger(spans, in.serve_begin_ns,
                                    in.serve_end_ns, in.decisions);
  const double dispatch_us = ledger.layer_us_per_decision[static_cast<int>(
      Layer::kPlatformDispatch)];
  if (dispatch_us > 0.0) {
    // RunAsync minus every span nested in it on the dispatching thread.
    sink->Detail("platform.dispatch_self_us_per_decision", dispatch_us, "us");
  }
  sink->Set("ledger.unexplained_pct", ledger.unexplained_pct);
  sink->Set("trace.overhead_pct",
            in.untraced_decisions_per_s > 0.0
                ? 100.0 * (in.untraced_decisions_per_s -
                           in.traced_decisions_per_s) /
                      in.untraced_decisions_per_s
                : 0.0);

  // The ledger: per-decision wall time of the critical-path thread, split
  // into layer self times plus what no span explains.
  std::ostringstream table;
  char line[160];
  std::snprintf(line, sizeof(line),
                "ledger: %.3f us wall per decision over %lld decisions\n",
                ledger.wall_us_per_decision,
                static_cast<long long>(in.decisions));
  table << line;
  double total_pct = ledger.unexplained_pct;
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    const auto layer = static_cast<Layer>(l);
    const double us = ledger.layer_us_per_decision[l];
    if (us == 0.0) continue;
    total_pct += ledger.LayerPct(layer);
    std::snprintf(line, sizeof(line), "  %-20s %10.3f us %7.2f %%\n",
                  LayerName(layer), us, ledger.LayerPct(layer));
    table << line;
  }
  std::snprintf(line, sizeof(line), "  %-20s %10.3f us %7.2f %%\n",
                "unexplained", ledger.unexplained_us_per_decision,
                ledger.unexplained_pct);
  table << line;
  std::snprintf(line, sizeof(line), "  %-20s %10s    %7.2f %%\n", "total",
                "", total_pct);
  table << line;
  *notes += table.str();
}

Recovery Recover(
    const std::string& dir, int repeats, easeml::core::SelectorOptions options,
    const std::string& expected_state,
    const std::function<void(easeml::core::MultiTenantSelector&)>&
        on_recovered,
    std::vector<std::string>* problems) {
  Recovery out;
  options.wal = nullptr;
  for (int i = 0; i < repeats; ++i) {
    easeml::obs::Registry registry;
    easeml::obs::FleetObserverOptions obs_options;
    obs_options.num_shards = options.num_shards;
    obs_options.registry = &registry;
    easeml::obs::FleetObserver observer(obs_options);
    options.observer = &observer;
    const int64_t t0 = NowNs();
    auto recovered = easeml::wal::OpenOrRecover(
        easeml::wal::GetPosixFileSystem(), dir, options);
    const int64_t t1 = NowNs();
    if (!recovered.ok()) {
      problems->push_back("recovery failed: " +
                          recovered.status().ToString());
      return out;
    }
    out.seconds.push_back(static_cast<double>(t1 - t0) * 1e-9);
    out.replayed_records = recovered->stats.replayed_records;
    auto state = EncodedState(*recovered->selector);
    if (!state.ok() || *state != expected_state) {
      problems->push_back(
          "recovered engine state differs from the state before the kill");
      return out;
    }
    // Only the last recovery mutates the directory.
    if (i + 1 == repeats) on_recovered(*recovered->selector);
    recovered->selector.reset();  // before the observer it points at
  }
  return out;
}

void RetireAll(easeml::core::MultiTenantSelector& selector, int num_tenants,
               std::vector<std::string>* problems) {
  for (int t = 0; t < num_tenants; ++t) {
    ScopedSpan span(Layer::kCoreRemoveTenant);
    const Status s = selector.RemoveTenant(t);
    if (!s.ok()) {
      problems->push_back("RemoveTenant(" + std::to_string(t) +
                          ") on the recovered engine: " + s.ToString());
      return;
    }
  }
}

}  // namespace perfbench
