// fleet-k8 and churn-k179: one driver thread plays D training devices
// against the selector's ticketed Next/Report/Cancel API (closed loop: a
// device asks for work only after its previous job completed).
#include <cmath>
#include <deque>
#include <memory>

#include "common.h"
#include "common/rng.h"
#include "data/classifier179.h"
#include "data/dataset.h"
#include "data/deeplearning.h"
#include "data/model_features.h"
#include "gp/hyperparameter_tuner.h"
#include "obs/fleet_observer.h"
#include "shard/sharded_selector.h"
#include "wal/checkpoint.h"
#include "wal/selector_wal.h"
#include "workloads.h"

namespace perfbench {
namespace {

using easeml::Result;
using easeml::Status;
using easeml::StatusCode;
using easeml::core::MultiTenantSelector;
using Assignment = MultiTenantSelector::Assignment;

struct Spec {
  int devices = 8;
  int initial_tenants = 0;
  int total_tenants = 0;  // initial plus arrivals
  int budget = 0;         // models a tenant trains before it departs; 0: all
  int deadline = 0;       // decisions after arrival before it departs; 0: none
  int checkpoint_every = 0;
  double cancel_share = 0.0;
  int64_t replay_cap = 0;  // observations replayed for the gp/linalg timings
};

Spec FleetSpec(bool smoke) {
  Spec s;
  s.initial_tenants = s.total_tenants = smoke ? 60 : 2000;
  s.checkpoint_every = smoke ? 150 : 5000;
  s.cancel_share = 0.02;
  s.replay_cap = smoke ? 1000 : 16000;
  return s;
}

Spec ChurnSpec(bool smoke) {
  Spec s;
  s.initial_tenants = smoke ? 12 : 121;
  s.total_tenants = smoke ? 30 : 600;
  s.budget = smoke ? 10 : 40;
  s.deadline = smoke ? 400 : 8000;
  s.checkpoint_every = smoke ? 100 : 6000;
  s.cancel_share = 0.02;
  s.replay_cap = smoke ? 1000 : 12000;
  return s;
}

/// Everything generated from the seed before any timing starts.
struct Inputs {
  easeml::data::Dataset log;      // training log the prior is fitted on
  easeml::data::Dataset tenants;  // row t: tenant t's true accuracy / cost
  uint64_t traffic_seed = 0;      // campaign i serves traffic seed + i
};

/// The prior's training log is a fixed artifact — the surrogate's default
/// log, standing in for the service's own history — while the tenants and
/// the traffic come from `seed`.
Result<Inputs> MakeInputs(bool churn, bool smoke, uint64_t seed) {
  easeml::Rng rng(seed);
  Inputs in;
  if (churn) {
    const easeml::data::Classifier179Options log_opts;
    auto log = easeml::data::GenerateClassifier179(log_opts);
    if (!log.ok()) return log.status();
    easeml::data::Classifier179Options opts;
    opts.num_users = ChurnSpec(smoke).total_tenants;
    opts.seed = rng.NextSeed();
    auto tenants = easeml::data::GenerateClassifier179(opts);
    if (!tenants.ok()) return tenants.status();
    in.log = std::move(*log);
    in.tenants = std::move(*tenants);
  } else {
    const easeml::data::DeepLearningOptions log_opts;
    auto log = easeml::data::GenerateDeepLearning(log_opts);
    if (!log.ok()) return log.status();
    easeml::data::DeepLearningOptions opts;
    opts.num_users = FleetSpec(smoke).total_tenants;
    rng.NextSeed();
    auto tenants = easeml::data::GenerateDeepLearning(opts);
    if (!tenants.ok()) return tenants.status();
    in.log = std::move(*log);
    in.tenants = std::move(*tenants);
  }
  in.traffic_seed = rng.NextSeed();
  return in;
}

/// The prior as core::RunProtocol builds it with hyperparameter tuning
/// off: an RBF kernel (length scale 0.2, signal variance 0.05, noise 1e-3)
/// over the models' quality vectors on the log's users, with a constant
/// mean at the log's global mean quality. (Tuning by marginal likelihood
/// costs ~13 s per K=179 set-up and would swamp every other set-up cost.)
Result<std::shared_ptr<const easeml::gp::SharedGpPrior>> BuildPrior(
    const easeml::data::Dataset& log) {
  std::vector<int> users(log.num_users());
  for (int u = 0; u < log.num_users(); ++u) users[u] = u;
  auto features = easeml::data::ComputeModelFeatures(log, users);
  if (!features.ok()) return features.status();
  const double scale = 1.0 / std::sqrt(static_cast<double>(users.size()));
  for (auto& f : *features) {
    for (double& x : f) x *= scale;
  }
  auto mean = easeml::data::ComputeGlobalMeanQuality(log, users);
  if (!mean.ok()) return mean.status();
  easeml::gp::TunedHyperparameters hp;
  hp.family = easeml::gp::KernelFamily::kRbf;
  hp.length_scale = 0.2;
  hp.signal_variance = 0.05;
  hp.noise_variance = 1e-3;
  auto gram = hp.MakeKernel()->BuildGram(*features);
  if (!gram.ok()) return gram.status();
  gram->AddToDiagonal(1e-8);  // numerical jitter, as RunProtocol adds
  return easeml::gp::MakeSharedGpPrior(
      std::move(*gram), hp.noise_variance,
      std::vector<double>(log.num_models(), *mean));
}

std::vector<double> CostsOf(const easeml::data::Dataset& ds, int row) {
  std::vector<double> costs(ds.num_models());
  for (int m = 0; m < ds.num_models(); ++m) costs[m] = ds.cost(row, m);
  return costs;
}

/// One engine with its observer and WAL, in destruction-safe order: the
/// selector holds raw pointers into everything declared before it.
struct Stack {
  std::string dir;
  std::shared_ptr<const easeml::gp::SharedGpPrior> prior;
  std::unique_ptr<easeml::wal::SelectorWal> wal;
  std::unique_ptr<TracedLog> traced_log;
  std::unique_ptr<easeml::obs::Registry> registry;
  std::unique_ptr<easeml::obs::FleetObserver> observer;
  std::unique_ptr<TracedObserver> traced_observer;
  std::unique_ptr<MultiTenantSelector> selector;
  easeml::core::SelectorOptions options;  // as built, minus the seams
};

easeml::core::SelectorOptions EngineOptions(const Spec& spec) {
  easeml::core::SelectorOptions o;  // HYBRID: the shipped default
  o.num_devices = spec.devices;
  o.use_candidate_index = true;
  return o;
}

class Campaign {
 public:
  /// `completion_seed` orders the device completions and draws the
  /// cancels: the campaign's traffic.
  Campaign(const Spec& spec, const Inputs& in, uint64_t completion_seed,
           bool traced, easeml::wal::FileSystem* fs)
      : spec_(spec),
        in_(in),
        completion_seed_(completion_seed),
        traced_(traced),
        fs_(fs) {}

  /// Builds the prior and the engine, opens the WAL and registers the
  /// initial fleet. Returns the wall seconds it took.
  double Setup(const std::string& dir);
  /// Serves to exhaustion; fills the serve statistics below.
  void Serve();
  /// Flushes the log, captures the engine state, and destroys the engine
  /// (the kill). Returns the captured state.
  std::string Kill();

  const std::vector<Event>& events() const { return events_; }
  Stack& stack() { return stack_; }

  std::vector<std::string> problems;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t decisions = 0;
  int64_t next_calls = 0;
  int64_t next_refused = 0;
  int64_t serve_begin_ns = 0;
  int64_t serve_end_ns = 0;
  int64_t wal_records = 0;
  int checkpoints = 0;
  uint64_t digest = kDigestSeed;
  std::vector<double> next_us;
  std::vector<double> report_us;

 private:
  bool Check(const Status& s, const char* what);
  void Retire(int tenant);
  void Arrive();
  void AfterCompletion(int tenant);

  const Spec spec_;
  const Inputs& in_;
  const uint64_t completion_seed_;
  const bool traced_;
  easeml::wal::FileSystem* const fs_;
  Stack stack_;
  std::vector<Event> events_;
  // Per-tenant driver state, indexed by tenant id (== dataset row).
  std::vector<int> in_flight_;
  std::vector<int> reports_;
  std::vector<int64_t> arrived_at_;
  std::vector<bool> departing_;
  std::vector<bool> departed_;
  std::deque<int> arrival_order_;
  int next_row_ = 0;
};

bool Campaign::Check(const Status& s, const char* what) {
  ++attempted;
  if (s.ok()) return true;
  ++failed;
  problems.push_back(std::string(what) + ": " + s.ToString());
  return false;
}

double Campaign::Setup(const std::string& dir) {
  const int64_t t0 = NowNs();
  Stack& s = stack_;
  s.dir = dir;
  auto prior = BuildPrior(in_.log);
  if (!Check(prior.status(), "prior")) return 0.0;
  s.prior = *prior;
  easeml::wal::SelectorWalOptions wal_options;
  wal_options.durability =
      easeml::wal::SelectorWalOptions::Durability::kDeferred;
  if (!Check(fs_->CreateDir(dir), "create WAL dir")) return 0.0;
  auto wal = easeml::wal::SelectorWal::Open(fs_, easeml::wal::LogPath(dir),
                                            wal_options);
  if (!Check(wal.status(), "open WAL")) return 0.0;
  s.wal = std::move(*wal);
  s.registry = std::make_unique<easeml::obs::Registry>();
  easeml::obs::FleetObserverOptions obs_options;
  obs_options.registry = s.registry.get();
  s.observer = std::make_unique<easeml::obs::FleetObserver>(obs_options);
  s.options = EngineOptions(spec_);
  easeml::core::SelectorOptions wired = s.options;
  wired.wal = s.wal.get();
  wired.observer = s.observer.get();
  if (traced_) {
    s.traced_log = std::make_unique<TracedLog>(s.wal.get());
    s.traced_observer = std::make_unique<TracedObserver>(s.observer.get());
    wired.wal = s.traced_log.get();
    wired.observer = s.traced_observer.get();
  }
  auto selector = easeml::shard::MakeSelector(wired);
  if (!Check(selector.status(), "create selector")) return 0.0;
  s.selector = std::move(*selector);

  const int total = spec_.total_tenants;
  in_flight_.assign(total, 0);
  reports_.assign(total, 0);
  arrived_at_.assign(total, 0);
  departing_.assign(total, false);
  departed_.assign(total, false);
  for (int t = 0; t < spec_.initial_tenants; ++t) Arrive();
  return static_cast<double>(NowNs() - t0) * 1e-9;
}

void Campaign::Arrive() {
  const int row = next_row_++;
  Result<int> id = [&] {
    ScopedSpan span(Layer::kCoreAddTenant);
    return stack_.selector->AddTenant(stack_.prior, CostsOf(in_.tenants, row));
  }();
  if (!Check(id.status(), "AddTenant")) return;
  if (*id != row) problems.push_back("tenant ids are not dense");
  arrived_at_[row] = decisions;
  arrival_order_.push_back(row);
  events_.push_back({Event::kAdd, row, -1, 0.0});
}

void Campaign::Retire(int tenant) {
  {
    ScopedSpan span(Layer::kCoreRemoveTenant);
    if (!Check(stack_.selector->RemoveTenant(tenant), "RemoveTenant")) return;
  }
  departed_[tenant] = true;
  events_.push_back({Event::kRemove, tenant, -1, 0.0});
  if (next_row_ < spec_.total_tenants) Arrive();
}

/// Churn: a tenant leaves once its budget is trained or its deadline has
/// passed, and only after its tickets drained; a fresh tenant replaces it.
void Campaign::AfterCompletion(int tenant) {
  if (spec_.budget > 0 && reports_[tenant] >= spec_.budget) {
    departing_[tenant] = true;
  }
  if (departing_[tenant] && !departed_[tenant] && in_flight_[tenant] == 0) {
    Retire(tenant);
  }
  if (spec_.deadline <= 0) return;
  while (!arrival_order_.empty() && departed_[arrival_order_.front()]) {
    arrival_order_.pop_front();
  }
  if (arrival_order_.empty()) return;
  const int oldest = arrival_order_.front();
  if (decisions - arrived_at_[oldest] >= spec_.deadline) {
    departing_[oldest] = true;
    if (in_flight_[oldest] == 0) Retire(oldest);
  }
}

void Campaign::Serve() {
  MultiTenantSelector& sel = *stack_.selector;
  easeml::Rng rng(completion_seed_);
  std::vector<Assignment> flight;
  const int64_t epoch0 = stack_.wal->position().epoch;
  serve_begin_ns = NowNs();
  while (problems.empty()) {
    // Idle devices ask for work until the engine refuses (all devices
    // busy, or nothing left that is not already in flight).
    while (true) {
      ScopedSpan span(Layer::kCoreNext);
      const int64_t t0 = NowNs();
      Result<Assignment> a = sel.Next();
      const int64_t t1 = NowNs();
      ++attempted;
      ++next_calls;
      if (!a.ok()) {
        if (a.status().code() == StatusCode::kFailedPrecondition) {
          ++next_refused;  // the protocol's documented answer, not a failure
        } else {
          ++failed;
          problems.push_back("Next: " + a.status().ToString());
        }
        break;
      }
      span.set_ticket(a->id);
      next_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      digest = DigestAssignment(digest, a->tenant, a->model, a->id);
      ++in_flight_[a->tenant];
      flight.push_back(*a);
    }
    if (flight.empty()) break;

    // One device finishes; completion order is seeded.
    const int pick = rng.UniformInt(0, static_cast<int>(flight.size()) - 1);
    const Assignment a = flight[pick];
    flight[pick] = flight.back();
    flight.pop_back();
    --in_flight_[a.tenant];
    if (rng.Bernoulli(spec_.cancel_share)) {
      ScopedSpan span(Layer::kCoreCancel, a.id);
      if (!Check(sel.Cancel(a), "Cancel")) break;
    } else {
      const double accuracy = in_.tenants.quality(a.tenant, a.model);
      Status s;
      {
        ScopedSpan span(Layer::kCoreReport, a.id);
        const int64_t t0 = NowNs();
        s = sel.Report(a, accuracy);
        report_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
      }
      if (!Check(s, "Report")) break;
      ++decisions;
      ++reports_[a.tenant];
      events_.push_back({Event::kReport, a.tenant, a.model, accuracy});
      if (decisions % spec_.checkpoint_every == 0) {
        ScopedSpan span(Layer::kWalCheckpoint);
        Check(easeml::wal::CutCheckpoint(fs_, stack_.dir, stack_.wal.get(),
                                         sel, &stack_.observer->plane()),
              "CutCheckpoint");
        ++checkpoints;
      }
    }
    AfterCompletion(a.tenant);
  }
  serve_end_ns = NowNs();
  wal_records = stack_.wal->position().epoch - epoch0;
  if (problems.empty() && !sel.Exhausted()) {
    problems.push_back("serve loop stopped before the engine was exhausted");
  }
  if (problems.empty() && next_row_ != spec_.total_tenants) {
    problems.push_back("not every arrival was served");
  }
}

std::string Campaign::Kill() {
  std::string state;
  if (problems.empty()) {
    Check(stack_.wal->SyncHard(), "SyncHard");
    auto encoded = EncodedState(*stack_.selector);
    if (Check(encoded.status(), "CaptureDurableState")) state = *encoded;
  }
  stack_.selector.reset();
  stack_.traced_observer.reset();
  stack_.observer.reset();
  stack_.traced_log.reset();
  stack_.wal.reset();
  return state;
}

/// Best accuracy each tenant can reach: its dataset maximum.
std::vector<double> Ceilings(const easeml::data::Dataset& ds) {
  std::vector<double> out(ds.num_users());
  for (int t = 0; t < ds.num_users(); ++t) out[t] = ds.BestQuality(t);
  return out;
}

/// Correctness after exhaustion: every (tenant, model) reported at most
/// once — exactly once per model when tenants run to exhaustion — and
/// BestAccuracy equal to the best reported (and, at exhaustion, to the
/// dataset maximum).
void CheckCampaign(const Spec& spec, const Inputs& in, Campaign& c) {
  if (!c.problems.empty()) return;
  const MultiTenantSelector& sel = *c.stack().selector;
  const int k = in.tenants.num_models();
  std::vector<int> expected(spec.total_tenants, spec.budget > 0 ? 0 : k);
  CheckReports(c.events(), sel, expected, &c.problems);
  if (spec.budget > 0) return;
  for (int t = 0; t < spec.total_tenants && c.problems.empty(); ++t) {
    if (*sel.BestAccuracy(t) != in.tenants.BestQuality(t)) {
      c.problems.push_back("tenant " + std::to_string(t) +
                           " BestAccuracy is not its dataset maximum");
    }
  }
}

/// Runs one campaign end to end: setup, serve, checks and — with `recover`
/// — the kill and the timed recoveries (the trace run's untraced campaigns
/// only need their decision rate and digest). A traced
/// campaign passes `counting` (the filesystem it runs on) and `layers`,
/// which receives what the decorators collected.
CampaignFigures RunCampaign(const Spec& spec, const Inputs& in,
                            bool recover, const std::string& dir,
                            CountingFileSystem* counting, LayerInputs* layers,
                            RunResult* result, Campaign* c) {
  CampaignFigures f;
  f.setup_s = c->Setup(dir);
  if (counting != nullptr) counting->TakeStats();  // set-up is not serving
  if (c->problems.empty()) c->Serve();
  CheckCampaign(spec, in, *c);
  f.serve_s = static_cast<double>(c->serve_end_ns - c->serve_begin_ns) * 1e-9;
  f.decisions = c->decisions;
  f.next_us = c->next_us;
  f.report_us = c->report_us;
  f.regret_auc = RegretAuc(c->events(), Ceilings(in.tenants));
  f.digest = c->digest;
  if (layers != nullptr) {
    layers->fs = counting->TakeStats();
    layers->observer = c->stack().traced_observer->TakeStats();
    layers->serve_begin_ns = c->serve_begin_ns;
    layers->serve_end_ns = c->serve_end_ns;
    layers->decisions = c->decisions;
    layers->next_calls = c->next_calls;
    layers->next_refused = c->next_refused;
    layers->wal_records = c->wal_records;
    layers->checkpoints = c->checkpoints;
    const std::shared_ptr<const easeml::gp::SharedGpPrior> prior =
        c->stack().prior;
    layers->replay = ReplayBeliefs(
        c->events(), [&](int) { return prior; }, spec.replay_cap);
  }
  const easeml::core::SelectorOptions options = c->stack().options;
  const std::string state = c->Kill();
  if (recover && c->problems.empty()) {
    const Recovery rec = Recover(
        dir, kRecoveries, options, state,
        [&](MultiTenantSelector& sel) {
          // The recovered engine must serve on: retire the tenants still
          // live (each append lands in the resumed log).
          if (spec.budget == 0) {
            RetireAll(sel, spec.total_tenants, &c->problems);
          }
        },
        &c->problems);
    f.recover_s = rec.seconds;
    if (layers != nullptr) {
      layers->replay_records_per_s =
          Rate(rec.replayed_records, Median(rec.seconds));
    }
  }
  RemoveTree(dir);
  result->attempted += c->attempted;
  result->failed += c->failed;
  result->problems.insert(result->problems.end(), c->problems.begin(),
                          c->problems.end());
  return f;
}

RunResult RunSelectorWorkload(const RunOptions& opts, bool churn) {
  RunResult result;
  const Spec spec = churn ? ChurnSpec(opts.smoke) : FleetSpec(opts.smoke);
  auto inputs = MakeInputs(churn, opts.smoke, opts.seed);
  if (!inputs.ok()) {
    result.problems.push_back("inputs: " + inputs.status().ToString());
    return result;
  }
  easeml::wal::FileSystem* posix = easeml::wal::GetPosixFileSystem();
  MetricSink sink;
  int dirs = 0;
  auto next_dir = [&] {
    return opts.work_dir + "/campaign" + std::to_string(dirs++);
  };
  auto traffic = [&](int i) { return inputs->traffic_seed + i; };

  if (!opts.trace) {
    MeasureEndToEnd(
        opts.seconds, opts.smoke ? 1 : 3,
        [&](int i) {
          Campaign c(spec, *inputs, traffic(i), /*traced=*/false, posix);
          return RunCampaign(spec, *inputs, true, next_dir(), nullptr, nullptr,
                             &result, &c);
        },
        [&] { return result.problems.empty(); }, &sink, &result.notes);
  } else {
    MeasurePerLayer(
        opts,
        [&](CountingFileSystem* counting, LayerInputs* layers) {
          const bool traced = counting != nullptr;
          Campaign c(spec, *inputs, traffic(1), traced,
                     traced ? counting : posix);
          return RunCampaign(spec, *inputs, traced, next_dir(), counting,
                             layers, &result, &c);
        },
        &sink, &result);
  }
  sink.Emit(opts.trace, &result);
  return result;
}

}  // namespace

RunResult RunFleetK8(const RunOptions& opts) {
  return RunSelectorWorkload(opts, /*churn=*/false);
}

RunResult RunChurnK179(const RunOptions& opts) {
  return RunSelectorWorkload(opts, /*churn=*/true);
}

}  // namespace perfbench
