// service-async: the platform path. Jobs arrive through the Figure-2 DSL,
// are fed, and one EaseMlService::RunAsync campaign trains every candidate
// on 3 simulated devices (zero-duration training, so the serving stack is
// the whole cost).
#include <map>
#include <memory>

#include "common.h"
#include "common/rng.h"
#include "linalg/matrix.h"
#include "obs/fleet_observer.h"
#include "platform/service.h"
#include "wal/checkpoint.h"
#include "wal/selector_wal.h"
#include "workloads.h"

namespace perfbench {
namespace {

using easeml::Result;
using easeml::Status;
using easeml::platform::EaseMlService;

constexpr int kWorkers = 3;
constexpr int kDevices = 8;

struct Job {
  std::string program;
  double dynamic_range = 100.0;
  int examples = 0;
};

struct Inputs {
  std::vector<Job> jobs;
  uint64_t service_seed = 0;
};

/// The three image schemas of examples/image_classification_service.cpp,
/// each with a narrow and a wide input range (the wide one gets
/// normalization candidates): six job kinds in equal numbers and a fixed
/// interleaved order, so every seed serves the same K sequence. The seed
/// draws how many examples each job is fed and seeds the simulated
/// training.
Inputs MakeInputs(bool smoke, uint64_t seed) {
  static const char* const kSchemas[] = {
      "{input: {[Tensor[256,256,3]], []}, output: {[Tensor[3]], []}}",
      "{input: {[Tensor[128,128,3]], []}, output: {[Tensor[10]], []}}",
      "{input: {[Tensor[64,64,3]], []}, output: {[Tensor[2]], []}}",
  };
  easeml::Rng rng(seed);
  Inputs in;
  const int jobs = smoke ? 42 : 3000;
  for (int j = 0; j < jobs; ++j) {
    Job job;
    job.program = kSchemas[j % 3];
    job.dynamic_range = (j / 3) % 2 == 0 ? 100.0 : 1e4;
    job.examples = rng.UniformInt(200, 3000);
    in.jobs.push_back(std::move(job));
  }
  in.service_seed = rng.NextSeed();
  return in;
}

/// One service with its engine, observer and WAL; members are declared so
/// that everything the selector points into outlives it.
struct Stack {
  std::string dir;
  std::unique_ptr<easeml::wal::SelectorWal> wal;
  std::unique_ptr<TracedLog> traced_log;
  std::unique_ptr<easeml::obs::Registry> registry;
  std::unique_ptr<easeml::obs::FleetObserver> observer;
  std::unique_ptr<TracedObserver> traced_observer;
  std::unique_ptr<EaseMlService> service;
  TimedSelector* selector = nullptr;  // owned by `service`
  easeml::core::SelectorOptions options;  // as built, minus the seams
};

class Campaign {
 public:
  Campaign(const Inputs& in, bool traced, easeml::wal::FileSystem* fs)
      : in_(in), traced_(traced), fs_(fs) {}

  double Setup(const std::string& dir);
  void Serve();
  std::string Kill();
  void Check();

  Stack& stack() { return stack_; }

  std::vector<std::string> problems;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t serve_begin_ns = 0;
  int64_t serve_end_ns = 0;
  int64_t wal_records = 0;
  int checkpoints = 0;
  TimedSelector::Samples samples;  // moved out of the selector at Kill
  std::vector<double> ceilings;    // final BestAccuracy per job

 private:
  bool Ok(const Status& s, const char* what);

  const Inputs& in_;
  const bool traced_;
  easeml::wal::FileSystem* const fs_;
  Stack stack_;
};

bool Campaign::Ok(const Status& s, const char* what) {
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
  easeml::wal::SelectorWalOptions wal_options;
  wal_options.durability =
      easeml::wal::SelectorWalOptions::Durability::kDeferred;
  if (!Ok(fs_->CreateDir(dir), "create WAL dir")) return 0.0;
  auto wal = easeml::wal::SelectorWal::Open(fs_, easeml::wal::LogPath(dir),
                                            wal_options);
  if (!Ok(wal.status(), "open WAL")) return 0.0;
  s.wal = std::move(*wal);
  s.registry = std::make_unique<easeml::obs::Registry>();
  easeml::obs::FleetObserverOptions obs_options;
  obs_options.registry = s.registry.get();
  s.observer = std::make_unique<easeml::obs::FleetObserver>(obs_options);
  s.options.num_devices = kDevices;  // HYBRID, the shipped default
  s.options.use_candidate_index = true;
  EaseMlService::Options service_options;
  service_options.selector = s.options;
  service_options.selector.wal = s.wal.get();
  service_options.selector.observer = s.observer.get();
  if (traced_) {
    s.traced_log = std::make_unique<TracedLog>(s.wal.get());
    s.traced_observer = std::make_unique<TracedObserver>(s.observer.get());
    service_options.selector.wal = s.traced_log.get();
    service_options.selector.observer = s.traced_observer.get();
  }
  service_options.seed = in_.service_seed;
  service_options.metrics = s.registry.get();
  std::unique_ptr<TimedSelector> selector =
      TimedSelector::Create(service_options.selector);
  if (selector == nullptr) {
    Ok(Status::Internal("TimedSelector::Create refused the options"),
       "create selector");
    return 0.0;
  }
  s.selector = selector.get();
  auto service =
      EaseMlService::CreateWithSelector(service_options, std::move(selector));
  if (!Ok(service.status(), "create service")) return 0.0;
  s.service = std::make_unique<EaseMlService>(std::move(*service));
  // Checkpoints at a fixed decision cadence, cut between two completions
  // while the dispatch loop holds the engine.
  s.selector->SetAfterReport(10000, [this] {
    ScopedSpan span(Layer::kWalCheckpoint);
    Ok(easeml::wal::CutCheckpoint(fs_, stack_.dir, stack_.wal.get(),
                                  *stack_.selector, &stack_.observer->plane()),
       "CutCheckpoint");
    ++checkpoints;
  });
  for (const Job& job : in_.jobs) {
    ScopedSpan span(Layer::kPlatformSubmit);
    Result<int> id = s.service->SubmitJob(job.program, job.dynamic_range);
    if (!Ok(id.status(), "SubmitJob")) break;
    if (!Ok(s.service->Feed(*id, job.examples), "Feed")) break;
  }
  return static_cast<double>(NowNs() - t0) * 1e-9;
}

void Campaign::Serve() {
  const int64_t epoch0 = stack_.wal->position().epoch;
  serve_begin_ns = NowNs();
  {
    ScopedSpan span(Layer::kPlatformDispatch);
    Ok(stack_.service->RunAsync(kWorkers, 0.0).status(), "RunAsync");
  }
  serve_end_ns = NowNs();
  wal_records = stack_.wal->position().epoch - epoch0;
  if (problems.empty() && !stack_.service->Exhausted()) {
    problems.push_back("RunAsync returned before every job was exhausted");
  }
}

/// Every candidate of every job reported exactly once; BestAccuracy is the
/// best reported accuracy and what `infer` serves.
void Campaign::Check() {
  if (!problems.empty()) return;
  EaseMlService& service = *stack_.service;
  const int jobs = service.num_jobs();
  std::vector<int> expected(jobs, 0);
  ceilings.assign(jobs, 0.0);
  for (int j = 0; j < jobs; ++j) {
    auto candidates = service.Candidates(j);
    if (!candidates.ok()) {
      problems.push_back("Candidates: " + candidates.status().ToString());
      return;
    }
    expected[j] = static_cast<int>(candidates->size());
    ceilings[j] = *stack_.selector->BestAccuracy(j);
    auto infer = service.Infer(j);
    if (!infer.ok() || infer->accuracy != ceilings[j]) {
      problems.push_back("Infer of job " + std::to_string(j) +
                         " differs from its BestAccuracy");
      return;
    }
  }
  CheckReports(stack_.selector->samples().events, *stack_.selector, expected,
               &problems);
}

std::string Campaign::Kill() {
  std::string state;
  if (stack_.selector != nullptr) {
    samples = std::move(stack_.selector->samples());
    attempted += samples.next_calls + samples.other_calls;
    failed += samples.failed;
    if (samples.failed > 0) {
      problems.push_back("selector calls failed inside RunAsync");
    }
  }
  if (problems.empty()) {
    Ok(stack_.wal->SyncHard(), "SyncHard");
    auto encoded = EncodedState(*stack_.selector);
    if (Ok(encoded.status(), "CaptureDurableState")) state = *encoded;
  }
  stack_.service.reset();
  stack_.selector = nullptr;
  stack_.traced_observer.reset();
  stack_.observer.reset();
  stack_.traced_log.reset();
  stack_.wal.reset();
  return state;
}

/// Setup, serve, checks and — with `recover` — the kill and the timed
/// recoveries. A traced campaign passes `counting` and `layers`.
CampaignFigures RunCampaign(bool recover, const std::string& dir,
                            CountingFileSystem* counting, LayerInputs* layers,
                            RunResult* result, Campaign* c) {
  CampaignFigures f;
  f.setup_s = c->Setup(dir);
  if (counting != nullptr) counting->TakeStats();  // set-up is not serving
  if (c->problems.empty()) c->Serve();
  c->Check();
  if (layers != nullptr) {
    layers->fs = counting->TakeStats();
    layers->observer = c->stack().traced_observer->TakeStats();
  }
  const easeml::core::SelectorOptions options = c->stack().options;
  const std::string state = c->Kill();
  const TimedSelector::Samples& samples = c->samples;
  f.serve_s = static_cast<double>(c->serve_end_ns - c->serve_begin_ns) * 1e-9;
  f.decisions = static_cast<int64_t>(samples.report_us.size());
  f.next_us = samples.next_us;
  f.report_us = samples.report_us;
  if (c->problems.empty()) {
    f.regret_auc = RegretAuc(samples.events, c->ceilings);
  }
  if (layers != nullptr) {
    layers->serve_begin_ns = c->serve_begin_ns;
    layers->serve_end_ns = c->serve_end_ns;
    layers->decisions = f.decisions;
    layers->next_calls = samples.next_calls;
    layers->next_refused = samples.next_refused;
    layers->wal_records = c->wal_records;
    layers->checkpoints = c->checkpoints;
    // Every job runs the service's default prior: an identity Gram over
    // its K candidates.
    std::map<std::pair<int, double>,
             std::shared_ptr<const easeml::gp::SharedGpPrior>>
        priors;
    layers->replay = ReplayBeliefs(
        samples.events,
        [&](int tenant) {
          const std::pair<int, double> shape = samples.shapes[tenant];
          std::shared_ptr<const easeml::gp::SharedGpPrior>& prior =
              priors[shape];
          if (prior == nullptr) {
            prior = *easeml::gp::MakeSharedGpPrior(
                easeml::linalg::Matrix::Identity(shape.first), shape.second);
          }
          return prior;
        },
        20000);
  }
  if (recover && c->problems.empty()) {
    const int jobs = static_cast<int>(c->ceilings.size());
    const Recovery rec = Recover(
        dir, kRecoveries, options, state,
        [&](easeml::core::MultiTenantSelector& sel) {
          // The recovered engine must serve on: retire every job (each
          // append lands in the resumed log).
          RetireAll(sel, jobs, &c->problems);
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

}  // namespace

RunResult RunServiceAsync(const RunOptions& opts) {
  RunResult result;
  const Inputs inputs = MakeInputs(opts.smoke, opts.seed);
  easeml::wal::FileSystem* posix = easeml::wal::GetPosixFileSystem();
  MetricSink sink;
  int dirs = 0;
  auto next_dir = [&] {
    return opts.work_dir + "/campaign" + std::to_string(dirs++);
  };

  if (!opts.trace) {
    MeasureEndToEnd(
        opts.seconds, opts.smoke ? 1 : 3,
        [&](int) {
          Campaign c(inputs, false, posix);
          return RunCampaign(true, next_dir(), nullptr, nullptr, &result, &c);
        },
        [&] { return result.problems.empty(); }, &sink, &result.notes);
  } else {
    MeasurePerLayer(
        opts,
        [&](CountingFileSystem* counting, LayerInputs* layers) {
          const bool traced = counting != nullptr;
          Campaign c(inputs, traced, traced ? counting : posix);
          return RunCampaign(traced, next_dir(), counting, layers, &result,
                             &c);
        },
        &sink, &result);
  }
  sink.Emit(opts.trace, &result);
  return result;
}

}  // namespace perfbench
