/// Concurrency battery for `platform::AsyncTrainingExecutor` and the
/// end-to-end `EaseMlService::RunAsync` pipeline. The stress tests hammer
/// the pool from multiple producer threads with jittered task durations —
/// run them under the TSan tier-1 leg (`scripts/tier1.sh tsan`) to race
/// the queue, completion, and shutdown paths.
#include "platform/async_executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "platform/service.h"

namespace easeml::platform {
namespace {

constexpr char kImageProgram[] =
    "{input: {[Tensor[256,256,3]], []}, output: {[Tensor[3]], []}}";

ModelInfo AnyModel() {
  auto info = ModelRegistry::Builtin().Find("ResNet-50");
  EXPECT_TRUE(info.ok());
  return *info;
}

AsyncTrainingJob MakeJob(int64_t id, const ModelInfo& model,
                         double num_examples = 500.0) {
  AsyncTrainingJob job;
  job.job_id = id;
  job.model = model;
  job.candidate = CandidateModel{model.name, false, 0.0};
  job.profile.difficulty = 0.8;
  job.profile.num_examples = num_examples;
  job.profile.dynamic_range = 100.0;
  return job;
}

std::unique_ptr<AsyncTrainingExecutor> MakePool(int workers,
                                                double dilation = 0.0) {
  AsyncTrainingExecutor::Options opts;
  opts.num_workers = workers;
  opts.executor.seed = 7;
  opts.seconds_per_cost_unit = dilation;
  auto pool = AsyncTrainingExecutor::Create(opts);
  EXPECT_TRUE(pool.ok());
  return std::move(pool).value();
}

TEST(AsyncExecutorTest, CreateValidatesOptions) {
  AsyncTrainingExecutor::Options opts;
  opts.num_workers = 0;
  EXPECT_FALSE(AsyncTrainingExecutor::Create(opts).ok());
  opts.num_workers = 2;
  opts.seconds_per_cost_unit = -1.0;
  EXPECT_FALSE(AsyncTrainingExecutor::Create(opts).ok());
}

TEST(AsyncExecutorTest, CompletionsArriveExactlyOnce) {
  const ModelInfo model = AnyModel();
  auto pool = MakePool(4);
  constexpr int kJobs = 64;
  for (int i = 0; i < kJobs; ++i) {
    ASSERT_TRUE(pool->Submit(MakeJob(i, model)).ok());
  }
  std::set<int64_t> seen;
  for (int i = 0; i < kJobs; ++i) {
    auto done = pool->WaitCompletion();
    ASSERT_TRUE(done.ok());
    ASSERT_TRUE(done->status.ok()) << done->status.ToString();
    EXPECT_TRUE(seen.insert(done->job_id).second)
        << "duplicate completion for job " << done->job_id;
    EXPECT_GE(done->worker, 0);
    EXPECT_LT(done->worker, 4);
    EXPECT_GE(done->outcome.accuracy, 0.0);
    EXPECT_LE(done->outcome.accuracy, 1.0);
    EXPECT_GT(done->outcome.duration, 0.0);
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kJobs));
  EXPECT_EQ(pool->outstanding(), 0);
  EXPECT_FALSE(pool->WaitCompletion().ok());  // drained
  EXPECT_GT(pool->SimulatedBusyTime(), 0.0);
  EXPECT_GE(pool->SimulatedBusyTime(), pool->SimulatedMakespan());
}

TEST(AsyncExecutorTest, PerJobTrainErrorsArePropagatedNotFatal) {
  const ModelInfo model = AnyModel();
  auto pool = MakePool(2);
  AsyncTrainingJob bad = MakeJob(1, model);
  bad.profile.num_examples = -5.0;  // Train() rejects this profile
  ASSERT_TRUE(pool->Submit(bad).ok());
  ASSERT_TRUE(pool->Submit(MakeJob(2, model)).ok());
  int failed = 0, succeeded = 0;
  for (int i = 0; i < 2; ++i) {
    auto done = pool->WaitCompletion();
    ASSERT_TRUE(done.ok());
    if (done->status.ok()) {
      ++succeeded;
    } else {
      ++failed;
      EXPECT_EQ(done->job_id, 1);
    }
  }
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(succeeded, 1);
}

TEST(AsyncExecutorTest, ShutdownDrainsQueuedJobs) {
  const ModelInfo model = AnyModel();
  auto pool = MakePool(2);
  constexpr int kJobs = 32;
  for (int i = 0; i < kJobs; ++i) {
    ASSERT_TRUE(pool->Submit(MakeJob(i, model)).ok());
  }
  pool->Shutdown();  // must process everything already queued
  EXPECT_FALSE(pool->Submit(MakeJob(99, model)).ok());
  int drained = 0;
  while (auto done = pool->TryNextCompletion()) {
    EXPECT_TRUE(done->status.ok());
    ++drained;
  }
  EXPECT_EQ(drained, kJobs);
}

TEST(AsyncExecutorTest, SingleWorkerIsDeterministic) {
  const ModelInfo model = AnyModel();
  std::vector<double> accuracies[2];
  for (int run = 0; run < 2; ++run) {
    auto pool = MakePool(1);
    for (int i = 0; i < 16; ++i) {
      ASSERT_TRUE(pool->Submit(MakeJob(i, model, 100.0 + 40.0 * i)).ok());
    }
    for (int i = 0; i < 16; ++i) {
      auto done = pool->WaitCompletion();
      ASSERT_TRUE(done.ok());
      ASSERT_TRUE(done->status.ok());
      EXPECT_EQ(done->job_id, i);  // FIFO with one worker
      accuracies[run].push_back(done->outcome.accuracy);
    }
  }
  EXPECT_EQ(accuracies[0], accuracies[1]);  // bit-identical RNG streams
}

TEST(AsyncExecutorStressTest, ConcurrentProducersAndJitteredDurations) {
  const ModelInfo model = AnyModel();
  // Small real-time dilation so runs genuinely overlap and finish out of
  // submission order; durations are jittered through the example count.
  auto pool = MakePool(4, /*dilation=*/2e-7);
  constexpr int kProducers = 3;
  constexpr int kJobsPerProducer = 40;
  std::atomic<int> submit_failures{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kJobsPerProducer; ++i) {
        const int64_t id = p * kJobsPerProducer + i;
        const double jitter = 50.0 + 97.0 * ((id * 13) % 23);
        if (!pool->Submit(MakeJob(id, model, jitter)).ok()) {
          ++submit_failures;
        }
      }
    });
  }
  // Drain from the main thread while producers are still submitting. A
  // fast consumer can transiently observe an empty pool (nothing
  // outstanding between two submissions) — that surfaces as a clean
  // FailedPrecondition, not a hang, and the drain simply retries. The
  // target is the ACCEPTED submissions (failures only ever lower it), so a
  // refused Submit fails the EXPECTs below instead of hanging the drain.
  std::set<int64_t> seen;
  bool bad_completion = false;
  while (seen.size() < static_cast<size_t>(kProducers * kJobsPerProducer -
                                           submit_failures.load())) {
    auto done = pool->WaitCompletion();
    if (!done.ok()) {
      std::this_thread::yield();
      continue;
    }
    bad_completion |= !done->status.ok() || !seen.insert(done->job_id).second;
  }
  for (auto& t : producers) t.join();
  EXPECT_FALSE(bad_completion) << "failed or duplicate completion";
  EXPECT_EQ(submit_failures.load(), 0);
  EXPECT_EQ(seen.size(),
            static_cast<size_t>(kProducers * kJobsPerProducer));
  EXPECT_EQ(pool->outstanding(), 0);
}

TEST(AsyncExecutorStressTest, ShutdownRacesActiveWorkers) {
  const ModelInfo model = AnyModel();
  for (int round = 0; round < 8; ++round) {
    auto pool = MakePool(3, /*dilation=*/1e-7);
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(pool->Submit(MakeJob(i, model, 200.0 + 50.0 * i)).ok());
    }
    // Destructor-driven shutdown must drain and join without losing a job.
    pool->Shutdown();
    int drained = 0;
    while (pool->TryNextCompletion()) ++drained;
    EXPECT_EQ(drained, 12);
  }
}

TEST(AsyncServiceTest, RunAsyncDrivesTaskPoolToDone) {
  EaseMlService::Options opts;
  opts.seed = 3;
  opts.selector.seed = 3;
  opts.selector.num_devices = 4;
  auto service = EaseMlService::Create(opts);
  ASSERT_TRUE(service.ok());
  for (int j = 0; j < 3; ++j) {
    ASSERT_TRUE(service->SubmitJob(kImageProgram).ok());
    ASSERT_TRUE(service->Feed(j, 200 + 100 * j).ok());
  }
  auto report = service->RunAsync();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(service->Exhausted());
  EXPECT_EQ(report->num_workers, 4);
  EXPECT_EQ(report->steps, 24);  // 3 jobs x 8 CNN candidates
  EXPECT_GT(report->simulated_busy_time, 0.0);
  EXPECT_GE(report->simulated_busy_time, report->simulated_makespan);
  for (int j = 0; j < 3; ++j) {
    auto infer = service->Infer(j);
    ASSERT_TRUE(infer.ok());
    EXPECT_GT(infer->accuracy, 0.0);
    EXPECT_EQ(infer->rounds_served, 8);
  }
}

TEST(AsyncServiceTest, SingleDeviceRunAsyncMatchesSequentialStepLoop) {
  // The end-to-end determinism claim: with one device and one worker the
  // async pipeline consumes the exact RNG stream of the sequential Step
  // loop, so every task's accuracy and duration is bit-identical.
  EaseMlService::Options opts;
  opts.seed = 11;
  opts.selector.seed = 11;
  auto sequential = EaseMlService::Create(opts);
  auto async = EaseMlService::Create(opts);
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(async.ok());
  for (auto* service : {&*sequential, &*async}) {
    ASSERT_TRUE(service->SubmitJob(kImageProgram).ok());
    ASSERT_TRUE(service->SubmitJob(kImageProgram).ok());
    ASSERT_TRUE(service->Feed(0, 300).ok());
    ASSERT_TRUE(service->Feed(1, 700).ok());
  }
  int sequential_steps = 0;
  while (!sequential->Exhausted()) {
    ASSERT_TRUE(sequential->Step().ok());
    ++sequential_steps;
  }
  auto report = async->RunAsync();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->steps, sequential_steps);
  for (int task = 0; task < 16; ++task) {
    auto a = sequential->TaskInfo(task);
    auto b = async->TaskInfo(task);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->state, TaskState::kDone);
    EXPECT_EQ(b->state, TaskState::kDone);
    EXPECT_EQ(a->accuracy, b->accuracy);  // bit-identical
    EXPECT_EQ(a->duration, b->duration);
  }
}

}  // namespace
}  // namespace easeml::platform
