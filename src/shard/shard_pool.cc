#include "shard/shard_pool.h"

#include <utility>

#include "common/clock.h"
#include "common/logging.h"

namespace easeml::shard {

ShardPool::ShardPool(int num_workers) {
  EASEML_CHECK(num_workers >= 1) << "ShardPool: num_workers must be >= 1";
  cpu_seconds_.assign(num_workers, 0.0);
  slots_.reserve(num_workers);
  for (int w = 0; w < num_workers; ++w) {
    slots_.push_back(std::make_unique<Slot>());
  }
  workers_.reserve(num_workers);
  for (int w = 0; w < num_workers; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ShardPool::~ShardPool() { Shutdown(); }

void ShardPool::Shutdown() {
  {
    MutexLock lock(mu_);
    if (shutdown_) return;  // idempotent (workers already joined/joining)
    shutdown_ = true;
    for (auto& slot : slots_) slot->wake.NotifyOne();
  }
  // Workers drain their queues and any pending solo work before
  // exiting, so every accepted task runs-to-completion under Shutdown.
  for (auto& worker : workers_) worker.join();
}

bool ShardPool::RunOn(int worker, const std::function<void()>& fn) {
  EASEML_CHECK(worker >= 0 && worker < size()) << "ShardPool: bad worker";
  MutexLock lock(mu_);
  if (shutdown_) return false;  // declined: the closure will not run
  slots_[worker]->solo = &fn;
  remaining_ = 1;
  slots_[worker]->wake.NotifyOne();
  // A concurrent Shutdown() cannot strand the wait: the worker consumes
  // any pending solo before it exits, and the join happens-after that.
  while (remaining_ != 0) work_done_.Wait(lock);
  return true;
}

bool ShardPool::Enqueue(int worker, std::function<void()> fn) {
  EASEML_CHECK(worker >= 0 && worker < size()) << "ShardPool: bad worker";
  MutexLock lock(mu_);
  if (shutdown_) return false;  // declined: the task will not run
  slots_[worker]->queue.push_back(std::move(fn));
  ++queued_;
  slots_[worker]->wake.NotifyOne();
  return true;
}

void ShardPool::DrainQueues() const {
  MutexLock lock(mu_);
  while (queued_ != 0) queues_drained_.Wait(lock);
}

void ShardPool::WorkerLoop(int worker) {
  Slot& slot = *slots_[worker];
  for (;;) {
    std::function<void()> queued;  // owned: the slot entry is consumed
    const std::function<void()>* solo = nullptr;
    bool from_queue = false;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && slot.queue.empty() && slot.solo == nullptr) {
        slot.wake.Wait(lock);
      }
      if (!slot.queue.empty()) {
        // Queue tasks run first and strictly in FIFO order: the per-worker
        // queue order IS the per-tenant fold order the determinism story
        // rests on (folds were enqueued under the selector lock).
        queued = std::move(slot.queue.front());
        slot.queue.pop_front();
        from_queue = true;
      } else if (slot.solo != nullptr) {
        solo = slot.solo;
        slot.solo = nullptr;
      } else {
        return;  // shutdown with no pending work
      }
    }

    const double cpu_before = ThreadCpuSeconds();
    if (from_queue) {
      queued();
    } else {
      (*solo)();
    }
    const double cpu_after = ThreadCpuSeconds();

    {
      MutexLock lock(mu_);
      cpu_seconds_[worker] += cpu_after - cpu_before;
      if (from_queue) {
        if (--queued_ == 0) queues_drained_.NotifyAll();
      } else if (--remaining_ == 0) {
        work_done_.NotifyAll();
      }
    }
  }
}

std::vector<double> ShardPool::WorkerCpuSeconds() const {
  MutexLock lock(mu_);
  return cpu_seconds_;
}

}  // namespace easeml::shard
