#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// DEEPLEARNING surrogate, T=2000 x K=8, sequential engine, D=8, cancels,
/// checkpoints, kill + recovery.
RunResult RunFleetK8(const RunOptions& opts);

/// 179CLASSIFIER surrogate, 121 live tenants under churn, sharded engine
/// (3 shard workers), D=8, checkpoints, kill + recovery.
RunResult RunChurnK179(const RunOptions& opts);

/// EaseMlService with 3000 DSL jobs (K=8 or 40) driven by RunAsync on 3
/// workers, checkpoints, kill + recovery.
RunResult RunServiceAsync(const RunOptions& opts);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
