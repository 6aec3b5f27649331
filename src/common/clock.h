#ifndef EASEML_COMMON_CLOCK_H_
#define EASEML_COMMON_CLOCK_H_

#include <ctime>

namespace easeml {

/// The one home for raw clock reads. Everything outside `common/` that needs
/// time goes through these two functions (enforced by the `raw-clock` lint
/// rule), so the choice of clock — and any future virtualization for
/// deterministic replay — lives in exactly one place.
///
/// Two clocks, two jobs:
///  - `MonotonicSeconds()` (CLOCK_MONOTONIC) measures wall time: makespans,
///    drain stalls, refresh intervals. Advances while a thread sleeps.
///  - `ThreadCpuSeconds()` (CLOCK_THREAD_CPUTIME_ID) measures CPU time
///    consumed by the *calling thread only*: bench latencies. Immune to
///    scheduling noise on oversubscribed hosts (the bench protocol runs on
///    single-core containers), but meaningless across threads — never
///    difference readings taken on different threads.
///
/// The monotonic clock is served from the vDSO without entering the
/// kernel; the thread-CPU clock is a system call on every read, an order of
/// magnitude dearer. Library code (src/) therefore times itself on
/// `MonotonicSeconds()` only (the `thread-cpu-clock` lint rule), and the
/// thread-CPU clock is left to the benches.

/// Seconds on the monotonic wall clock. Only differences are meaningful.
inline double MonotonicSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU seconds consumed by the calling thread. Only differences taken on
/// the same thread are meaningful.
inline double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace easeml

#endif  // EASEML_COMMON_CLOCK_H_
