// Fixture: library code under src/ reading the thread-CPU clock
// (thread-cpu-clock), including one reasoned suppression.
#include "common/clock.h"

double PhaseMicros() {
  const double t0 = easeml::ThreadCpuSeconds();
  return (easeml::MonotonicSeconds() - t0) * 1e6;
}

double SuppressedMicros() {
  // easeml-lint: allow(thread-cpu-clock) fixture proves suppressions work
  return easeml::ThreadCpuSeconds() * 1e6;
}
