// Fixture: a bench outside src/ keeps its thread-CPU timer — the
// thread-cpu-clock rule must NOT fire here.
#include "common/clock.h"

double BenchMicros() {
  const double t0 = easeml::ThreadCpuSeconds();
  return (easeml::ThreadCpuSeconds() - t0) * 1e6;
}
