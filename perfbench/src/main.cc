// Entry point: perfbench --workload <name> --seed <n> --seconds <s>
//                        --trace <0|1> --scratch <dir> [--trace-out <file>]
//                        [--smoke]
//
// Prints the run facts, every metric with its unit and the ledger on
// stderr, and one JSON result as the last line of stdout. Exits 1 when a
// correctness check failed, 2 on bad usage or a non-Release build.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fleet-k8|churn-k179|service-async --seed N --seconds S "
               "--trace 0|1 --scratch DIR [--trace-out FILE] [--smoke]\n",
               msg);
  return 2;
}

/// JSON number with every digit of the measurement.
std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(const RunResult& r) {
  std::string json = "{\"correct\": ";
  json += r.problems.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            Number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  std::string scratch;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      opts.smoke = true;
    } else if (arg == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opts.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opts.trace = std::string(argv[++i]) == "1";
      have_trace = true;
    } else if (arg == "--scratch" && has_value) {
      scratch = argv[++i];
    } else if (arg == "--trace-out" && has_value) {
      opts.trace_path = argv[++i];
    } else {
      return Usage(("unknown or incomplete argument " + arg).c_str());
    }
  }
  RunResult (*run)(const RunOptions&) = nullptr;
  if (opts.workload == "fleet-k8") run = perfbench::RunFleetK8;
  if (opts.workload == "churn-k179") run = perfbench::RunChurnK179;
  if (opts.workload == "service-async") run = perfbench::RunServiceAsync;
  if (run == nullptr) return Usage("unknown workload");
  if (!have_trace || scratch.empty() || !(opts.seconds > 0.0)) {
    return Usage("--trace, --scratch and a positive --seconds are required");
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  // A fresh directory per run for the WAL and checkpoints, removed at exit.
  std::string pattern = scratch + "/run-XXXXXX";
  if (mkdtemp(pattern.data()) == nullptr) {
    std::perror("perfbench: mkdtemp");
    return 2;
  }
  opts.work_dir = pattern;
  std::fprintf(stderr,
               "facts: workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
               "compiler=\"%s\" build_type=%s wal_fs=%s\n",
               opts.workload.c_str(),
               static_cast<unsigned long long>(opts.seed), opts.seconds,
               opts.trace ? 1 : 0, std::thread::hardware_concurrency(),
               __VERSION__, PERFBENCH_BUILD_TYPE,
               perfbench::FsTypeName(opts.work_dir).c_str());

  const RunResult result = run(opts);
  perfbench::RemoveTree(opts.work_dir);

  std::fputs(result.notes.c_str(), stderr);
  for (const perfbench::Metric& m : result.metrics) {
    std::fprintf(stderr, "%-40s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  for (const perfbench::Metric& m : result.details) {
    std::fprintf(stderr, "%-40s %16.6f %s   (this workload only)\n",
                 m.name.c_str(), m.value, m.unit.c_str());
  }
  const double error_rate =
      result.attempted > 0
          ? static_cast<double>(result.failed) / result.attempted
          : 0.0;
  std::fprintf(stderr, "%-40s %16.6f ratio   (%lld of %lld operations)\n",
               "error_rate", error_rate,
               static_cast<long long>(result.failed),
               static_cast<long long>(result.attempted));
  for (const std::string& p : result.problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  }
  PrintResult(result);
  return result.problems.empty() ? 0 : 1;
}
