#!/usr/bin/env python3
"""End-to-end benchmark of the ease.ml serving stack.

Builds the benchmark (Release) from source into .bench_build at the
repository root, then runs one workload:

  python3 perfbench/run.py --workload fleet-k8 --seed 1 --seconds 10 --trace 0

The last line of stdout is the JSON result; metrics with units, the run
facts and (with --trace 1) the per-layer ledger go to stderr.

  python3 perfbench/run.py --selftest

checks the span arithmetic and runs every workload at smoke size, untraced
and traced, against the metric lists in BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet-k8", "churn-k179", "service-async")
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.join(ROOT,
                        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures and builds the benchmark; build output goes to stderr."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs, "--target", "perfbench",
         "perfbench_selftest"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return out


def run_workload(out, workload, seed, seconds, trace, smoke=False):
    scratch = os.path.join(out, "tmp")
    traces = os.path.join(out, "traces")
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--scratch", scratch]
    if trace:
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%s.json" % (workload, seed))]
    if smoke:
        cmd.append("--smoke")
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)


def selftest(out):
    if subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode:
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_workload(out, name, 3, 0.01, trace, smoke=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            ok = (proc.returncode == 0 and result["correct"]
                  and result["failed"] == 0 and result["attempted"] > 0
                  and got == want)
            print("%-14s trace=%d smoke run: %s" %
                  (name, trace, "ok" if ok else "FAILED"), file=sys.stderr)
            failures += not ok
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    out = build()
    if args.selftest:
        return selftest(out)
    proc = run_workload(out, args.workload, args.seed, args.seconds,
                        args.trace)
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
