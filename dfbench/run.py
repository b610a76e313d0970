#!/usr/bin/env python3
"""Entry point of the dfgen end-to-end benchmark.

    python3 dfbench/run.py --workload cold_large|expr_churn|service_mix \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds dfbench/ (the library from src/ plus
the runner in dfbench/src/) into .bench_build/ on first use, then runs the workload:

* --trace 0: set-up-only processes, then one full process
  (set-up, scalar oracle, timed phase). Every process is fresh: empty
  program cache, its own empty TMPDIR (so jit compiles are really cold).
  Prints every end-to-end metric; setup_s is the median over all
  processes, first_eval_p50_ms the median over all first-seen requests.
* --trace 1: one full process in traced mode; prints the per-layer
  metrics and writes the span trace to .bench_build/traces/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. See dfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "dfbench")
WORKLOADS = ("cold_large", "expr_churn", "service_mix")

# Set-up-only processes run before the full one; setup_s is the median of
# all their set-up times and first_eval_p50_ms pools their first-seen
# requests. The counts keep the spread of both across runs within a third
# of their bounds; cold_large has only three first-seen requests per
# process but the cheapest set-up.
SETUP_PROCESSES = {"cold_large": 6, "expr_churn": 3, "service_mix": 2}
# Wall limit (s) for all runner processes of one run, counted after the
# build; the whole run must end within 180 s.
RUN_TIMEOUT = 170

# The metrics of the result line. first_eval_p50_ms is printed only: it is
# bound by jit compiles (a cc process each), whose wall time moved by a
# quarter between runs on a busy shared host; setup_s, which contains the
# same compiles, carries them.
END_TO_END = ("setup_s", "eval_p50_ms", "eval_p90_ms", "evals_per_s",
              "sim_ms_per_eval", "device_hwm_mb", "peak_rss_mb")


def fail(message, code=1):
    print("dfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    for required in ("src/CMakeLists.txt", "dfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail("missing %s: run from a dfgen checkout" % required, 2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, ".lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        commands = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", os.path.join(ROOT, "dfbench"), "-B",
                         BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            commands.append(configure)
        jobs = str(min(4, os.cpu_count() or 1))
        commands.append(["cmake", "--build", BUILD, "-j", jobs])
        for command in commands:
            result = subprocess.run(command, stdout=log,
                                    stderr=subprocess.STDOUT)
            if result.returncode != 0:
                fail("build failed (%s); see %s" % (" ".join(command),
                                                    log_path))


def child_env(tmpdir):
    # Stray DFGEN_* settings would change what is measured.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DFGEN_")}
    env["TMPDIR"] = tmpdir
    return env


def launcher():
    """setarch -R when it works here: with address-space randomisation off,
    code and heap layout (and so cache behaviour) repeat from run to run."""
    setarch = shutil.which("setarch")
    if setarch:
        command = [setarch, platform.machine(), "-R"]
        probe = subprocess.run(command + ["true"], stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL)
        if probe.returncode == 0:
            return command
    return []


def run_process(launch, args, tag, deadline):
    """Runs the runner once in a fresh TMPDIR; returns its JSON result."""
    tmpdir = os.path.join(BUILD, "tmp", "%d-%s" % (os.getpid(), tag))
    shutil.rmtree(tmpdir, ignore_errors=True)
    os.makedirs(tmpdir)
    try:
        result = subprocess.run(launch + [BINARY] + args, cwd=ROOT,
                                env=child_env(tmpdir),
                                stdout=subprocess.PIPE, text=True,
                                timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("runner processes exceeded %d s" % RUN_TIMEOUT)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        fail("runner process failed with exit code %d" % result.returncode)
    # The runner's own report goes to stderr; stdout carries the aggregate.
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    return json.loads(lines[-1])


def print_metric(name, value, unit, samples=None, note=""):
    count = " (n=%d)" % samples if samples else ""
    print("  %-28s %14.6g %-6s%s%s" % (name, value, unit, count, note))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    build()
    launch = launcher()
    deadline = time.monotonic() + RUN_TIMEOUT
    common = ["--workload", opts.workload, "--seed", str(opts.seed),
              "--seconds", repr(opts.seconds)]

    if opts.trace:
        trace_dir = os.path.join(BUILD, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_out = os.path.join(
            trace_dir, "%s-seed%d.trace.json" % (opts.workload, opts.seed))
        runs = [run_process(launch, common + ["--trace", "1", "--trace-out",
                                              trace_out], "traced", deadline)]
    else:
        runs = [run_process(launch, common + ["--setup-only"], "setup%d" % i,
                            deadline)
                for i in range(SETUP_PROCESSES[opts.workload])]
        runs.append(run_process(launch, common + ["--trace", "0"], "main",
                                deadline))
    main_run = runs[-1]

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    # Set-up-only processes have no oracle: their warm-up outputs must equal
    # the full process's, which were checked against it.
    for r in runs[:-1]:
        if r["warmup_digest"] != main_run["warmup_digest"]:
            print("FAILURE: set-up-only process warm-up outputs differ from "
                  "the checked ones")
            failed += r["attempted"]
    if main_run["first_failure"]:
        print("FIRST FAILURE (seed %d): %s" % (opts.seed,
                                               main_run["first_failure"]))

    fallbacks = max(r["jit_fallbacks"] for r in runs)
    print("== %s seed %d: backend %s, kernels.jit_fallbacks %d%s" %
          (opts.workload, opts.seed, main_run["backend"], fallbacks,
           " (WARNING: kernels ran on the VM)" if fallbacks else ""))
    print("  failed_frac %.6g (%d of %d requests)" %
          (failed / attempted if attempted else 0.0, failed, attempted))

    metrics = {}
    if opts.trace:
        for name, m in main_run["layers"].items():
            metrics[name] = {"value": m["value"], "unit": m["unit"]}
            print_metric(name, m["value"], m["unit"], m["samples"])
    else:
        setups = [r["setup_s"] for r in runs]
        first = [v for r in runs for v in r["first_eval_ms"]]
        values = {
            "setup_s": (statistics.median(setups), "s", len(setups)),
            "first_eval_p50_ms": (statistics.median(first), "ms", len(first)),
        }
        for name, m in main_run["metrics"].items():
            values[name] = (m["value"], m["unit"], m["samples"])
        for name, (value, unit, samples) in values.items():
            note = "" if name in END_TO_END else " (printed only)"
            print_metric(name, value, unit, samples, note)
        for name in END_TO_END:
            value, unit, _ = values[name]
            metrics[name] = {"value": value, "unit": unit}

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
