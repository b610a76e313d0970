// The benchmark's three workloads and what one run of them reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the timed phase (split evenly between an untraced and a
  /// traced half in traced mode).
  double seconds = 10.0;
  bool trace = false;
  /// Stop after set-up: no oracle, no timed phase. dfbench/run.py runs
  /// extra set-up-only processes to take the median set-up time.
  bool setup_only = false;
  /// Traced mode: where the Chrome-trace JSON of the spans goes.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Samples behind the value (0 when it is a count or a single reading).
  std::size_t samples = 0;
};

struct RunResult {
  /// The backend the engines armed, and the jit module cache's verdict.
  std::string backend;
  std::uint64_t jit_compiles = 0;
  std::uint64_t jit_fallbacks = 0;
  double setup_s = 0.0;
  /// Latency of every request whose expression was new to the process.
  std::vector<double> first_eval_ms;
  /// Checksum over every warm-up output, in order: set-up-only processes
  /// are checked against the main process, whose warm-up outputs are
  /// compared with the oracle.
  std::uint64_t warmup_digest = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string first_failure;
  /// End-to-end metrics of the timed phase (untraced).
  std::vector<Metric> metrics;
  /// Per-layer metrics (traced mode only).
  std::vector<Metric> layers;
};

bool known_workload(const std::string& name);
RunResult run_workload(const RunOptions& options);

}  // namespace dfbench
