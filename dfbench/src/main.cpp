// dfbench: runs one workload of the dfgen end-to-end benchmark.
//
//   dfbench --workload cold_large|expr_churn|service_mix --seed N
//           --seconds S [--trace 0|1] [--setup-only] [--trace-out PATH]
//
// Runs one workload in this process (fresh ProgramCache, fresh jit module
// cache), checks every output against the scalar-backend oracle, prints one
// line per metric, and ends with one JSON line for dfbench/run.py, which
// aggregates set-up samples across processes and prints the benchmark's
// result line.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_metrics(const std::vector<dfbench::Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s:{\"value\":%.17g,\"unit\":%s,\"samples\":%zu}",
                  json_string(metrics[i].name).c_str(), metrics[i].value,
                  json_string(metrics[i].unit).c_str(), metrics[i].samples);
    if (i > 0) out += ",";
    out += buf;
  }
  return out + "}";
}

void print_metric(const dfbench::Metric& m) {
  if (m.samples > 0) {
    std::printf("  %-28s %14.6g %-6s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  } else {
    std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: dfbench --workload cold_large|expr_churn|service_mix "
               "--seed N --seconds S [--trace 0|1] [--setup-only] "
               "[--trace-out PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  dfbench::RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--trace-out" && has_value) {
      opt.trace_out = argv[++i];
    } else if (arg == "--setup-only") {
      opt.setup_only = true;
    } else {
      return usage();
    }
  }
  if (!dfbench::known_workload(opt.workload) || opt.seconds <= 0.0) {
    return usage();
  }

  dfbench::RunResult res;
  try {
    res = dfbench::run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dfbench: %s\n", e.what());
    return 1;
  }

  std::printf("workload %s seed %" PRIu64 "%s: backend %s, jit compiles %" PRIu64
              ", jit fallbacks %" PRIu64 "\n",
              opt.workload.c_str(), opt.seed,
              opt.setup_only ? " (set-up only)" : "", res.backend.c_str(),
              res.jit_compiles, res.jit_fallbacks);
  std::printf("  setup_s %.6f s; first-seen requests: %zu\n", res.setup_s,
              res.first_eval_ms.size());
  for (const dfbench::Metric& m : res.metrics) print_metric(m);
  if (!res.layers.empty()) {
    std::printf("per-layer (traced run):\n");
    for (const dfbench::Metric& m : res.layers) print_metric(m);
  }
  if (!res.first_failure.empty()) {
    std::printf("FIRST FAILURE: %s\n", res.first_failure.c_str());
  }

  std::string first_eval = "[";
  for (std::size_t i = 0; i < res.first_eval_ms.size(); ++i) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%s%.17g", i > 0 ? "," : "",
                  res.first_eval_ms[i]);
    first_eval += buf;
  }
  first_eval += "]";
  char head[512];
  std::snprintf(head, sizeof head,
                "{\"workload\":%s,\"seed\":%" PRIu64
                ",\"backend\":%s,\"jit_compiles\":%" PRIu64
                ",\"jit_fallbacks\":%" PRIu64
                ",\"setup_s\":%.17g,\"warmup_digest\":\"%016" PRIx64
                "\",\"attempted\":%zu,\"failed\":%zu,",
                json_string(opt.workload).c_str(), opt.seed,
                json_string(res.backend).c_str(), res.jit_compiles,
                res.jit_fallbacks, res.setup_s, res.warmup_digest,
                res.attempted, res.failed);
  std::printf("%s\"first_eval_ms\":%s,\"first_failure\":%s,\"metrics\":%s,"
              "\"layers\":%s}\n",
              head, first_eval.c_str(),
              json_string(res.first_failure).c_str(),
              json_metrics(res.metrics).c_str(),
              json_metrics(res.layers).c_str());
  return 0;
}
