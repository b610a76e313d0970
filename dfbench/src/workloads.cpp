#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/engine.hpp"
#include "core/expressions.hpp"
#include "dataflow/builder.hpp"
#include "dataflow/network.hpp"
#include "expr/parser.hpp"
#include "inputs.hpp"
#include "kernels/backend.hpp"
#include "kernels/program_cache.hpp"
#include "kernels/source_printer.hpp"
#include "mesh/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "runtime/fallback.hpp"
#include "runtime/planner.hpp"
#include "service/service.hpp"
#include "spans.hpp"
#include "support/checksum.hpp"
#include "support/parallel.hpp"
#include "vcl/buffer.hpp"
#include "vcl/catalog.hpp"

namespace dfbench {
namespace {

using Clock = std::chrono::steady_clock;
using dfg::runtime::StrategyKind;
using dfg::vcl::EventKind;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr std::size_t kNone = static_cast<std::size_t>(-1);

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear interpolation between order statistics (q in [0, 1]).
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

std::uint64_t jit_fallbacks_total() {
  dfg::obs::MetricsRegistry& reg = dfg::obs::metrics();
  return reg.counter_value(reg.counter("dfgen_jit_fallbacks_total"));
}

/// Index of the first element whose bits differ (any NaN matches any NaN),
/// or kNone when the arrays agree.
std::size_t first_difference(const std::vector<float>& got,
                             const std::vector<float>& want) {
  if (got.size() != want.size()) return std::min(got.size(), want.size());
  if (got.empty() ||
      std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) == 0) {
    return kNone;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const bool same = std::bit_cast<std::uint32_t>(got[i]) ==
                          std::bit_cast<std::uint32_t>(want[i]) ||
                      (std::isnan(got[i]) && std::isnan(want[i]));
    if (!same) return i;
  }
  return kNone;
}

/// Failed requests, with the first one described for the log.
struct Failures {
  std::uint64_t seed = 0;
  std::size_t count = 0;
  std::string first;

  void note(const std::string& what, const std::string& expression) {
    if (count++ == 0) {
      first = "seed " + std::to_string(seed) + ": " + what +
              "; expression:\n" + expression;
    }
  }

  /// Compares `got` with `want`; counts and describes a mismatch.
  bool check(const std::vector<float>& got, const std::vector<float>& want,
             const std::string& what, const std::string& expression) {
    const std::size_t i = first_difference(got, want);
    if (i == kNone) return true;
    std::ostringstream os;
    os << what << " differs from the oracle at element " << i;
    if (i < got.size() && i < want.size()) {
      os.precision(9);
      os << ": got " << got[i] << " want " << want[i];
    } else {
      os << ": got " << got.size() << " elements, want " << want.size();
    }
    note(os.str(), expression);
    return false;
  }
};

struct Flow {
  dfg::mesh::RectilinearMesh mesh;
  dfg::mesh::VectorField field;
};

Flow make_flow(std::size_t n, std::uint64_t seed) {
  dfg::mesh::RectilinearMesh mesh =
      dfg::mesh::RectilinearMesh::uniform({n, n, n});
  dfg::mesh::VectorField field =
      dfg::mesh::rayleigh_taylor_flow(mesh, static_cast<std::uint32_t>(seed));
  return Flow{std::move(mesh), std::move(field)};
}

dfg::vcl::DeviceSpec m2050(const std::string& suffix = "") {
  dfg::vcl::DeviceSpec spec = dfg::vcl::tesla_m2050();
  spec.name += suffix;
  return spec;
}

/// Per-request aggregates of one profiling log.
struct LogTotals {
  double upload_wall = 0.0, readback_wall = 0.0, kernel_wall = 0.0;
  double sim_transfer = 0.0, sim_kernel = 0.0;
  double upload_bytes = 0.0, kernel_bytes = 0.0, flops = 0.0;
  double commands = 0.0;
};

LogTotals summarize(const dfg::vcl::ProfilingLog& log) {
  LogTotals t;
  for (const dfg::vcl::Event& e : log.events()) {
    t.commands += 1.0;
    switch (e.kind) {
      case EventKind::host_to_device:
        t.upload_wall += e.wall_seconds;
        t.sim_transfer += e.sim_seconds;
        t.upload_bytes += static_cast<double>(e.bytes);
        break;
      case EventKind::device_to_host:
        t.readback_wall += e.wall_seconds;
        t.sim_transfer += e.sim_seconds;
        break;
      case EventKind::kernel_exec:
        t.kernel_wall += e.wall_seconds;
        t.sim_kernel += e.sim_seconds;
        t.kernel_bytes += static_cast<double>(e.bytes);
        t.flops += static_cast<double>(e.flops);
        break;
      default:
        break;
    }
  }
  return t;
}

/// Canonical per-layer metric list: every traced run reports each of
/// these, with 0 where the layer is not visible on the workload.
struct LayerSpec {
  const char* name;
  const char* unit;
};
constexpr LayerSpec kLayers[] = {
    {"expr.parse_us", "us"},
    {"dataflow.translate_us", "us"},
    {"dataflow.network_us", "us"},
    {"dataflow.nodes", "count"},
    {"dataflow.script_us", "us"},
    {"kernels.codegen_us", "us"},
    {"kernels.pipeline_hit_ratio", "1"},
    {"kernels.jit_compile_ms", "ms"},
    {"kernels.jit_compiles", "count"},
    {"kernels.jit_fallbacks", "count"},
    {"kernels.source_us", "us"},
    {"kernels.kernel_ms", "ms"},
    {"kernels.cells_per_s", "1/s"},
    {"kernels.flops_per_byte", "1"},
    {"vcl.upload_ms", "ms"},
    {"vcl.readback_ms", "ms"},
    {"vcl.upload_mb", "MB"},
    {"vcl.commands", "count"},
    {"vcl.checksum_ms", "ms"},
    {"vcl.alloc_ms", "ms"},
    {"vcl.resident_hit_ratio", "1"},
    {"vcl.sim_transfer_ms", "ms"},
    {"vcl.sim_kernel_ms", "ms"},
    {"runtime.execute_ms", "ms"},
    {"runtime.glue_ms", "ms"},
    {"runtime.plan_us", "us"},
    {"runtime.degradations", "count"},
    {"core.evaluate_ms", "ms"},
    {"core.other_ms", "ms"},
    {"service.submit_us", "us"},
    {"service.queue_wait_p50_ms", "ms"},
    {"service.queue_wait_p90_ms", "ms"},
    {"service.coalesce_fanout", "1"},
    {"memo.hit_ratio", "1"},
    {"memo.bytes_saved_mb", "MB"},
    {"obs.span_records_per_eval", "count"},
    {"obs.scrape_ms", "ms"},
    {"obs.trace_overhead_frac", "1"},
    {"mesh.generate_ms", "ms"},
};

/// Collects per-layer values by name and emits them in canonical order.
class Layers {
 public:
  void set(const std::string& name, double value, std::size_t samples = 0) {
    values_[name] = {value, samples};
  }

  std::vector<Metric> emit() const {
    std::vector<Metric> out;
    for (const LayerSpec& spec : kLayers) {
      const auto it = values_.find(spec.name);
      Metric m{spec.name, 0.0, spec.unit, 0};
      if (it != values_.end()) {
        m.value = it->second.first;
        m.samples = it->second.second;
      }
      out.push_back(m);
    }
    return out;
  }

 private:
  std::map<std::string, std::pair<double, std::size_t>> values_;
};

/// One timed phase's end-to-end figures.
struct Phase {
  std::vector<double> latency;  // s, per completed request
  double wall = 0.0;            // s, request intervals only
  std::size_t completed = 0;
  double sim = 0.0;  // s, cost-model device time
  std::size_t span_records_before = 0, span_records_after = 0;
};

void emit_end_to_end(RunResult& res, const Phase& phase,
                     std::size_t device_hwm_bytes) {
  const std::size_t n = phase.latency.size();
  res.metrics.push_back(
      {"eval_p50_ms", percentile(phase.latency, 0.50) * 1e3, "ms", n});
  res.metrics.push_back(
      {"eval_p90_ms", percentile(phase.latency, 0.90) * 1e3, "ms", n});
  // p99 needs at least ten samples beyond it.
  if (n >= 1000) {
    res.metrics.push_back(
        {"eval_p99_ms", percentile(phase.latency, 0.99) * 1e3, "ms", n});
  }
  res.metrics.push_back({"evals_per_s",
                         ratio(static_cast<double>(phase.completed), phase.wall),
                         "1/s", phase.completed});
  res.metrics.push_back(
      {"sim_ms_per_eval",
       ratio(phase.sim, static_cast<double>(phase.completed)) * 1e3, "ms",
       phase.completed});
  res.metrics.push_back(
      {"device_hwm_mb", static_cast<double>(device_hwm_bytes) / kMiB, "MB", 0});
  res.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB", 0});
}

std::size_t span_record_count() {
  return dfg::obs::SpanTracer::instance().records().size();
}

/// Unmeasured steady-state requests before each measured phase, so the
/// first measured second does not pay for what the oracle evicted.
constexpr double kSettleSeconds = 1.0;

/// Calls step(false) for `settle` seconds, then step(true) for `seconds`;
/// step runs one request (or one wave) and records it when measured.
/// Counting span records copies them all, which would inflate the peak
/// RSS, so only traced runs count.
template <typename Step>
void timed_loop(double settle, double seconds, bool count_spans, Phase& phase,
                Step&& step) {
  const auto start = Clock::now();
  while (since(start) < settle) step(false);
  if (count_spans) phase.span_records_before = span_record_count();
  const auto phase0 = Clock::now();
  while (since(phase0) < seconds) step(true);
  if (count_spans) phase.span_records_after = span_record_count();
}

double scrape_ms() {
  const auto t0 = Clock::now();
  const std::string json = dfg::obs::metrics().to_json();
  return since(t0) * 1e3;
}

// ---------------------------------------------------------------------------
// Engine workloads: cold_large and expr_churn.

struct EngineWorkload {
  std::size_t grid = 0;
  bool resident_pool = false;
  std::vector<std::string> exprs;
  /// Strategies every expression is warmed with; the first is the one its
  /// first-seen request uses.
  std::vector<StrategyKind> kinds;
  /// Expected (Dev-W, Dev-R, K-Exe) per request of each expression; empty
  /// when unchecked.
  std::vector<std::array<std::size_t, 3>> events;
  /// The request stream: (expression index, strategy index).
  std::function<std::pair<std::size_t, std::size_t>()> next;
};

/// Per-request sums over the traced phase.
struct LayerAcc {
  std::size_t requests = 0;
  double nodes = 0.0, elements = 0.0;
  LogTotals log;
  std::uint64_t resident_hits = 0, resident_misses = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0;
  std::size_t degradations = 0;
  double plan_s = 0.0, checksum_s = 0.0, alloc_s = 0.0;
  std::vector<double> request_s;   // traced request wall (root span)
  std::vector<double> evaluate_s;  // Engine::evaluate wall of the check
};

/// State of the traced mode for one engine workload.
struct Tracer {
  SpanRecorder rec;
  dfg::vcl::ProfilingLog log;
  /// Replay targets: a device like the engine's for allocations, and a
  /// source array for checksums.
  std::unique_ptr<dfg::vcl::Device> scratch;
  std::vector<float> scratch_data;
  bool accumulate = false;
  LayerAcc acc;
  std::vector<double> codegen_s, compile_s;
  std::uint64_t requests = 0;
  /// Folds in replay checksums and assembled report text, so neither is
  /// optimised away.
  std::uint64_t sink = 0;
};

double span_seconds(const SpanRecorder& rec, std::uint64_t id) {
  const SpanRec& s = rec.span(id);
  return s.end - s.start;
}

/// One request driven through the public steps Engine::evaluate_network
/// takes, each wrapped in a span: parse, translate, Network construction,
/// pipeline and backend prepare, execute_with_fallback under a PinScope,
/// and report assembly. Per-kind command aggregates of the profiling log
/// become children of the execute span.
std::vector<float> traced_request(dfg::Engine& engine, Tracer& t,
                                  const std::string& text, StrategyKind kind,
                                  std::size_t elements, bool pool_on) {
  dfg::vcl::Device& device = engine.device();
  dfg::kernels::ProgramCache& cache = dfg::kernels::ProgramCache::instance();
  const bool fused =
      kind == StrategyKind::fusion || kind == StrategyKind::streamed;
  t.rec.set_request(++t.requests);
  const dfg::vcl::ResidentPool::Stats res_before = device.resident().stats();
  const dfg::kernels::ProgramCacheStats cache_before = cache.thread_stats();

  std::size_t nodes = 0;
  std::optional<dfg::dataflow::Network> network;
  dfg::runtime::FallbackOutcome outcome;
  std::uint64_t request_id = 0;
  {
    SpanRecorder::Scope request(t.rec, "request");
    request_id = request.id();
    dfg::expr::Script script;
    {
      SpanRecorder::Scope s(t.rec, "expr.parse");
      script = dfg::expr::parse(text);
    }
    std::optional<dfg::dataflow::NetworkSpec> spec;
    {
      SpanRecorder::Scope s(t.rec, "dataflow.translate");
      spec.emplace(dfg::dataflow::build_network(script));
    }
    nodes = spec->nodes().size();
    {
      SpanRecorder::Scope s(t.rec, "dataflow.network");
      network.emplace(std::move(*spec));
    }

    // Arm the device as Engine::evaluate_network does.
    device.resident().set_enabled(pool_on);
    device.set_backend(
        dfg::kernels::backend_for(dfg::kernels::BackendKind::auto_select));
    dfg::kernels::ExecutionBackend& backend = device.backend();
    if (fused) {
      std::shared_ptr<const dfg::kernels::FusedPipeline> pipeline;
      const std::uint64_t misses = cache.thread_stats().pipeline_misses;
      std::uint64_t id = 0;
      {
        SpanRecorder::Scope s(t.rec, "kernels.pipeline");
        id = s.id();
        pipeline = cache.fused_pipeline(*network);
      }
      if (cache.thread_stats().pipeline_misses != misses) {
        t.codegen_s.push_back(span_seconds(t.rec, id));
      }
      const std::uint64_t compiles = cache.jit_stats().compiles;
      {
        SpanRecorder::Scope s(t.rec, "kernels.prepare");
        id = s.id();
        for (const auto& stage : pipeline->stages) backend.prepare(stage.program);
      }
      if (cache.jit_stats().compiles != compiles) {
        t.compile_s.push_back(span_seconds(t.rec, id));
      }
    }

    t.log.clear();
    device.memory().reset_high_water();
    device.fault().begin_run();
    device.fault().set_sink(&t.log);
    std::uint64_t execute_id = 0;
    {
      SpanRecorder::Scope s(t.rec, "runtime.execute");
      execute_id = s.id();
      dfg::vcl::ResidentPool::PinScope pins(device.resident());
      outcome = dfg::runtime::execute_with_fallback(
          *network, engine.bindings(), elements, device, t.log, kind,
          dfg::runtime::FallbackPolicy{});
    }
    const LogTotals totals = summarize(t.log);
    double cursor = t.rec.span(execute_id).start;
    const std::pair<const char*, double> children[] = {
        {"vcl.upload", totals.upload_wall},
        {"kernels.kernel", totals.kernel_wall},
        {"vcl.readback", totals.readback_wall}};
    for (const auto& [name, wall] : children) {
      t.rec.add_closed(name, execute_id, cursor, cursor + wall);
      cursor += wall;
    }

    {
      SpanRecorder::Scope s(t.rec, "core.report");
      std::string script_text, source;
      {
        SpanRecorder::Scope s2(t.rec, "dataflow.script");
        script_text = network->spec().to_script();
      }
      if (fused) {
        SpanRecorder::Scope s2(t.rec, "kernels.source");
        const auto pipeline = cache.fused_pipeline(*network);
        for (const auto& stage : pipeline->stages) {
          if (!source.empty()) source += "\n";
          source += dfg::kernels::to_opencl_source(stage.program);
        }
      }
      t.sink += script_text.size() + source.size();
    }
  }

  if (t.accumulate) {
    LayerAcc& a = t.acc;
    ++a.requests;
    a.request_s.push_back(span_seconds(t.rec, request_id));
    a.nodes += static_cast<double>(nodes);
    a.elements += static_cast<double>(elements);
    const LogTotals lt = summarize(t.log);
    a.log.upload_wall += lt.upload_wall;
    a.log.readback_wall += lt.readback_wall;
    a.log.kernel_wall += lt.kernel_wall;
    a.log.sim_transfer += lt.sim_transfer;
    a.log.sim_kernel += lt.sim_kernel;
    a.log.upload_bytes += lt.upload_bytes;
    a.log.kernel_bytes += lt.kernel_bytes;
    a.log.flops += lt.flops;
    a.log.commands += lt.commands;
    const dfg::vcl::ResidentPool::Stats res_after = device.resident().stats();
    a.resident_hits += res_after.hits - res_before.hits;
    a.resident_misses += res_after.misses - res_before.misses;
    const dfg::kernels::ProgramCacheStats cache_after = cache.thread_stats();
    a.cache_hits += (cache_after.pipeline_hits - cache_before.pipeline_hits) +
                    (cache_after.standalone_hits - cache_before.standalone_hits);
    a.cache_misses +=
        (cache_after.pipeline_misses - cache_before.pipeline_misses) +
        (cache_after.standalone_misses - cache_before.standalone_misses);
    a.degradations += outcome.degradations.size();

    // Replays, outside the request span.
    auto t0 = Clock::now();
    dfg::runtime::estimate_high_water(*network, engine.bindings(), elements,
                                      kind);
    a.plan_s += since(t0);
    // Every transfer is checksummed at its source and its destination.
    t0 = Clock::now();
    for (const dfg::vcl::Event& e : t.log.events()) {
      if (e.kind != EventKind::host_to_device &&
          e.kind != EventKind::device_to_host) {
        continue;
      }
      const std::size_t n =
          std::min(e.bytes / sizeof(float), t.scratch_data.size());
      const std::span<const float> data(t.scratch_data.data(), n);
      t.sink ^= dfg::support::checksum_floats(data);
      t.sink ^= dfg::support::checksum_floats(data);
    }
    a.checksum_s += since(t0);
    // One device buffer per upload and per kernel output.
    t0 = Clock::now();
    {
      std::vector<dfg::vcl::Buffer> buffers;
      for (const dfg::vcl::Event& e : t.log.events()) {
        if (e.kind == EventKind::host_to_device) {
          buffers.push_back(t.scratch->allocate(e.bytes / sizeof(float)));
        } else if (e.kind == EventKind::kernel_exec) {
          buffers.push_back(t.scratch->allocate(elements));
        }
      }
    }
    a.alloc_s += since(t0);
  }
  return std::move(outcome.values);
}

void set_engine_layers(Layers& layers, const Tracer& t, const Phase& untraced,
                       std::uint64_t first_request) {
  const LayerAcc& a = t.acc;
  const double n = static_cast<double>(std::max<std::size_t>(a.requests, 1));
  const std::map<std::string, SpanAgg> agg =
      t.rec.aggregate(first_request, t.requests);
  const auto total = [&](const char* name) {
    const auto it = agg.find(name);
    return it == agg.end() ? 0.0 : it->second.total / n;
  };
  const auto self = [&](const char* name) {
    const auto it = agg.find(name);
    return it == agg.end() ? 0.0 : it->second.self / n;
  };
  const std::size_t reqs = a.requests;
  layers.set("expr.parse_us", total("expr.parse") * 1e6, reqs);
  layers.set("dataflow.translate_us", total("dataflow.translate") * 1e6, reqs);
  layers.set("dataflow.network_us", total("dataflow.network") * 1e6, reqs);
  layers.set("dataflow.nodes", a.nodes / n, reqs);
  layers.set("dataflow.script_us", total("dataflow.script") * 1e6, reqs);
  layers.set("kernels.codegen_us", mean(t.codegen_s) * 1e6, t.codegen_s.size());
  layers.set("kernels.pipeline_hit_ratio",
             ratio(static_cast<double>(a.cache_hits),
                   static_cast<double>(a.cache_hits + a.cache_misses)),
             a.cache_hits + a.cache_misses);
  layers.set("kernels.jit_compile_ms", mean(t.compile_s) * 1e3,
             t.compile_s.size());
  layers.set("kernels.source_us", total("kernels.source") * 1e6, reqs);
  layers.set("kernels.kernel_ms", a.log.kernel_wall / n * 1e3, reqs);
  layers.set("kernels.cells_per_s", ratio(a.elements, a.log.kernel_wall), reqs);
  layers.set("kernels.flops_per_byte", ratio(a.log.flops, a.log.kernel_bytes),
             reqs);
  layers.set("vcl.upload_ms", a.log.upload_wall / n * 1e3, reqs);
  layers.set("vcl.readback_ms", a.log.readback_wall / n * 1e3, reqs);
  layers.set("vcl.upload_mb", a.log.upload_bytes / n / kMiB, reqs);
  layers.set("vcl.commands", a.log.commands / n, reqs);
  layers.set("vcl.checksum_ms", a.checksum_s / n * 1e3, reqs);
  layers.set("vcl.alloc_ms", a.alloc_s / n * 1e3, reqs);
  layers.set("vcl.resident_hit_ratio",
             ratio(static_cast<double>(a.resident_hits),
                   static_cast<double>(a.resident_hits + a.resident_misses)),
             a.resident_hits + a.resident_misses);
  layers.set("vcl.sim_transfer_ms", a.log.sim_transfer / n * 1e3, reqs);
  layers.set("vcl.sim_kernel_ms", a.log.sim_kernel / n * 1e3, reqs);
  layers.set("runtime.execute_ms", total("runtime.execute") * 1e3, reqs);
  layers.set("runtime.glue_ms", self("runtime.execute") * 1e3, reqs);
  layers.set("runtime.plan_us", a.plan_s / n * 1e6, reqs);
  layers.set("runtime.degradations", static_cast<double>(a.degradations));
  // Engine::evaluate's wall minus everything the traced steps attribute to
  // named layers: arming, registry counter sampling, the engine's own span
  // and whatever else no layer span covers.
  const double evaluate = mean(a.evaluate_s);
  const double named = total("request") - self("request");
  layers.set("core.evaluate_ms", evaluate * 1e3, a.evaluate_s.size());
  layers.set("core.other_ms", (evaluate - named) * 1e3, a.evaluate_s.size());
  layers.set("obs.span_records_per_eval",
             ratio(static_cast<double>(untraced.span_records_after -
                                       untraced.span_records_before),
                   static_cast<double>(untraced.completed)),
             untraced.completed);
  layers.set("obs.trace_overhead_frac",
             ratio(percentile(a.request_s, 0.5),
                   percentile(untraced.latency, 0.5)) -
                 1.0,
             a.request_s.size());
}

RunResult run_engine_workload(const RunOptions& opt, EngineWorkload& w) {
  RunResult res;
  Failures fails;
  fails.seed = opt.seed;
  Layers layers;
  const dfg::kernels::JitCacheStats jit_before =
      dfg::kernels::ProgramCache::instance().jit_stats();

  const auto setup0 = Clock::now();
  const auto mesh0 = Clock::now();
  const Flow flow = make_flow(w.grid, opt.seed);
  layers.set("mesh.generate_ms", since(mesh0) * 1e3);
  dfg::vcl::Device device(m2050());
  dfg::EngineOptions eo;
  eo.resident_pool = w.resident_pool;
  eo.backend = dfg::kernels::BackendKind::auto_select;
  dfg::Engine engine(device, eo);
  engine.bind_mesh(flow.mesh);
  engine.bind("u", flow.field.u);
  engine.bind("v", flow.field.v);
  engine.bind("w", flow.field.w);
  const std::size_t elements = flow.mesh.cell_count();

  std::unique_ptr<Tracer> tracer;
  if (opt.trace) {
    tracer = std::make_unique<Tracer>();
    tracer->scratch = std::make_unique<dfg::vcl::Device>(m2050("-replay"));
    tracer->scratch_data.assign(3 * elements, 1.0f);
  }

  const std::size_t kinds = w.kinds.size();
  const auto slot = [&](std::size_t e, std::size_t k) { return e * kinds + k; };
  std::size_t hwm = 0;
  const auto check_events = [&](std::size_t e, std::size_t writes,
                                std::size_t reads, std::size_t kernels) {
    if (w.events.empty()) return;
    const auto& want = w.events[e];
    if (writes != want[0] || reads != want[1] || kernels != want[2]) {
      fails.note("device events (Dev-W, Dev-R, K-Exe) = (" +
                     std::to_string(writes) + ", " + std::to_string(reads) +
                     ", " + std::to_string(kernels) +
                     ") differ from the fusion counts of Table II (" +
                     std::to_string(want[0]) + ", " + std::to_string(want[1]) +
                     ", " + std::to_string(want[2]) + ")",
                 w.exprs[e]);
    }
  };
  // One request; returns its values (empty when it threw) and its wall.
  const auto request = [&](std::size_t e, std::size_t k, bool traced,
                           double& wall, double& sim) {
    const StrategyKind kind = w.kinds[k];
    engine.set_strategy(kind);
    ++res.attempted;
    try {
      if (traced) {
        const auto t0 = Clock::now();
        std::vector<float> values = traced_request(
            engine, *tracer, w.exprs[e], kind, elements, w.resident_pool);
        wall = since(t0);
        const dfg::vcl::ProfilingLog& log = tracer->log;
        check_events(e, log.count(EventKind::host_to_device),
                     log.count(EventKind::device_to_host),
                     log.count(EventKind::kernel_exec));
        // The traced steps must reproduce Engine::evaluate bit for bit.
        const auto t1 = Clock::now();
        const dfg::EvaluationReport report = engine.evaluate(w.exprs[e]);
        if (tracer->accumulate) tracer->acc.evaluate_s.push_back(since(t1));
        sim = report.sim_seconds;
        hwm = std::max(hwm, report.memory_high_water_bytes);
        if (first_difference(values, report.values) != kNone) {
          fails.note(std::string("traced steps diverged from Engine::evaluate "
                                 "under ") +
                         dfg::runtime::strategy_name(kind),
                     w.exprs[e]);
          return std::vector<float>{};
        }
        return values;
      }
      const auto t0 = Clock::now();
      dfg::EvaluationReport report = engine.evaluate(w.exprs[e]);
      wall = since(t0);
      sim = report.sim_seconds;
      hwm = std::max(hwm, report.memory_high_water_bytes);
      check_events(e, report.dev_writes, report.dev_reads, report.kernel_execs);
      return std::move(report.values);
    } catch (const std::exception& ex) {
      fails.note(std::string(dfg::runtime::strategy_name(kind)) + " threw: " +
                     ex.what(),
                 w.exprs[e]);
      return std::vector<float>{};
    }
  };

  // Warm-up: every (expression, strategy) pair once. The first request of
  // each expression is its first-seen request.
  std::vector<std::vector<float>> warm(w.exprs.size() * kinds);
  res.warmup_digest = dfg::support::kFnvOffsetBasis;
  for (std::size_t e = 0; e < w.exprs.size(); ++e) {
    for (std::size_t k = 0; k < kinds; ++k) {
      double wall = 0.0, sim = 0.0;
      std::vector<float> values = request(e, k, opt.trace, wall, sim);
      if (k == 0) res.first_eval_ms.push_back(wall * 1e3);
      res.warmup_digest =
          dfg::support::checksum_floats(values, res.warmup_digest);
      if (!opt.setup_only) warm[slot(e, k)] = std::move(values);
    }
  }
  res.setup_s = since(setup0);
  res.backend = dfg::kernels::backend_name(device.backend().kind());

  if (!opt.setup_only) {
    // Oracle: scalar-backend references for every (expression, strategy),
    // computed outside every timed interval.
    std::vector<std::vector<float>> ref(w.exprs.size() * kinds);
    {
      dfg::vcl::Device oracle_device(m2050("-oracle"));
      dfg::EngineOptions oo;
      oo.backend = dfg::kernels::BackendKind::scalar;
      dfg::Engine oracle(oracle_device, oo);
      oracle.bind_mesh(flow.mesh);
      oracle.bind("u", flow.field.u);
      oracle.bind("v", flow.field.v);
      oracle.bind("w", flow.field.w);
      for (std::size_t e = 0; e < w.exprs.size(); ++e) {
        for (std::size_t k = 0; k < kinds; ++k) {
          oracle.set_strategy(w.kinds[k]);
          ref[slot(e, k)] = oracle.evaluate(w.exprs[e]).values;
        }
      }
    }
    for (std::size_t e = 0; e < w.exprs.size(); ++e) {
      for (std::size_t k = 0; k < kinds; ++k) {
        if (warm[slot(e, k)].empty()) continue;  // already counted
        fails.check(warm[slot(e, k)], ref[slot(e, k)],
                    std::string("warm-up ") +
                        dfg::runtime::strategy_name(w.kinds[k]),
                    w.exprs[e]);
      }
    }
    warm.clear();

    const auto run_phase = [&](double settle, double seconds, bool traced,
                               Phase& phase) {
      timed_loop(settle, seconds, opt.trace, phase, [&](bool measured) {
        const auto [e, k] = w.next();
        double wall = 0.0, sim = 0.0;
        const std::vector<float> values = request(e, k, traced, wall, sim);
        if (values.empty()) return;
        fails.check(values, ref[slot(e, k)],
                    dfg::runtime::strategy_name(w.kinds[k]), w.exprs[e]);
        if (!measured) return;
        phase.latency.push_back(wall);
        phase.wall += wall;
        phase.sim += sim;
        ++phase.completed;
      });
    };

    Phase untraced;
    if (!opt.trace) {
      run_phase(kSettleSeconds, opt.seconds, false, untraced);
    } else {
      run_phase(kSettleSeconds, opt.seconds / 2, false, untraced);
      tracer->accumulate = true;
      const std::uint64_t first = tracer->requests + 1;
      Phase traced;
      run_phase(0.0, opt.seconds / 2, true, traced);
      set_engine_layers(layers, *tracer, untraced, first);
    }
    emit_end_to_end(res, untraced, hwm);
  }

  const dfg::kernels::JitCacheStats jit_after =
      dfg::kernels::ProgramCache::instance().jit_stats();
  res.jit_compiles = jit_after.compiles - jit_before.compiles;
  res.jit_fallbacks = jit_fallbacks_total();
  if (opt.trace) {
    layers.set("kernels.jit_compiles", static_cast<double>(res.jit_compiles));
    layers.set("kernels.jit_fallbacks", static_cast<double>(res.jit_fallbacks));
    layers.set("obs.scrape_ms", scrape_ms());
    res.layers = layers.emit();
    if (!opt.trace_out.empty() && !tracer->rec.write_chrome_trace(opt.trace_out)) {
      fails.note("cannot write the span trace to " + opt.trace_out, "");
    }
  }
  res.failed = fails.count;
  res.first_failure = fails.first;
  return res;
}

RunResult run_cold_large(const RunOptions& opt) {
  EngineWorkload w;
  w.grid = 128;
  w.resident_pool = false;
  w.exprs = {dfg::expressions::kVelocityMagnitude,
             dfg::expressions::kVorticityMagnitude,
             dfg::expressions::kQCriterion};
  w.kinds = {StrategyKind::fusion};
  // Table II fusion rows (what bench_table2_device_events reports).
  w.events = {{3, 1, 1}, {7, 1, 1}, {7, 1, 1}};
  std::size_t next = opt.seed % 3;
  w.next = [next]() mutable {
    const std::size_t e = next;
    next = (next + 1) % 3;
    return std::pair<std::size_t, std::size_t>{e, 0};
  };
  return run_engine_workload(opt, w);
}

RunResult run_expr_churn(const RunOptions& opt) {
  constexpr std::size_t kExpressions = 24;
  // Kernels run on the calling thread: a 32^3 kernel is 32 tiles, and
  // starting workers per launch costs more than they save (p50 0.19 ms
  // inline vs 0.24 ms with two workers on the reference host).
  dfg::support::set_worker_count(1);
  EngineWorkload w;
  w.grid = 32;
  w.resident_pool = true;
  w.exprs = churn_expressions(opt.seed, kExpressions);
  w.kinds.assign(std::begin(kChurnStrategies), std::end(kChurnStrategies));
  auto rng = std::make_shared<Rng>(opt.seed);
  auto zipf = std::make_shared<Zipf>(kExpressions, 1.0);
  w.next = [rng, zipf]() {
    const std::size_t e = zipf->draw(*rng);
    return std::pair<std::size_t, std::size_t>{e, draw_strategy(*rng)};
  };
  return run_engine_workload(opt, w);
}

// ---------------------------------------------------------------------------
// service_mix.

/// Dev-W bytes and simulated transfer/kernel time in a merged Chrome trace
/// of the service's device logs.
struct DeviceTraceTotals {
  double upload_bytes = 0.0;
  double sim_transfer_us = 0.0;
  double sim_kernel_us = 0.0;
};

DeviceTraceTotals scan_device_trace(const std::string& doc) {
  DeviceTraceTotals t;
  const std::string cat_key = "\"cat\":\"";
  std::size_t pos = 0;
  while ((pos = doc.find(cat_key, pos)) != std::string::npos) {
    pos += cat_key.size();
    const std::size_t cat_end = doc.find('"', pos);
    const std::string cat = doc.substr(pos, cat_end - pos);
    const std::size_t dur = doc.find("\"dur\":", cat_end);
    const std::size_t bytes = doc.find("\"bytes\":", cat_end);
    if (dur == std::string::npos || bytes == std::string::npos) break;
    const double d = std::strtod(doc.c_str() + dur + 6, nullptr);
    const double b = std::strtod(doc.c_str() + bytes + 8, nullptr);
    if (cat == "Dev-W") {
      t.upload_bytes += b;
      t.sim_transfer_us += d;
    } else if (cat == "Dev-R") {
      t.sim_transfer_us += d;
    } else if (cat == "K-Exe") {
      t.sim_kernel_us += d;
    }
    pos = cat_end;
  }
  return t;
}

constexpr double kServicePoolBytes = 128.0 * kMiB;
constexpr std::size_t kServiceMemoBytes = std::size_t{64} << 20;

RunResult run_service_mix(const RunOptions& opt) {
  using dfg::service::RequestStatus;
  RunResult res;
  Failures fails;
  fails.seed = opt.seed;
  Layers layers;
  const dfg::kernels::JitCacheStats jit_before =
      dfg::kernels::ProgramCache::instance().jit_stats();
  // Two service workers, two kernel threads each: within nproc = 4.
  dfg::support::set_worker_count(2);

  const auto setup0 = Clock::now();
  const auto mesh0 = Clock::now();
  const Flow flow = make_flow(64, opt.seed);
  // The time-stepped component: w alternates between two states.
  const std::array<std::vector<float>, 2> w_states = {
      flow.field.w,
      dfg::mesh::rayleigh_taylor_flow(flow.mesh,
                                      static_cast<std::uint32_t>(opt.seed + 1))
          .w};
  std::vector<float> w_live = w_states[0];
  layers.set("mesh.generate_ms", since(mesh0) * 1e3);

  dfg::vcl::Device d0(m2050("-0")), d1(m2050("-1"));
  // Bounded resident pools and memo cache. Time steps strand stale
  // intermediates in both until eviction; with these caps both fill within
  // the first few seconds of a run, after which the device high-water mark
  // and the process RSS no longer grow with run length.
  for (dfg::vcl::Device* d : {&d0, &d1}) {
    d->resident().set_watermark_fraction(
        kServicePoolBytes /
        static_cast<double>(d->spec().global_mem_bytes));
  }
  dfg::service::ServiceOptions so;
  so.coalescing = true;
  so.resident_pool = true;
  so.memo = true;
  so.memo_cap_bytes = kServiceMemoBytes;
  so.backend = dfg::kernels::BackendKind::auto_select;
  dfg::service::EvalService service({&d0, &d1}, so);
  const std::vector<std::string> detectors = service_detectors();
  const auto make_request = [&](std::size_t detector, std::size_t session) {
    dfg::service::Request r;
    r.expression = detectors[detector];
    r.mesh = &flow.mesh;
    r.fields = {{"u", flow.field.u}, {"v", flow.field.v}, {"w", w_live}};
    r.session = "s" + std::to_string(session);
    return r;
  };

  std::size_t hwm = 0;
  // Warm-up: each detector once, one at a time: its first-seen request.
  std::vector<std::vector<float>> warm(detectors.size());
  res.warmup_digest = dfg::support::kFnvOffsetBasis;
  for (std::size_t d = 0; d < detectors.size(); ++d) {
    ++res.attempted;
    const auto t0 = Clock::now();
    const dfg::service::Ticket ticket =
        service.submit(make_request(d, d % kServiceSessions));
    const dfg::service::ServiceReport& report = ticket.wait();
    res.first_eval_ms.push_back(since(t0) * 1e3);
    if (report.status != RequestStatus::completed) {
      fails.note("warm-up request was not completed: " + report.reject_reason +
                     report.error,
                 detectors[d]);
      continue;
    }
    hwm = std::max(hwm, report.evaluation->memory_high_water_bytes);
    res.warmup_digest = dfg::support::checksum_floats(
        report.evaluation->values, res.warmup_digest);
    if (!opt.setup_only) warm[d] = report.evaluation->values;
  }
  res.setup_s = since(setup0);
  res.backend = dfg::kernels::backend_name(*so.backend);

  if (!opt.setup_only) {
    // Oracle: scalar-backend fusion references per detector and w state.
    std::array<std::vector<std::vector<float>>, 2> ref;
    {
      dfg::vcl::Device oracle_device(m2050("-oracle"));
      dfg::EngineOptions oo;
      oo.backend = dfg::kernels::BackendKind::scalar;
      dfg::Engine oracle(oracle_device, oo);
      oracle.bind_mesh(flow.mesh);
      oracle.bind("u", flow.field.u);
      oracle.bind("v", flow.field.v);
      for (std::size_t s = 0; s < 2; ++s) {
        oracle.bind("w", w_states[s]);
        for (const std::string& d : detectors) {
          ref[s].push_back(oracle.evaluate(d).values);
        }
      }
    }
    for (std::size_t d = 0; d < detectors.size(); ++d) {
      if (!warm[d].empty()) {
        fails.check(warm[d], ref[0][d], "warm-up", detectors[d]);
      }
    }
    warm.clear();

    // Replay target for runtime.plan_us: the planner call admission makes.
    std::unique_ptr<dfg::runtime::FieldBindings> plan_bindings;
    std::vector<dfg::dataflow::Network> plan_networks;
    std::unique_ptr<SpanRecorder> rec;
    if (opt.trace) {
      plan_bindings = std::make_unique<dfg::runtime::FieldBindings>();
      plan_bindings->bind_mesh(flow.mesh);
      plan_bindings->bind("u", flow.field.u);
      plan_bindings->bind("v", flow.field.v);
      plan_bindings->bind("w", w_live);
      for (const std::string& d : detectors) {
        plan_networks.emplace_back(dfg::dataflow::build_network(d));
      }
      rec = std::make_unique<SpanRecorder>();
    }

    Rng rng(opt.seed);
    const Zipf zipf(detectors.size(), 1.0);
    std::size_t state = 0, sent_total = 0;
    std::uint64_t request_ids = 0;
    struct ServicePhase {
      Phase e2e;
      std::vector<double> queue_wait_s;
      double commands = 0.0, plan_s = 0.0;
      std::uint64_t cache_hits = 0, cache_misses = 0;
      std::size_t degradations = 0;
    };

    // Closed loop in fixed waves of kServiceInFlight requests: submit the
    // wave, wait for every ticket, check outside the timed interval.
    const auto run_phase = [&](double settle, double seconds, bool traced,
                               ServicePhase& phase) {
      timed_loop(settle, seconds, opt.trace, phase.e2e, [&](bool measured) {
        if (sent_total > 0 && sent_total % kServiceStepEvery == 0) {
          // Time step: flip w to its other state and publish the mutation.
          service.drain();
          state ^= 1;
          std::copy(w_states[state].begin(), w_states[state].end(),
                    w_live.begin());
          service.note_host_mutation(w_live.data());
        }
        const bool spans = traced && measured;
        std::array<ServiceDraw, kServiceInFlight> draws;
        std::array<dfg::service::Ticket, kServiceInFlight> tickets;
        std::array<Clock::time_point, kServiceInFlight> sent;
        std::array<double, kServiceInFlight> latency{};
        std::array<std::uint64_t, kServiceInFlight> ids{};
        std::optional<SpanRecorder::Scope> wave;
        if (spans) wave.emplace(*rec, "wave");
        const auto wave0 = Clock::now();
        for (std::size_t i = 0; i < kServiceInFlight; ++i) {
          draws[i] = {(zipf.draw(rng) * 5) % detectors.size(),
                      rng.below(kServiceSessions)};
          dfg::service::Request req =
              make_request(draws[i].detector, draws[i].session);
          ids[i] = ++request_ids;
          if (spans) rec->set_request(ids[i]);
          sent[i] = Clock::now();
          std::optional<SpanRecorder::Scope> s;
          if (spans) s.emplace(*rec, "service.submit");
          tickets[i] = service.submit(std::move(req));
        }
        for (std::size_t i = 0; i < kServiceInFlight; ++i) {
          if (spans) rec->set_request(ids[i]);
          std::optional<SpanRecorder::Scope> s;
          if (spans) s.emplace(*rec, "service.wait");
          tickets[i].wait();
          latency[i] = since(sent[i]);
        }
        const double wave_wall = since(wave0);
        wave.reset();
        if (spans) {
          const double now = rec->now();
          for (std::size_t i = 0; i < kServiceInFlight; ++i) {
            rec->set_request(ids[i]);
            // Submit to wait return. Requests of a wave overlap, so each
            // is a root of its own.
            const double start = now - since(sent[i]);
            rec->add_closed("request", 0, start, start + latency[i]);
          }
        }
        sent_total += kServiceInFlight;

        // Checks and accounting, outside the timed interval.
        if (measured) phase.e2e.wall += wave_wall;
        for (std::size_t i = 0; i < kServiceInFlight; ++i) {
          ++res.attempted;
          const dfg::service::ServiceReport& report = tickets[i].wait();
          const std::string& text = detectors[draws[i].detector];
          if (report.status != RequestStatus::completed) {
            fails.note("request was not completed: " + report.reject_reason +
                           report.error,
                       text);
            continue;
          }
          const dfg::EvaluationReport& ev = *report.evaluation;
          hwm = std::max(hwm, ev.memory_high_water_bytes);
          fails.check(ev.values, ref[state][draws[i].detector], "service",
                      text);
          if (!measured) continue;
          phase.e2e.latency.push_back(latency[i]);
          ++phase.e2e.completed;
          phase.queue_wait_s.push_back(report.queue_wait_seconds);
          if (report.coalesce_leader) {
            phase.e2e.sim += ev.sim_seconds;
            phase.commands += static_cast<double>(
                ev.dev_writes + ev.dev_reads + ev.kernel_execs);
            phase.cache_hits += ev.pipeline_cache_hits;
            phase.cache_misses += ev.pipeline_cache_misses;
            phase.degradations += ev.degradations.size();
          }
          if (traced) {
            const auto t0 = Clock::now();
            dfg::runtime::estimate_high_water(
                plan_networks[draws[i].detector], *plan_bindings,
                flow.mesh.cell_count(), StrategyKind::fusion);
            phase.plan_s += since(t0);
          }
        }
      });
      service.drain();
    };

    ServicePhase untraced;
    if (!opt.trace) {
      run_phase(kSettleSeconds, opt.seconds, false, untraced);
    } else {
      run_phase(kSettleSeconds, opt.seconds / 2, false, untraced);
      const dfg::service::ServiceSnapshot snap0 = service.snapshot();
      const DeviceTraceTotals dev0 = scan_device_trace(service.chrome_trace());
      const std::uint64_t first = request_ids + 1;
      ServicePhase traced;
      run_phase(0.0, opt.seconds / 2, true, traced);
      const dfg::service::ServiceSnapshot snap1 = service.snapshot();
      const DeviceTraceTotals dev1 = scan_device_trace(service.chrome_trace());

      const auto delta = [](std::size_t a, std::size_t b) {
        return static_cast<double>(b - a);
      };
      const double completed = static_cast<double>(traced.e2e.completed);
      const std::size_t n = traced.e2e.completed;
      const std::map<std::string, SpanAgg> agg =
          rec->aggregate(first, request_ids);
      layers.set("kernels.pipeline_hit_ratio",
                 ratio(static_cast<double>(traced.cache_hits),
                       static_cast<double>(traced.cache_hits +
                                           traced.cache_misses)),
                 traced.cache_hits + traced.cache_misses);
      layers.set("vcl.upload_mb",
                 ratio(dev1.upload_bytes - dev0.upload_bytes, completed) / kMiB,
                 n);
      layers.set("vcl.commands", ratio(traced.commands, completed), n);
      layers.set("vcl.resident_hit_ratio",
                 ratio(delta(snap0.resident_hits, snap1.resident_hits),
                       delta(snap0.resident_hits, snap1.resident_hits) +
                           delta(snap0.resident_misses, snap1.resident_misses)),
                 snap1.resident_hits - snap0.resident_hits +
                     snap1.resident_misses - snap0.resident_misses);
      layers.set("vcl.sim_transfer_ms",
                 ratio(dev1.sim_transfer_us - dev0.sim_transfer_us, completed) /
                     1e3,
                 n);
      layers.set("vcl.sim_kernel_ms",
                 ratio(dev1.sim_kernel_us - dev0.sim_kernel_us, completed) /
                     1e3,
                 n);
      layers.set("runtime.plan_us", ratio(traced.plan_s, completed) * 1e6, n);
      layers.set("runtime.degradations",
                 static_cast<double>(traced.degradations));
      const auto submit = agg.find("service.submit");
      if (submit != agg.end()) {
        layers.set("service.submit_us",
                   submit->second.total / static_cast<double>(
                                              submit->second.count) * 1e6,
                   submit->second.count);
      }
      layers.set("service.queue_wait_p50_ms",
                 percentile(traced.queue_wait_s, 0.5) * 1e3,
                 traced.queue_wait_s.size());
      layers.set("service.queue_wait_p90_ms",
                 percentile(traced.queue_wait_s, 0.9) * 1e3,
                 traced.queue_wait_s.size());
      layers.set("service.coalesce_fanout",
                 ratio(delta(snap0.completed_requests, snap1.completed_requests),
                       delta(snap0.executed_evaluations,
                             snap1.executed_evaluations)),
                 snap1.executed_evaluations - snap0.executed_evaluations);
      layers.set("memo.hit_ratio",
                 ratio(delta(snap0.memo_hits, snap1.memo_hits),
                       delta(snap0.memo_hits, snap1.memo_hits) +
                           delta(snap0.memo_misses, snap1.memo_misses)),
                 snap1.memo_hits - snap0.memo_hits + snap1.memo_misses -
                     snap0.memo_misses);
      layers.set("memo.bytes_saved_mb",
                 ratio(delta(snap0.memo_bytes_saved, snap1.memo_bytes_saved),
                       completed) /
                     kMiB,
                 n);
      layers.set("obs.span_records_per_eval",
                 ratio(static_cast<double>(untraced.e2e.span_records_after -
                                           untraced.e2e.span_records_before),
                       static_cast<double>(untraced.e2e.completed)),
                 untraced.e2e.completed);
      layers.set("obs.trace_overhead_frac",
                 ratio(percentile(traced.e2e.latency, 0.5),
                       percentile(untraced.e2e.latency, 0.5)) -
                     1.0,
                 n);
      if (!opt.trace_out.empty() && !rec->write_chrome_trace(opt.trace_out)) {
        fails.note("cannot write the span trace to " + opt.trace_out, "");
      }
    }
    emit_end_to_end(res, untraced.e2e, hwm);
  }

  const dfg::kernels::JitCacheStats jit_after =
      dfg::kernels::ProgramCache::instance().jit_stats();
  res.jit_compiles = jit_after.compiles - jit_before.compiles;
  res.jit_fallbacks = jit_fallbacks_total();
  if (opt.trace) {
    layers.set("kernels.jit_compiles", static_cast<double>(res.jit_compiles));
    layers.set("kernels.jit_fallbacks", static_cast<double>(res.jit_fallbacks));
    layers.set("obs.scrape_ms", scrape_ms());
    res.layers = layers.emit();
  }
  res.failed = fails.count;
  res.first_failure = fails.first;
  return res;
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "cold_large" || name == "expr_churn" || name == "service_mix";
}

RunResult run_workload(const RunOptions& options) {
  if (options.workload == "cold_large") return run_cold_large(options);
  if (options.workload == "expr_churn") return run_expr_churn(options);
  if (options.workload == "service_mix") return run_service_mix(options);
  throw std::invalid_argument("unknown workload " + options.workload);
}

}  // namespace dfbench
