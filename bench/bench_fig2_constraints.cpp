// Figure 2 reproduction: the example dataflow network whose device-memory
// footprint differs per strategy — roundtrip 3 problem-sized arrays, staged
// 4, fusion 5. The google-benchmark section dispatches each strategy on the
// example network so the footprint/latency trade-off is visible in one
// place.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "dataflow/network.hpp"
#include "dataflow/spec.hpp"

namespace {

/// Four problem-sized inputs, two first-level filters, one combiner — the
/// shape Figure 2 annotates.
dfg::dataflow::Network example_network() {
  dfg::dataflow::NetworkSpec spec;
  const int a = spec.add_field_source("A");
  const int b = spec.add_field_source("B");
  const int c = spec.add_field_source("C");
  const int d = spec.add_field_source("D");
  const int t1 = spec.add_filter("add", {a, b});
  const int t2 = spec.add_filter("mult", {c, d});
  spec.set_output(spec.add_filter("sub", {t1, t2}));
  return dfg::dataflow::Network(std::move(spec));
}

constexpr std::size_t kElements = 1 << 16;

double run_strategy(dfg::runtime::StrategyKind kind, std::size_t elements,
                    std::size_t* high_water) {
  const dfg::dataflow::Network network = example_network();
  std::vector<float> data(elements, 1.5f);
  dfg::runtime::FieldBindings bindings;
  for (const auto& name : network.spec().field_names()) {
    bindings.bind(name, data);
  }
  dfg::vcl::Device device(dfgbench::scaled_cpu());
  dfg::vcl::ProfilingLog log;
  dfg::runtime::execute_strategy(kind, network, bindings, elements, device,
                                 log);
  if (high_water != nullptr) *high_water = device.memory().high_water();
  return log.total_sim_seconds();
}

void print_figure2() {
  std::printf("=== Figure 2: per-strategy device memory constraints ===\n");
  std::printf("example network: T1 = A + B ; T2 = C * D ; out = T1 - T2\n");
  std::printf("%-10s | %18s | %8s | paper\n", "Strategy",
              "high water (bytes)", "arrays");
  const std::size_t array_bytes = kElements * sizeof(float);
  const int paper_arrays[] = {3, 4, 5};
  int idx = 0;
  for (const auto kind : {dfg::runtime::StrategyKind::roundtrip,
                          dfg::runtime::StrategyKind::staged,
                          dfg::runtime::StrategyKind::fusion}) {
    std::size_t high_water = 0;
    run_strategy(kind, kElements, &high_water);
    std::printf("%-10s | %18zu | %8.1f | %d\n",
                dfg::runtime::strategy_name(kind), high_water,
                static_cast<double>(high_water) /
                    static_cast<double>(array_bytes),
                paper_arrays[idx++]);
  }
  std::printf("\n");
}

void BM_ExampleNetwork(benchmark::State& state) {
  const auto kind =
      static_cast<dfg::runtime::StrategyKind>(state.range(0));
  std::size_t high_water = 0;
  double sim = 0.0;
  for (auto _ : state) {
    sim = run_strategy(kind, kElements, &high_water);
  }
  state.counters["sim_ms"] = sim * 1e3;
  state.counters["high_water_arrays"] =
      static_cast<double>(high_water) /
      static_cast<double>(kElements * sizeof(float));
  state.SetLabel(dfg::runtime::strategy_name(kind));
}
BENCHMARK(BM_ExampleNetwork)->DenseRange(0, 2)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  dfgbench::check_environment();
  print_figure2();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
