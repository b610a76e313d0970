#include "runtime/multidevice.hpp"

#include <algorithm>

#include "runtime/strategy.hpp"
#include "support/error.hpp"

namespace dfg::runtime {

MultiDeviceReport execute_multi_device_fusion(
    const dataflow::Network& network, const FieldBindings& bindings,
    std::size_t elements, std::vector<vcl::Device*> devices,
    std::vector<vcl::ProfilingLog>& logs) {
  if (devices.empty()) {
    throw NetworkError("multi-device execution requires at least one device");
  }
  if (logs.size() != devices.size()) {
    throw NetworkError("multi-device execution needs one log per device");
  }

  // One slab plan, run once per device over that device's planes.
  CommandPlan plan =
      lower(StrategyKind::streamed, network, bindings, elements);

  MultiDeviceReport report;
  report.values.assign(elements, 0.0f);

  // Contiguous plane ranges, near-even split; trailing devices may idle
  // when there are fewer planes than devices.
  const std::size_t device_count = devices.size();
  const std::size_t base = plan.slab.total_planes / device_count;
  const std::size_t extra = plan.slab.total_planes % device_count;
  std::size_t begin = 0;
  for (std::size_t d = 0; d < device_count; ++d) {
    const std::size_t span = base + (d < extra ? 1 : 0);
    if (span == 0) continue;
    plan.begin_plane = begin;
    plan.end_plane = begin + span;
    plan.chunk_planes = span;
    run_plan(plan, *devices[d], logs[d], report.values);
    begin += span;
    ++report.devices_used;
  }

  report.device_sim_seconds.reserve(device_count);
  for (const vcl::ProfilingLog& log : logs) {
    const double sim = log.total_sim_seconds();
    report.device_sim_seconds.push_back(sim);
    report.critical_path_sim_seconds =
        std::max(report.critical_path_sim_seconds, sim);
    report.aggregate_sim_seconds += sim;
  }
  return report;
}

}  // namespace dfg::runtime
