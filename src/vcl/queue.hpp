// Virtual compute layer: in-order command queue.
//
// The analogue of an OpenCL command queue created with profiling enabled.
// Every operation executes synchronously (the paper's framework also
// enqueues, waits and then reads the profiling timestamps), is timed with a
// wall clock, priced by the device cost model, and recorded in the attached
// ProfilingLog as a Dev-W / Dev-R / K-Exe event.
//
// Two defensive layers wrap every command:
//   * a watchdog — the command's charged simulated duration is compared
//     against `device.watchdog_factor()` times its cost-model estimate; a
//     command that would exceed the deadline (an injected hang or a severe
//     slowdown) is abandoned and the deadline is charged to the timeline
//     as a T-Out event. A hang is retried (one wedged command, a fresh
//     attempt probes the device); a slowdown escalates as DeviceTimeout
//     immediately — it is a device-wide condition and re-probing would
//     only burn another deadline;
//   * end-to-end transfer integrity — every transfer digests its source
//     in the same pass as the copy (support::copy_and_checksum_floats) and
//     verifies the destination against it afterwards; a mismatch (an
//     injected bit-flip) is charged as a Chksum event and the transfer
//     re-executed, then DataCorruption escapes. Both passes run inside the
//     command's wall-clock stopwatch.
// Both layers are pure observers on a healthy device: the command stream,
// event counts and simulated durations of a fault-free run are
// byte-identical to a build without them.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>

#include "obs/metrics.hpp"
#include "support/checksum.hpp"
#include "vcl/buffer.hpp"
#include "vcl/cost_model.hpp"
#include "vcl/device.hpp"
#include "vcl/profiling.hpp"

namespace dfg::vcl {

/// Everything the queue needs to dispatch one kernel over a 1-D NDRange.
/// The body is invoked over disjoint [begin, end) chunks, possibly
/// concurrently, covering [0, ndrange).
struct KernelLaunch {
  std::string label;
  std::size_t ndrange = 0;
  /// Totals across the whole NDRange, used by the cost model.
  std::uint64_t flops = 0;
  std::size_t global_bytes = 0;
  int registers_used = 0;
  /// Work-partitioning grain: worker chunks are multiples of this (except
  /// the NDRange tail). Strategies launching bytecode programs set it to
  /// kernels::kTileSize so the tiled VM only ever sees whole tiles; the
  /// default of 1 reproduces plain ceil(n/workers) chunking.
  std::size_t grain = 1;
  /// Fraction of peak flop rate the cost model credits this launch — set
  /// from the executing backend (interpreted dispatch keeps the historical
  /// CostModel::kComputeEfficiency; jit-compiled launches run at
  /// kernels::kCompiledEfficiency). The watchdog estimate uses the same
  /// value, so switching backends rescales estimate and charge together
  /// and never trips a deadline by itself.
  double compute_efficiency = CostModel::kComputeEfficiency;
  std::function<void(std::size_t, std::size_t)> body;
};

class CommandQueue {
 public:
  CommandQueue(Device& device, ProfilingLog& log)
      : device_(&device),
        log_(&log),
        cost_(device.spec()),
        registry_(&obs::metrics()),
        integrity_seed_(support::fnv1a(device.spec().name)) {
    // Injected faults during this queue's lifetime (including allocation
    // faults raised outside the queue) are recorded into this log.
    device_->fault().set_sink(log_);
  }

  Device& device() { return *device_; }
  ProfilingLog& log() { return *log_; }

  /// Host-to-device transfer (clEnqueueWriteBuffer). `host` must not exceed
  /// the buffer extent; a shorter write zero-fills the rest of the buffer,
  /// whose recycled storage would otherwise hold stale words.
  void write(Buffer& buffer, std::span<const float> host,
             const std::string& label);

  /// Device-to-host transfer (clEnqueueReadBuffer). `host` must be at least
  /// the buffer extent.
  void read(const Buffer& buffer, std::span<float> host,
            const std::string& label);

  /// Kernel dispatch (clEnqueueNDRangeKernel) over launch.ndrange items.
  void launch(const KernelLaunch& launch);

 private:
  /// Runs one command through the full defensive stack: fault-injection
  /// gate (transient retries with seeded backoff), watchdog deadline, the
  /// command body, integrity verification, and event recording. `execute`
  /// performs the data movement / dispatch and returns the destination
  /// span. A transfer (`verify` set) also stores the digest of its source,
  /// computed in the same pass as the copy on every attempt, through the
  /// argument, and its destination is verified against it. Kernels pass
  /// `verify` false: their output integrity is covered by the later
  /// readback checksum.
  void run_command(
      EventKind site, const std::string& label, std::size_t bytes,
      std::uint64_t flops, double estimate_seconds, bool verify,
      const std::function<std::span<float>(std::uint64_t&)>& execute);

  /// Marks a command complete (advances the device-loss countdown).
  void complete();

  /// Mirrors one recorded Event into the metrics registry: the per-device
  /// event/byte/sim-nanosecond counters (always live — the report structs
  /// are views over their deltas) and, when metrics are enabled, the
  /// per-command simulated-latency histogram.
  void count_event(EventKind kind, std::size_t bytes, std::uint64_t flops,
                   double sim_seconds);

  /// One event kind's registry series on this queue's device, resolved at
  /// the kind's first event (so unused kinds register nothing).
  struct EventSeries {
    bool resolved = false;
    obs::MetricId events = 0;
    obs::MetricId bytes = 0;
    obs::MetricId sim_nanos = 0;
    obs::MetricId command_sim_nanos = 0;
  };

  Device* device_;
  ProfilingLog* log_;
  CostModel cost_;
  obs::MetricsRegistry* registry_;
  std::array<EventSeries, kEventKindCount> series_{};
  std::optional<obs::MetricId> flops_series_;
  /// Seed of the transfer checksums, derived from the device name so two
  /// devices never share a digest stream.
  std::uint64_t integrity_seed_;
};

}  // namespace dfg::vcl
