#include "vcl/queue.hpp"

#include <algorithm>
#include <cstring>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "support/checksum.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/stopwatch.hpp"

namespace dfg::vcl {

namespace {

/// Mirrors one recorded Event into the metrics registry: the per-device
/// event/byte/sim-nanosecond counters (always live — the report structs are
/// views over their deltas) and, when metrics are enabled, the per-command
/// simulated-latency histogram. Commands execute on the evaluating thread
/// (parallel_for workers never reach here), so thread-shard deltas
/// attribute exactly one evaluation's traffic.
void count_event(const std::string& device, EventKind kind, std::size_t bytes,
                 std::uint64_t flops, double sim_seconds) {
  obs::MetricsRegistry& reg = obs::metrics();
  const obs::Labels by_kind{{"device", device},
                            {"kind", event_kind_slug(kind)}};
  const std::uint64_t nanos = obs::sim_nanos(sim_seconds);
  reg.add(reg.counter("dfgen_vcl_events_total", by_kind));
  reg.add(reg.counter("dfgen_vcl_bytes_total", by_kind), bytes);
  reg.add(reg.counter("dfgen_vcl_sim_nanos_total", by_kind), nanos);
  if (flops != 0) {
    reg.add(reg.counter("dfgen_vcl_flops_total", {{"device", device}}),
            flops);
  }
  reg.observe(reg.histogram("dfgen_vcl_command_sim_nanos", by_kind), nanos);
}

}  // namespace

void CommandQueue::run_command(
    EventKind site, const std::string& label, std::size_t bytes,
    std::uint64_t flops, double estimate_seconds, bool verify,
    const std::function<std::span<float>(std::uint64_t&)>& execute) {
  FaultInjector& fault = device_->fault();
  const bool armed = fault.armed();
  if (armed) fault.set_sink(log_);
  const RetryPolicy& policy = device_->retry_policy();
  const char* site_name = event_kind_name(site);
  const std::string& device_name = device_->spec().name;
  // One command = one span, covering every retry attempt. The simulated
  // time attributed to it is the sum of everything charged to the device
  // timeline on its behalf (backoffs, burnt deadlines, re-executions).
  obs::Span span(std::string(site_name) + ":" + label, "command");

  for (int attempt = 1;; ++attempt) {
    CommandPerturbation perturbation;
    if (armed) {
      try {
        perturbation = fault.on_enqueue(site, label);
      } catch (const DeviceError&) {
        // Transient: back off (simulated, seeded) and re-enqueue until the
        // attempt budget is spent; then let the error reach the fallback
        // layer, which degrades the strategy instead.
        if (attempt >= policy.max_attempts) throw;
        const double backoff = fault.backoff_seconds(attempt, policy);
        log_->record(Event{EventKind::fault,
                           "retry:" + std::string(site_name) + ":" + label,
                           0, 0, backoff, 0.0});
        count_event(device_name, EventKind::fault, 0, 0, backoff);
        obs::metrics().add(obs::metrics().counter(
            "dfgen_vcl_command_retries_total", {{"device", device_name}}));
        span.add_sim_seconds(backoff);
        continue;
      }
    }

    // Watchdog: simulated timing is deterministic, so the charged duration
    // is known before the command runs and an over-deadline command is
    // abandoned up front — the virtual analogue of a watchdog killing a
    // wedged or crawling command at the deadline. The deadline itself is
    // charged to the timeline: the device *was* tied up that long.
    const double factor = device_->watchdog_factor();
    const double charged = estimate_seconds * perturbation.time_scale;
    const bool over_deadline =
        factor > 0.0 && charged > factor * estimate_seconds;
    if (perturbation.hang || over_deadline) {
      const double deadline =
          factor > 0.0 ? factor * estimate_seconds : estimate_seconds;
      log_->record(Event{EventKind::timeout,
                         "timeout:" + std::string(site_name) + ":" + label,
                         bytes, 0, deadline, 0.0});
      count_event(device_name, EventKind::timeout, bytes, 0, deadline);
      span.add_sim_seconds(deadline);
      // A hang is one wedged command: a fresh attempt probes the device
      // and is absorbed by the retry budget. An over-deadline slowdown is
      // a device-wide condition — the deadline charge already proved the
      // device slow, so re-probing would only burn another deadline;
      // escalate immediately and let the fallback ladder (or the
      // distributed engine's quarantine) move the work.
      if (!perturbation.hang || attempt >= policy.max_attempts) {
        throw DeviceTimeout(device_->spec().name, site_name, label,
                            estimate_seconds, deadline);
      }
      continue;
    }

    std::uint64_t expected = 0;
    support::Stopwatch watch;
    const std::span<float> destination = execute(expected);
    if (armed && perturbation.corrupt && !destination.empty()) {
      fault.corrupt_word(site, label, destination);
    }
    // End-to-end integrity: the destination must mirror the source bit for
    // bit.
    const bool intact =
        !verify ||
        support::checksum_floats(destination, integrity_seed_) == expected;
    const double wall = watch.seconds();

    if (!intact) {
      // A mismatch re-executes the transfer (charged — the corrupted
      // transfer consumed device time) until the retry budget is spent,
      // then escalates as DataCorruption.
      log_->record(Event{EventKind::integrity,
                         "checksum:" + std::string(site_name) + ":" + label,
                         bytes, 0, charged, wall});
      count_event(device_name, EventKind::integrity, bytes, 0, charged);
      span.add_sim_seconds(charged);
      if (attempt >= policy.max_attempts) {
        throw DataCorruption(device_->spec().name, site_name, label);
      }
      continue;
    }

    log_->record(Event{site, label, bytes, flops, charged, wall});
    count_event(device_name, site, bytes, flops, charged);
    span.add_sim_seconds(charged);
    complete();
    return;
  }
}

void CommandQueue::complete() {
  FaultInjector& fault = device_->fault();
  if (fault.armed()) fault.note_complete();
}

void CommandQueue::write(Buffer& buffer, std::span<const float> host,
                         const std::string& label) {
  if (host.size() > buffer.size()) {
    throw KernelError("write of " + std::to_string(host.size()) +
                      " elements exceeds buffer '" + label + "' extent " +
                      std::to_string(buffer.size()));
  }
  const std::size_t bytes = host.size() * sizeof(float);
  const std::span<float> view = buffer.device_view();
  std::fill(view.begin() + static_cast<std::ptrdiff_t>(host.size()),
            view.end(), 0.0f);
  run_command(EventKind::host_to_device, label, bytes, 0,
              cost_.transfer_seconds(bytes), /*verify=*/true,
              [&](std::uint64_t& source_digest) -> std::span<float> {
                const std::span<float> destination = view.first(host.size());
                source_digest = support::copy_and_checksum_floats(
                    host, destination, integrity_seed_);
                return destination;
              });
}

void CommandQueue::read(const Buffer& buffer, std::span<float> host,
                        const std::string& label) {
  if (host.size() < buffer.size()) {
    throw KernelError("read into " + std::to_string(host.size()) +
                      " elements from larger buffer '" + label + "' of " +
                      std::to_string(buffer.size()));
  }
  const std::size_t bytes = buffer.bytes();
  run_command(EventKind::device_to_host, label, bytes, 0,
              cost_.transfer_seconds(bytes), /*verify=*/true,
              [&](std::uint64_t& source_digest) -> std::span<float> {
                const std::span<float> destination = host.first(buffer.size());
                source_digest = support::copy_and_checksum_floats(
                    buffer.device_view(), destination, integrity_seed_);
                return destination;
              });
}

void CommandQueue::launch(const KernelLaunch& launch) {
  if (!launch.body) {
    throw KernelError("kernel '" + launch.label + "' has no body");
  }
  run_command(
      EventKind::kernel_exec, launch.label, launch.global_bytes,
      launch.flops,
      cost_.kernel_seconds(launch.flops, launch.global_bytes,
                           launch.registers_used, launch.compute_efficiency),
      /*verify=*/false,
      [&](std::uint64_t&) -> std::span<float> {
        support::parallel_for(launch.ndrange, launch.body, launch.grain);
        return {};
      });
}

}  // namespace dfg::vcl
