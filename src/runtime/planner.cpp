#include "runtime/planner.hpp"

#include <algorithm>
#include <vector>

#include "kernels/backend.hpp"
#include "support/error.hpp"
#include "vcl/cost_model.hpp"

namespace dfg::runtime {

namespace {

using Op = Command::Op;
using Data = Command::Data;

/// Resolves the 0 = "process default" sentinel of the public estimators:
/// an engine-less caller executes launches under the DFGEN_BACKEND
/// backend, so that is the efficiency its measured simulated time carries.
double resolve_efficiency(double requested) {
  if (requested > 0.0) return requested;
  return kernels::backend_for(kernels::default_backend_kind())
      ->compute_efficiency();
}

/// Replays a plan's commands without executing them: the allocations and
/// frees the interpreter makes, for the device-memory peak, and — given a
/// cost model — the transfers and kernels it enqueues, priced with the
/// sizes it would give them. Warm field uploads (per `residency`) neither
/// allocate nor transfer: their buffers are resident already.
class Walker {
 public:
  Walker(const CommandPlan& plan, const Residency* residency,
         const vcl::CostModel* cost = nullptr, double efficiency = 0.0)
      : plan_(plan),
        residency_(residency),
        cost_(cost),
        efficiency_(efficiency),
        // An unresolved chunk size takes the one-plane floor.
        step_(plan.chunk_planes != 0 ? plan.chunk_planes
                                     : chunk_planes(plan.slab, 0)),
        floats_(static_cast<std::size_t>(plan.buffers)),
        charged_(static_cast<std::size_t>(plan.buffers)) {}

  /// One run of the commands over `cells` cells (the element count of a
  /// flat plan, one chunk's slab cells of a slab plan). Returns the run's
  /// (upload, kernel, read) seconds.
  vcl::ChunkCost walk(std::size_t cells) {
    vcl::ChunkCost chunk;
    for (const Command& cmd : plan_.commands) {
      switch (cmd.op) {
        case Op::alloc:
        case Op::upload: {
          const std::size_t n = cmd.floats + cmd.stride * cells;
          const bool warm = cmd.op == Op::upload && cmd.data == Data::field &&
                            residency_ != nullptr &&
                            residency_->is_warm(cmd.field);
          floats_[cmd.buffer] = n;
          charged_[cmd.buffer] = warm ? 0 : n;
          if (warm) break;
          live_ += n;
          peak_ = std::max(peak_, live_);
          if (cmd.op == Op::upload) chunk.upload += transfer(n, writes_);
          break;
        }
        case Op::launch:
          if (cost_ != nullptr) {
            const kernels::Program& program = *cmd.program;
            const double seconds = cost_->kernel_seconds(
                program.flops_per_item() * cells,
                program.global_bytes_per_item() * cells,
                program.max_live_scalar_registers(), efficiency_);
            chunk.kernel += seconds;
            kernels_ += seconds;
          }
          break;
        case Op::read:
          chunk.read += transfer(floats_[cmd.buffer], reads_);
          break;
        case Op::free:
          live_ -= charged_[cmd.buffer];
          charged_[cmd.buffer] = 0;
          break;
        case Op::fill:
        case Op::slice:
          break;  // host-side
      }
    }
    return chunk;
  }

  /// Calls fn(slab cells) for every chunk of a slab plan, in run order.
  template <typename Fn>
  void for_each_chunk(Fn&& fn) const {
    for (std::size_t begin = plan_.begin_plane; begin < plan_.end_plane;
         begin += step_) {
      fn(slab_cells(begin));
    }
  }

  /// The largest slab any chunk of a slab plan runs over. Every chunk
  /// between the first and the last is full and keeps both halos inside
  /// the domain (a halo is at most one plane), so the first, second and
  /// last chunks bound them all.
  std::size_t largest_slab() const {
    if (plan_.begin_plane >= plan_.end_plane) return 0;
    const std::size_t last =
        (plan_.end_plane - plan_.begin_plane - 1) / step_;
    std::size_t largest = 0;
    for (const std::size_t k : {std::size_t{0}, std::min<std::size_t>(1, last),
                                last}) {
      largest = std::max(largest, slab_cells(plan_.begin_plane + k * step_));
    }
    return largest;
  }

  std::size_t peak_bytes() const { return peak_ * sizeof(float); }
  /// Seconds per event kind, accumulated in command order and combined in
  /// vcl::EventKind order as ProfilingLog totals them, so a fault-free
  /// run's measured simulated seconds equal them exactly.
  double seconds() const { return writes_ + reads_ + kernels_; }

 private:
  /// Cells of the slab whose interior begins at plane `begin`.
  std::size_t slab_cells(std::size_t begin) const {
    const SlabPlan& slab = plan_.slab;
    const std::size_t end = std::min(plan_.end_plane, begin + step_);
    return (slab.slab_hi(end) - slab.slab_lo(begin)) * slab.plane_cells;
  }

  /// Prices one transfer into its event kind's total.
  double transfer(std::size_t floats, double& total) {
    if (cost_ == nullptr) return 0.0;
    const double seconds = cost_->transfer_seconds(floats * sizeof(float));
    total += seconds;
    return seconds;
  }

  const CommandPlan& plan_;
  const Residency* residency_;
  const vcl::CostModel* cost_;
  double efficiency_;
  /// Planes per chunk (slab plans).
  std::size_t step_;
  std::vector<std::size_t> floats_;
  /// Floats a buffer holds against device memory (0 when resident).
  std::vector<std::size_t> charged_;
  std::size_t live_ = 0;
  std::size_t peak_ = 0;
  double writes_ = 0.0;
  double reads_ = 0.0;
  double kernels_ = 0.0;
};

std::size_t plan_high_water(const CommandPlan& plan,
                            const Residency* residency) {
  Walker walker(plan, residency);
  // Chunks run one after another and free everything they allocate, and
  // every size grows with the slab, so the largest slab sets the peak.
  walker.walk(plan.slabbed ? walker.largest_slab() : plan.elements);
  return walker.peak_bytes();
}

/// Simulated seconds of running `plan`; with `chunks`, also each chunk's
/// (upload, kernel, read) split (one entry for a flat plan).
double plan_sim_seconds(const CommandPlan& plan, const vcl::CostModel& cost,
                        double efficiency, const Residency* residency,
                        std::vector<vcl::ChunkCost>* chunks = nullptr) {
  Walker walker(plan, residency, &cost, efficiency);
  const auto run = [&](std::size_t cells) {
    const vcl::ChunkCost chunk = walker.walk(cells);
    if (chunks != nullptr) chunks->push_back(chunk);
  };
  if (!plan.slabbed) {
    run(plan.elements);
  } else {
    walker.for_each_chunk(run);
  }
  return walker.seconds();
}

}  // namespace

std::vector<vcl::ChunkCost> streamed_chunk_costs(
    const dataflow::Network& network, const FieldBindings& bindings,
    std::size_t elements, const vcl::DeviceSpec& spec,
    std::size_t chunk_cells, double compute_efficiency) {
  std::vector<vcl::ChunkCost> chunks;
  plan_sim_seconds(
      lower(StrategyKind::streamed, network, bindings, elements, chunk_cells),
      vcl::CostModel(spec), resolve_efficiency(compute_efficiency), nullptr,
      &chunks);
  return chunks;
}

Residency Residency::probe(const vcl::Device& device,
                           const FieldBindings& bindings,
                           const dataflow::Network& network) {
  Residency res;
  const vcl::ResidentPool& pool = device.resident();
  if (!pool.enabled()) return res;
  for (const dataflow::SpecNode& node : network.spec().nodes()) {
    if (node.type != dataflow::NodeType::field_source) continue;
    if (!bindings.has(node.field_name)) continue;
    if (pool.would_hit(bindings.get(node.field_name))) {
      res.warm.insert(node.field_name);
    }
  }
  return res;
}

std::size_t estimate_high_water(const dataflow::Network& network,
                                const FieldBindings& bindings,
                                std::size_t elements, StrategyKind kind,
                                std::size_t streamed_chunk_cells,
                                const Residency* residency) {
  return plan_high_water(
      lower(kind, network, bindings, elements, streamed_chunk_cells),
      residency);
}

double estimate_sim_seconds(const dataflow::Network& network,
                            const FieldBindings& bindings,
                            std::size_t elements, const vcl::DeviceSpec& spec,
                            StrategyKind kind,
                            std::size_t streamed_chunk_cells,
                            const Residency* residency,
                            double compute_efficiency) {
  CommandPlan plan;
  try {
    plan = lower(kind, network, bindings, elements, streamed_chunk_cells);
  } catch (const KernelError&) {
    if (kind != StrategyKind::streamed) throw;
    // Streamed cannot execute this network; the ladder would land on a
    // neighbouring rung, whose cost is close enough for budgeting.
    plan = lower(StrategyKind::fusion, network, bindings, elements);
  }
  return plan_sim_seconds(plan, vcl::CostModel(spec),
                          resolve_efficiency(compute_efficiency), residency);
}

StrategyKind select_strategy(const dataflow::Network& network,
                             const FieldBindings& bindings,
                             std::size_t elements,
                             const vcl::Device& device) {
  // Effective headroom: the tracker's free memory clamped by any injected
  // synthetic capacity, so selection agrees with what allocation enforces.
  const std::size_t free_bytes = device.effective_available();
  std::size_t smallest = SIZE_MAX;
  // Preference order by measured simulated runtime. Streamed is skipped
  // (KernelError) on networks it cannot execute, e.g. gradients of
  // computed values.
  for (const StrategyKind kind :
       {StrategyKind::fusion, StrategyKind::streamed, StrategyKind::staged,
        StrategyKind::roundtrip}) {
    std::size_t needed;
    try {
      needed = estimate_high_water(network, bindings, elements, kind);
    } catch (const KernelError&) {
      continue;
    }
    if (needed <= free_bytes) return kind;
    smallest = std::min(smallest, needed);
  }
  throw DeviceOutOfMemory(device.spec().name, smallest,
                          device.memory().in_use(),
                          device.memory().capacity());
}

StrategyKind select_fastest_strategy(const dataflow::Network& network,
                                     const FieldBindings& bindings,
                                     std::size_t elements,
                                     const vcl::Device& device,
                                     const Residency* residency,
                                     double compute_efficiency) {
  const double efficiency = resolve_efficiency(compute_efficiency);
  const vcl::CostModel cost(device.spec());
  const std::size_t free_bytes = device.effective_available();
  bool found = false;
  StrategyKind best = StrategyKind::roundtrip;
  double best_seconds = 0.0;
  std::size_t smallest = SIZE_MAX;
  // Iterate in select_strategy's preference order so equal-cost candidates
  // resolve identically (strict < keeps the earlier rung).
  for (const StrategyKind kind :
       {StrategyKind::fusion, StrategyKind::streamed, StrategyKind::staged,
        StrategyKind::roundtrip}) {
    CommandPlan plan;
    try {
      plan = lower(kind, network, bindings, elements);
    } catch (const KernelError&) {
      continue;
    }
    const std::size_t needed = plan_high_water(plan, residency);
    if (needed > free_bytes) {
      smallest = std::min(smallest, needed);
      continue;
    }
    const double seconds = plan_sim_seconds(plan, cost, efficiency, residency);
    if (!found || seconds < best_seconds) {
      found = true;
      best = kind;
      best_seconds = seconds;
    }
  }
  if (!found) {
    throw DeviceOutOfMemory(device.spec().name, smallest,
                            device.memory().in_use(),
                            device.memory().capacity());
  }
  return best;
}

}  // namespace dfg::runtime
