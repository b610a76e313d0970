// Runtime layer: execution strategies as command plans.
//
// The paper's §III-C: a strategy controls data movement and how the
// per-primitive kernels are composed to compute a network's result. Each
// strategy exists once, as a *lowering* of the network to a CommandPlan —
// a flat list of device commands over numbered buffers (alloc, upload,
// launch, read, free, plus two host steps). The plan is then either
//
//   * interpreted — run_plan executes it against a vcl::Device through one
//     CommandQueue (the profiled commands the paper's figures count), or
//   * walked — the planner (planner.hpp) prices the same commands for their
//     device-memory high-water mark and cost-model seconds,
//
// so a strategy's estimate and its execution cannot drift apart. Adding a
// strategy means adding a lowering here, never touching a kernel.
//
//  * roundtrip — one kernel per filter; every kernel-argument occurrence is
//    uploaded, every result downloaded, so intermediates live in host
//    memory. Decompose happens on the host (array slicing) and constants
//    are materialised host-side. Slowest, but the least device memory: its
//    footprint is the largest single kernel's working set.
//  * staged — one kernel per filter with intermediates staged in device
//    global memory; unique inputs upload once (lazily, at their first
//    consumer), one final download. Decompose and constant materialisation
//    become kernels. Fastest per byte moved, but the largest device
//    footprint (bounded by reference counting, which frees intermediates
//    after their last consumer).
//  * fusion — the dynamic kernel generator fuses the whole network into one
//    kernel whose intermediates live in registers; unique inputs upload
//    once, one kernel, one download. Networks taking gradients of computed
//    values run the partitioned pipeline: one fused kernel per
//    materialisation barrier, intermediates staying on the device.
//
// A fourth strategy implements the paper's future work:
//
//  * streamed — the fused kernel executed over z-plane slabs sized to a
//    device budget (gradient halos included), bounding device memory at
//    O(chunk) so data sets larger than the device still run. Its plan is
//    one slab body plus a range of planes; the body runs once per chunk.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dataflow/network.hpp"
#include "kernels/program.hpp"
#include "runtime/bindings.hpp"
#include "kernels/generator.hpp"
#include "vcl/device.hpp"
#include "vcl/profiling.hpp"

namespace dfg::runtime {

enum class StrategyKind { roundtrip, staged, fusion, streamed };

const char* strategy_name(StrategyKind kind);

/// How a fused program's NDRange decomposes into z-plane slabs. A slab
/// uploads only its sub-range of every buffer parameter, plus halo planes
/// when the kernel contains gradients (whose stencil reaches one plane up
/// and down); the gradient's `dims` argument is rewritten per slab so the
/// stencil sees the local plane count. Interior planes have both stencil
/// neighbours inside the slab, so they are bit-identical to a whole-grid
/// run; the halo planes' own outputs are discarded.
struct SlabPlan {
  /// Cells per plane: nx*ny for gradient kernels, 1 for pure elementwise
  /// programs (which may chunk at any element granularity).
  std::size_t plane_cells = 1;
  /// Total planes: nz, or the element count for elementwise programs.
  std::size_t total_planes = 0;
  /// Halo planes required on each side of a slab (1 with gradients).
  std::size_t halo = 0;
  /// Grid dims (meaningful when halo > 0).
  std::size_t nx = 0, ny = 0, nz = 0;
  /// Number of problem-sized buffer parameters (excludes dims).
  std::size_t slabbed_params = 0;

  std::size_t total_elements() const { return plane_cells * total_planes; }
  /// First plane of the slab whose interior begins at plane `begin`, and
  /// the plane past the slab whose interior ends at `end`: halos clamped
  /// at the domain faces.
  std::size_t slab_lo(std::size_t begin) const {
    return begin > halo ? begin - halo : 0;
  }
  std::size_t slab_hi(std::size_t end) const {
    return std::min(total_planes, end + halo);
  }
};

/// Analyses a fused program against the bindings: detects gradient usage
/// (via its dims argument), validates the grid shape, and returns the plane
/// decomposition. Throws NetworkError when a gradient program's dims
/// binding is missing or inconsistent with `elements`.
SlabPlan make_slab_plan(const kernels::Program& program,
                        const FieldBindings& bindings, std::size_t elements);

/// Planes per streamed chunk for a working-set budget of `budget_cells`
/// slab cells: the budget's whole planes less the halo planes on each
/// side, clamped to [1, total planes]. A budget of 0 gives the one-plane
/// floor.
std::size_t chunk_planes(const SlabPlan& slab, std::size_t budget_cells);

/// One step of a command plan. Device buffers and host temporaries are
/// numbered per plan; which fields a step uses depends on `op`.
struct Command {
  enum class Op {
    alloc,   ///< `buffer` <- a device buffer of `stride` floats per cell
    upload,  ///< `buffer` <- host data (`data` says which), staged via
             ///< the device's resident pool when pool-eligible
    launch,  ///< `program` over every cell, reading `args` into `buffer`
    read,    ///< `buffer` -> host (`data` says where)
    free,    ///< releases `buffer` (a resident buffer is only forgotten)
    fill,    ///< host temporary `host` <- every cell set to `value`
    slice,   ///< host temporary `host` <- lane `component` of the 4-wide
             ///< host temporary `source`
  };
  /// The host side of an upload or a read.
  enum class Data {
    field,   ///< upload: the bound array `view` (pool-eligible; warm when
             ///< the planner's Residency names `field`)
    host,    ///< upload from / read into host temporary `host`
    slab,    ///< upload: the current slab's sub-range of `view`, pooled
             ///< under the base array's generation tag; read: the slab's
             ///< interior planes into the result
    dims,    ///< upload: the current slab's grad3d dims (nx, ny, planes)
    result,  ///< read: into the evaluation result
  };

  Op op = Op::alloc;
  Data data = Data::field;
  int buffer = -1;
  int host = -1;
  int source = -1;
  /// Device floats an alloc or upload holds: `floats` + `stride` × cells.
  std::size_t floats = 0;
  std::size_t stride = 0;
  int component = 0;
  float value = 0.0f;
  std::span<const float> view;
  /// Residency key of a field upload: the bound name.
  std::string_view field;
  /// Profiling label of an upload or a read.
  std::string label;
  std::shared_ptr<const kernels::Program> program;
  std::vector<int> args;
};

/// A strategy lowered for one network, bindings and element count. The
/// plan borrows the network's and the bindings' storage: it is valid while
/// they are.
struct CommandPlan {
  /// Flat plans run their commands once over `elements` cells. Slab plans
  /// (`slabbed`) run them once per chunk, over the chunk's slab cells.
  std::vector<Command> commands;
  std::size_t elements = 0;
  int buffers = 0;
  int hosts = 0;

  /// A plan whose last value stays on the host (roundtrip) copies its
  /// result from this host temporary, or else from `result_view` when the
  /// output is a bound field; -1 with an empty view means a read fills it.
  int result_host = -1;
  std::span<const float> result_view;

  bool slabbed = false;
  SlabPlan slab;
  /// Slab plans cover planes [begin_plane, end_plane) in chunks of
  /// `chunk_planes`. This is where the streamed strategy's
  /// `streamed_chunk_cells` = 0 lands: a chunk size of 0 is resolved when
  /// the plan runs — run_plan sizes chunks from half the device's free
  /// memory, the planner prices the one-plane floor.
  std::size_t begin_plane = 0;
  std::size_t end_plane = 0;
  std::size_t chunk_planes = 0;
};

/// Lowers `network` under `kind`. `streamed_chunk_cells` applies to the
/// streamed strategy only: the target slab cells per chunk (0 = resolved
/// at run time, see CommandPlan::chunk_planes). Throws NetworkError on
/// unbound fields and KernelError when streamed cannot run the network
/// (gradients of computed values).
CommandPlan lower(StrategyKind kind, const dataflow::Network& network,
                  const FieldBindings& bindings, std::size_t elements,
                  std::size_t streamed_chunk_cells = 0);

/// The fusion lowering of `pipeline`: one kernel per stage, every field
/// uploaded once at first use (in stage-parameter order), materialised
/// intermediates kept on the device for the later stages, and one readback
/// of the last stage under `label`. The hand-written reference kernels run
/// through it as one-stage pipelines.
CommandPlan lower_pipeline(
    const std::shared_ptr<const kernels::FusedPipeline>& pipeline,
    const FieldBindings& bindings, std::size_t elements, std::string label);

/// Interprets `plan` on `device`, recording every command in `log`, and
/// leaves the derived field in `result`. A slab plan writes only its
/// planes' cells (sizing an empty `result` to the element count first), so
/// several devices can fill one array. Throws DeviceOutOfMemory when the
/// working set exceeds the device (the paper's failed GPU test cases).
void run_plan(const CommandPlan& plan, vcl::Device& device,
              vcl::ProfilingLog& log, std::vector<float>& result);

/// lower + run_plan: executes `network` over `elements` output cells under
/// `kind`, pulling inputs from the bindings and producing the derived field
/// on the host.
std::vector<float> execute_strategy(StrategyKind kind,
                                    const dataflow::Network& network,
                                    const FieldBindings& bindings,
                                    std::size_t elements, vcl::Device& device,
                                    vcl::ProfilingLog& log,
                                    std::size_t streamed_chunk_cells = 0);

}  // namespace dfg::runtime
