#include "runtime/strategy.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "kernels/backend.hpp"
#include "kernels/generator.hpp"
#include "kernels/program_cache.hpp"
#include "kernels/vm.hpp"
#include "support/error.hpp"
#include "vcl/buffer.hpp"
#include "vcl/queue.hpp"

namespace dfg::runtime {

namespace {

using Op = Command::Op;
using Data = Command::Data;

/// Parameter slots holding the grad3d `dims` argument (3 floats, rewritten
/// per slab rather than slabbed).
std::set<std::uint16_t> dims_slots(const kernels::Program& program) {
  std::set<std::uint16_t> slots;
  for (const kernels::Instr& instr : program.code()) {
    if (instr.op == kernels::Op::grad3d) slots.insert(instr.args[1]);
  }
  return slots;
}

/// Appends commands to a plan, numbering buffers and host temporaries.
class PlanBuilder {
 public:
  explicit PlanBuilder(std::size_t elements) { plan_.elements = elements; }

  /// `floats`: the host data's size for a host-temporary upload.
  int upload(Data data, std::string label, std::span<const float> view = {},
             std::string_view field = {}, int host = -1,
             std::size_t floats = 0) {
    Command& cmd = push(Op::upload, plan_.buffers++);
    cmd.data = data;
    cmd.label = std::move(label);
    cmd.view = view;
    cmd.field = field;
    cmd.host = host;
    cmd.floats = data == Data::field ? view.size()
                 : data == Data::dims ? 3
                                      : floats;
    cmd.stride = data == Data::slab ? 1 : 0;
    return cmd.buffer;
  }
  int alloc(std::size_t stride) {
    Command& cmd = push(Op::alloc, plan_.buffers++);
    cmd.stride = stride;
    return cmd.buffer;
  }
  void launch(std::shared_ptr<const kernels::Program> program,
              std::vector<int> args, int out) {
    Command& cmd = push(Op::launch, out);
    cmd.program = std::move(program);
    cmd.args = std::move(args);
  }
  void read(int buffer, Data data, std::string label, int host = -1) {
    Command& cmd = push(Op::read, buffer);
    cmd.data = data;
    cmd.host = host;
    cmd.label = std::move(label);
  }
  void free(int buffer) { push(Op::free, buffer); }
  int host() { return plan_.hosts++; }
  int fill(float value) {
    Command& cmd = push(Op::fill, -1);
    cmd.host = host();
    cmd.value = value;
    return cmd.host;
  }
  int slice(int source, int component) {
    Command& cmd = push(Op::slice, -1);
    cmd.host = host();
    cmd.source = source;
    cmd.component = component;
    return cmd.host;
  }

  CommandPlan& plan() { return plan_; }

 private:
  Command& push(Op op, int buffer) {
    Command& cmd = plan_.commands.emplace_back();
    cmd.op = op;
    cmd.buffer = buffer;
    return cmd;
  }

  CommandPlan plan_;
};

// Roundtrip (paper §III-C1): one kernel dispatch per filter, with *every*
// kernel argument uploaded at dispatch time (an argument used twice is
// written twice) and every result transferred straight back to the host.
// The device only ever holds one kernel's working set. Decompose runs on
// the host as array slicing, and constants are host arrays uploaded per
// use (both per the device-event accounting of the paper's Table II).
CommandPlan lower_roundtrip(const dataflow::Network& network,
                            const FieldBindings& bindings,
                            std::size_t elements) {
  const auto& spec = network.spec();
  PlanBuilder b(elements);
  // Each node's host value: a host temporary and its size in floats.
  std::vector<int> host_of(spec.nodes().size(), -1);
  std::vector<std::size_t> floats_of(spec.nodes().size(), elements);
  for (const int id : network.topo_order()) {
    const dataflow::SpecNode& node = spec.node(id);
    switch (node.type) {
      case dataflow::NodeType::field_source:
        bindings.get(node.field_name);  // unbound fields fail up front
        continue;
      case dataflow::NodeType::constant:
        host_of[id] = b.fill(static_cast<float>(node.const_value));
        continue;
      case dataflow::NodeType::filter:
        break;
    }
    if (node.kind == "decompose") {
      host_of[id] = b.slice(host_of[node.inputs[0]], node.component);
      continue;
    }
    std::shared_ptr<const kernels::Program> program =
        kernels::ProgramCache::instance().standalone(node.kind,
                                                     node.component);
    // Only bound field arrays are pool-eligible: host intermediates die at
    // the end of the evaluation and must stay transient.
    std::vector<int> args;
    args.reserve(node.inputs.size());
    for (const int in : node.inputs) {
      const dataflow::SpecNode& arg = spec.node(in);
      std::string label = node.kind + ":" + arg.label;
      args.push_back(
          arg.type == dataflow::NodeType::field_source
              ? b.upload(Data::field, std::move(label),
                         bindings.get(arg.field_name), arg.field_name)
              : b.upload(Data::host, std::move(label), {}, {}, host_of[in],
                         floats_of[in]));
    }
    floats_of[id] = elements * program->out_stride();
    const int out = b.alloc(program->out_stride());
    b.launch(std::move(program), args, out);
    host_of[id] = b.host();
    b.read(out, Data::host, node.label, host_of[id]);
    b.free(out);
    for (const int arg : args) b.free(arg);
  }
  const dataflow::SpecNode& out = spec.node(spec.output_id());
  if (out.type == dataflow::NodeType::field_source) {
    b.plan().result_view = bindings.get(out.field_name);
  } else {
    b.plan().result_host = host_of[spec.output_id()];
  }
  return std::move(b.plan());
}

// Staged (paper §III-C2): one kernel per filter, but intermediates never
// leave the device. Sources materialise lazily, at their first consumer —
// each unique input still uploads once and each unique constant is filled
// by one kernel, but buffers do not occupy device memory before they are
// needed (the paper's Figure 2 example's staged footprint of 4 arrays,
// not 5). Reference counting frees each value after its last consumer.
CommandPlan lower_staged(const dataflow::Network& network,
                         const FieldBindings& bindings,
                         std::size_t elements) {
  const auto& spec = network.spec();
  PlanBuilder b(elements);
  std::vector<int> buffer_of(spec.nodes().size(), -1);
  std::vector<int> refs = network.use_counts();
  kernels::ProgramCache& cache = kernels::ProgramCache::instance();

  const auto materialise = [&](int id) {
    const dataflow::SpecNode& node = spec.node(id);
    if (node.type == dataflow::NodeType::filter) {
      throw NetworkError("staged execution consumed '" + node.label +
                         "' after its buffer was released");
    }
    if (node.type == dataflow::NodeType::field_source) {
      buffer_of[id] = b.upload(Data::field, node.field_name,
                               bindings.get(node.field_name), node.field_name);
    } else {  // constant: one fill kernel
      buffer_of[id] = b.alloc(1);
      b.launch(cache.standalone("const_fill", 0,
                                static_cast<float>(node.const_value)),
               {}, buffer_of[id]);
    }
  };

  for (const int id : network.topo_order()) {
    const dataflow::SpecNode& node = spec.node(id);
    if (node.type != dataflow::NodeType::filter) continue;
    std::shared_ptr<const kernels::Program> program =
        cache.standalone(node.kind, node.component);
    std::vector<int> args;
    args.reserve(node.inputs.size());
    for (const int in : node.inputs) {
      if (buffer_of[in] < 0) materialise(in);
      args.push_back(buffer_of[in]);
    }
    buffer_of[id] = b.alloc(program->out_stride());
    b.launch(std::move(program), std::move(args), buffer_of[id]);
    for (const int in : node.inputs) {
      if (--refs[in] == 0) {
        b.free(buffer_of[in]);
        buffer_of[in] = -1;
      }
    }
  }
  // The output can be a bare source (e.g. "r = 3.0") no filter consumed.
  const int out_id = spec.output_id();
  if (buffer_of[out_id] < 0) materialise(out_id);
  b.read(buffer_of[out_id], Data::result, spec.node(out_id).label);
  return std::move(b.plan());
}

// Streamed: the single fused kernel over z-plane slabs. The body uploads
// every parameter's slab sub-range (the dims argument rewritten per slab),
// runs the kernel over the slab, reads the whole slab back and keeps its
// interior planes.
CommandPlan lower_streamed(const dataflow::Network& network,
                           const FieldBindings& bindings,
                           std::size_t elements, std::size_t chunk_cells) {
  std::shared_ptr<const kernels::Program> program =
      kernels::ProgramCache::instance().fused_single(network);
  PlanBuilder b(elements);
  CommandPlan& plan = b.plan();
  plan.slabbed = true;
  plan.slab = make_slab_plan(*program, bindings, elements);
  plan.end_plane = plan.slab.total_planes;
  if (chunk_cells != 0) {
    plan.chunk_planes = chunk_planes(plan.slab, chunk_cells);
  }

  const std::set<std::uint16_t> dims = dims_slots(*program);
  std::vector<int> args;
  for (std::size_t slot = 0; slot < program->params().size(); ++slot) {
    const std::string& name = program->params()[slot].name;
    args.push_back(dims.count(static_cast<std::uint16_t>(slot)) != 0
                       ? b.upload(Data::dims, name + "@slab")
                       : b.upload(Data::slab, name + "@slab",
                                  bindings.get(name)));
  }
  const int out = b.alloc(program->out_stride());
  std::string label = program->name() + "@slab";
  b.launch(std::move(program), args, out);
  b.read(out, Data::slab, std::move(label));
  b.free(out);
  for (const int arg : args) b.free(arg);
  return std::move(plan);
}

/// One device buffer of a running plan: a transient buffer it owns, or a
/// view of a pool-resident one.
struct StagedBuffer {
  vcl::Buffer owned;
  const vcl::Buffer* resident = nullptr;

  const vcl::Buffer& get() const {
    return resident != nullptr ? *resident : owned;
  }
};

/// The interpreter's state for one plan run.
class Interpreter {
 public:
  Interpreter(const CommandPlan& plan, vcl::Device& device,
              vcl::ProfilingLog& log, std::vector<float>& result)
      : plan_(plan),
        device_(device),
        queue_(device, log),
        result_(result),
        buffers_(static_cast<std::size_t>(plan.buffers)),
        hosts_(static_cast<std::size_t>(plan.hosts)) {}

  void run_flat() {
    run(plan_.elements);
    if (plan_.result_host >= 0) {
      const std::vector<float>& host = hosts_[plan_.result_host];
      result_.assign(host.begin(),
                     host.begin() + static_cast<long>(plan_.elements));
    } else if (plan_.result_view.data() != nullptr) {
      result_.assign(
          plan_.result_view.begin(),
          plan_.result_view.begin() + static_cast<long>(plan_.elements));
    }
  }

  void run_slabs() {
    const SlabPlan& slab = plan_.slab;
    std::size_t step = plan_.chunk_planes;
    if (step == 0) {
      // Auto: half the device's free memory for the slab working set
      // (inputs + output), leaving room for the host's other buffers. The
      // effective headroom respects an injected synthetic capacity, so a
      // degraded run sizes its chunks to the capacity that actually binds.
      std::size_t bytes_per_cell = 0;
      for (const Command& cmd : plan_.commands) {
        bytes_per_cell += cmd.stride * sizeof(float);
      }
      step = chunk_planes(slab, device_.effective_available() / 2 /
                                    std::max<std::size_t>(bytes_per_cell, 1));
    }
    if (result_.size() < slab.total_elements()) {
      result_.assign(slab.total_elements(), 0.0f);
    }
    for (begin_ = plan_.begin_plane; begin_ < plan_.end_plane;
         begin_ += step) {
      end_ = std::min(plan_.end_plane, begin_ + step);
      lo_ = slab.slab_lo(begin_);
      // Resident sub-range buffers must stay evictable *between* chunks (a
      // scan larger than the pool watermark recycles LRU slabs) but pinned
      // while this chunk's kernel can still read them.
      vcl::ResidentPool::PinScope pins(device_.resident());
      run((slab.slab_hi(end_) - lo_) * slab.plane_cells);
    }
  }

 private:
  void run(std::size_t cells) {
    for (const Command& cmd : plan_.commands) {
      switch (cmd.op) {
        case Op::upload:
          upload(cmd, cells);
          break;
        case Op::alloc:
          buffers_[cmd.buffer].owned =
              device_.allocate(cmd.floats + cmd.stride * cells);
          break;
        case Op::launch:
          launch(cmd, cells);
          break;
        case Op::read:
          read(cmd, buffers_[cmd.buffer].get());
          break;
        case Op::free:
          buffers_[cmd.buffer].owned.release();
          buffers_[cmd.buffer].resident = nullptr;
          break;
        case Op::fill:
          hosts_[cmd.host].assign(plan_.elements, cmd.value);
          break;
        case Op::slice: {
          const std::vector<float>& in = hosts_[cmd.source];
          std::vector<float>& sliced = hosts_[cmd.host];
          sliced.resize(plan_.elements);
          for (std::size_t i = 0; i < plan_.elements; ++i) {
            sliced[i] = in[i * 4 + static_cast<std::size_t>(cmd.component)];
          }
          break;
        }
      }
    }
  }

  /// Dispatches one kernel over `cells` items, with the device's execution
  /// backend as the kernel body.
  void launch(const Command& cmd, std::size_t cells) {
    const kernels::Program& program = *cmd.program;
    std::vector<kernels::BufferBinding> inputs;
    inputs.reserve(cmd.args.size());
    for (const int arg : cmd.args) {
      const vcl::Buffer& buffer = buffers_[arg].get();
      inputs.push_back({buffer.device_view().data(), buffer.size()});
    }
    // Preparation happens before the launch is enqueued: a jit backend's
    // one-time compile (or its decision to degrade this program to the VM)
    // is charged as its own span, never against the kernel-exec command the
    // watchdog deadlines.
    kernels::ExecutionBackend& backend = device_.backend();
    std::shared_ptr<const kernels::CompiledKernel> kernel =
        backend.prepare(program);
    vcl::KernelLaunch launch;
    launch.label = program.name();
    launch.ndrange = cells;
    launch.flops = program.flops_per_item() * cells;
    launch.global_bytes = program.global_bytes_per_item() * cells;
    launch.registers_used = program.max_live_scalar_registers();
    launch.grain = kernels::kTileSize;
    launch.compute_efficiency = backend.compute_efficiency();
    const std::span<float> out = buffers_[cmd.buffer].owned.device_view();
    launch.body = [&program, kernel = std::move(kernel),
                   inputs = std::move(inputs),
                   out](std::size_t begin, std::size_t end) {
      kernel->run(program, inputs, out.data(), out.size(), begin, end);
    };
    queue_.launch(launch);
  }

  /// Stages one upload. A bound field, or a slab of one, consults the
  /// device's resident pool first when it is enabled — a hit eliminates
  /// the transfer entirely, a miss uploads and leaves the buffer resident.
  /// Everything else (and every upload while the pool is disabled, the
  /// default) takes the cold path: allocate + one profiled write. Host
  /// temporaries and dims never pool, so a freed-and-reused host address
  /// can never alias a live pool entry.
  void upload(const Command& cmd, std::size_t cells) {
    std::span<const float> host = cmd.view;
    const void* generation_key = nullptr;
    float dims[3];
    if (cmd.data == Data::host) {
      host = hosts_[cmd.host];
    } else if (cmd.data == Data::dims) {
      // The local plane count, same transverse shape.
      dims[0] = static_cast<float>(plan_.slab.nx);
      dims[1] = static_cast<float>(plan_.slab.ny);
      dims[2] = static_cast<float>(cells / plan_.slab.plane_cells);
      host = dims;
    } else if (cmd.data == Data::slab) {
      const std::size_t offset = lo_ * plan_.slab.plane_cells;
      if (cmd.view.size() < offset + cells) {
        throw NetworkError("field '" + cmd.label +
                           "' too small for the requested slab");
      }
      // Sub-range uploads key the pool on the slab pointer but follow the
      // *base* array's generation tag, so mutating the bound field
      // invalidates every one of its slabs.
      host = cmd.view.subspan(offset, cells);
      generation_key = cmd.view.data();
    }
    StagedBuffer& staged = buffers_[cmd.buffer];
    if (cmd.data == Data::field || cmd.data == Data::slab) {
      staged.resident = device_.resident().acquire(queue_, host, cmd.label,
                                                   generation_key);
      if (staged.resident != nullptr) return;
    }
    staged.owned = device_.allocate(host.size());
    queue_.write(staged.owned, host, cmd.label);
  }

  void read(const Command& cmd, const vcl::Buffer& buffer) {
    std::vector<float>& host = cmd.data == Data::result ? result_
                               : cmd.data == Data::host ? hosts_[cmd.host]
                                                        : slab_result_;
    host.resize(buffer.size());
    queue_.read(buffer, host, cmd.label);
    if (cmd.data == Data::result) result_.resize(plan_.elements);
    if (cmd.data == Data::slab) {
      // One transfer for the whole slab; keep the interior planes.
      const std::size_t plane = plan_.slab.plane_cells;
      std::copy_n(
          slab_result_.begin() + static_cast<long>((begin_ - lo_) * plane),
          (end_ - begin_) * plane,
          result_.begin() + static_cast<long>(begin_ * plane));
    }
  }

  const CommandPlan& plan_;
  vcl::Device& device_;
  vcl::CommandQueue queue_;
  std::vector<float>& result_;
  std::vector<StagedBuffer> buffers_;
  std::vector<std::vector<float>> hosts_;
  std::vector<float> slab_result_;
  /// The current chunk's interior planes and its slab's first plane.
  std::size_t begin_ = 0, end_ = 0, lo_ = 0;
};

}  // namespace

const char* strategy_name(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::roundtrip:
      return "roundtrip";
    case StrategyKind::staged:
      return "staged";
    case StrategyKind::fusion:
      return "fusion";
    case StrategyKind::streamed:
      return "streamed";
  }
  return "?";
}

SlabPlan make_slab_plan(const kernels::Program& program,
                        const FieldBindings& bindings, std::size_t elements) {
  SlabPlan plan;
  const std::set<std::uint16_t> dims = dims_slots(program);
  plan.slabbed_params = program.params().size() - dims.size();
  if (dims.empty()) {
    plan.plane_cells = 1;
    plan.total_planes = elements;
    plan.halo = 0;
    return plan;
  }

  // All grad3d invocations in one network share the same grid; read the
  // shape from the first dims binding.
  const std::string& dims_name = program.params()[*dims.begin()].name;
  const auto dims_view = bindings.get(dims_name);
  if (dims_view.size() < 3) {
    throw NetworkError("dims binding '" + dims_name +
                       "' must hold 3 values for streamed execution");
  }
  plan.nx = static_cast<std::size_t>(dims_view[0]);
  plan.ny = static_cast<std::size_t>(dims_view[1]);
  plan.nz = static_cast<std::size_t>(dims_view[2]);
  if (plan.nx * plan.ny * plan.nz != elements) {
    throw NetworkError(
        "streamed execution requires elements == nx*ny*nz; got " +
        std::to_string(elements));
  }
  plan.plane_cells = plan.nx * plan.ny;
  plan.total_planes = plan.nz;
  plan.halo = 1;
  return plan;
}

std::size_t chunk_planes(const SlabPlan& slab, std::size_t budget_cells) {
  std::size_t planes =
      budget_cells / std::max<std::size_t>(slab.plane_cells, 1);
  // The slab adds halo planes on each side; keep at least one interior
  // plane per chunk.
  if (planes > 2 * slab.halo) {
    planes -= 2 * slab.halo;
  } else {
    planes = 1;
  }
  return std::min(std::max<std::size_t>(planes, 1), slab.total_planes);
}

CommandPlan lower_pipeline(
    const std::shared_ptr<const kernels::FusedPipeline>& pipeline,
    const FieldBindings& bindings, std::size_t elements, std::string label) {
  PlanBuilder b(elements);
  std::map<std::string, int, std::less<>> buffer_of;
  int out = -1;
  for (const kernels::FusedPipeline::Stage& stage : pipeline->stages) {
    std::vector<int> args;
    args.reserve(stage.program.params().size());
    for (const kernels::BufferParam& param : stage.program.params()) {
      // Materialised parameters were created by their producing stage; a
      // name seen for the first time is a field.
      const auto it = buffer_of.find(param.name);
      if (it != buffer_of.end()) {
        args.push_back(it->second);
        continue;
      }
      args.push_back(b.upload(Data::field, param.name,
                              bindings.get(param.name), param.name));
      buffer_of.emplace(param.name, args.back());
    }
    out = b.alloc(stage.program.out_stride());
    b.launch(std::shared_ptr<const kernels::Program>(pipeline, &stage.program),
             std::move(args), out);
    buffer_of.emplace(kernels::materialized_param_name(stage.node_id), out);
  }
  b.read(out, Data::result, std::move(label));
  return std::move(b.plan());
}

CommandPlan lower(StrategyKind kind, const dataflow::Network& network,
                  const FieldBindings& bindings, std::size_t elements,
                  std::size_t streamed_chunk_cells) {
  switch (kind) {
    case StrategyKind::roundtrip:
      return lower_roundtrip(network, bindings, elements);
    case StrategyKind::staged:
      return lower_staged(network, bindings, elements);
    case StrategyKind::fusion:
      // The cached fused pipeline (paper §III-C3).
      return lower_pipeline(
          kernels::ProgramCache::instance().fused_pipeline(network), bindings,
          elements, network.spec().node(network.output_id()).label);
    case StrategyKind::streamed:
      return lower_streamed(network, bindings, elements,
                            streamed_chunk_cells);
  }
  throw Error("unknown strategy kind");
}

void run_plan(const CommandPlan& plan, vcl::Device& device,
              vcl::ProfilingLog& log, std::vector<float>& result) {
  Interpreter interpreter(plan, device, log, result);
  if (plan.slabbed) {
    interpreter.run_slabs();
  } else {
    interpreter.run_flat();
  }
}

std::vector<float> execute_strategy(StrategyKind kind,
                                    const dataflow::Network& network,
                                    const FieldBindings& bindings,
                                    std::size_t elements, vcl::Device& device,
                                    vcl::ProfilingLog& log,
                                    std::size_t streamed_chunk_cells) {
  std::vector<float> result;
  run_plan(lower(kind, network, bindings, elements, streamed_chunk_cells),
           device, log, result);
  return result;
}

}  // namespace dfg::runtime
