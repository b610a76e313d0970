#include "runtime/reference.hpp"

#include <memory>

#include "kernels/generator.hpp"
#include "runtime/strategy.hpp"

namespace dfg::runtime {

namespace {

using kernels::Op;
using kernels::ProgramBuilder;

/// Emits the three velocity-gradient vectors; returns their registers.
struct GradRegs {
  std::uint16_t du, dv, dw;
};

GradRegs emit_velocity_gradients(ProgramBuilder& b, std::uint16_t u,
                                 std::uint16_t v, std::uint16_t w,
                                 std::uint16_t dims, std::uint16_t x,
                                 std::uint16_t y, std::uint16_t z) {
  GradRegs g;
  g.du = b.emit_grad3d(u, dims, x, y, z);
  g.dv = b.emit_grad3d(v, dims, x, y, z);
  g.dw = b.emit_grad3d(w, dims, x, y, z);
  return g;
}

}  // namespace

kernels::Program reference_velocity_magnitude() {
  ProgramBuilder b("ref_velocity_magnitude");
  const std::uint16_t u = b.emit_load_global(b.add_param("u"));
  const std::uint16_t v = b.emit_load_global(b.add_param("v"));
  const std::uint16_t w = b.emit_load_global(b.add_param("w"));
  const std::uint16_t uu = b.emit_binary(Op::mul, u, u);
  const std::uint16_t vv = b.emit_binary(Op::mul, v, v);
  const std::uint16_t ww = b.emit_binary(Op::mul, w, w);
  const std::uint16_t sum =
      b.emit_binary(Op::add, b.emit_binary(Op::add, uu, vv), ww);
  return b.finish(b.emit_unary(Op::sqrt, sum), 1);
}

kernels::Program reference_vorticity_magnitude() {
  ProgramBuilder b("ref_vorticity_magnitude");
  const std::uint16_t u = b.add_param("u");
  const std::uint16_t v = b.add_param("v");
  const std::uint16_t w = b.add_param("w");
  const std::uint16_t dims = b.add_param("dims");
  const std::uint16_t x = b.add_param("x");
  const std::uint16_t y = b.add_param("y");
  const std::uint16_t z = b.add_param("z");
  const GradRegs g = emit_velocity_gradients(b, u, v, w, dims, x, y, z);

  // omega = (dw/dy - dv/dz, du/dz - dw/dx, dv/dx - du/dy)
  const std::uint16_t wx = b.emit_binary(Op::sub, b.emit_component(g.dw, 1),
                                         b.emit_component(g.dv, 2));
  const std::uint16_t wy = b.emit_binary(Op::sub, b.emit_component(g.du, 2),
                                         b.emit_component(g.dw, 0));
  const std::uint16_t wz = b.emit_binary(Op::sub, b.emit_component(g.dv, 0),
                                         b.emit_component(g.du, 1));
  const std::uint16_t sum = b.emit_binary(
      Op::add,
      b.emit_binary(Op::add, b.emit_binary(Op::mul, wx, wx),
                    b.emit_binary(Op::mul, wy, wy)),
      b.emit_binary(Op::mul, wz, wz));
  return b.finish(b.emit_unary(Op::sqrt, sum), 1);
}

kernels::Program reference_q_criterion() {
  ProgramBuilder b("ref_q_criterion");
  const std::uint16_t u = b.add_param("u");
  const std::uint16_t v = b.add_param("v");
  const std::uint16_t w = b.add_param("w");
  const std::uint16_t dims = b.add_param("dims");
  const std::uint16_t x = b.add_param("x");
  const std::uint16_t y = b.add_param("y");
  const std::uint16_t z = b.add_param("z");
  const GradRegs g = emit_velocity_gradients(b, u, v, w, dims, x, y, z);

  // J[r][c] components: row r is the gradient of velocity component r.
  const std::uint16_t j00 = b.emit_component(g.du, 0);
  const std::uint16_t j01 = b.emit_component(g.du, 1);
  const std::uint16_t j02 = b.emit_component(g.du, 2);
  const std::uint16_t j10 = b.emit_component(g.dv, 0);
  const std::uint16_t j11 = b.emit_component(g.dv, 1);
  const std::uint16_t j12 = b.emit_component(g.dv, 2);
  const std::uint16_t j20 = b.emit_component(g.dw, 0);
  const std::uint16_t j21 = b.emit_component(g.dw, 1);
  const std::uint16_t j22 = b.emit_component(g.dw, 2);

  const std::uint16_t half = b.emit_load_const(0.5f);
  const std::uint16_t two = b.emit_load_const(2.0f);

  // Exploit symmetry: only the three upper-triangle entries of S and Omega
  // are computed; diagonal of Omega is zero and diagonal of S equals J's.
  const auto sym = [&](std::uint16_t ab, std::uint16_t ba) {
    return b.emit_binary(Op::mul, half, b.emit_binary(Op::add, ab, ba));
  };
  const auto antisym = [&](std::uint16_t ab, std::uint16_t ba) {
    return b.emit_binary(Op::mul, half, b.emit_binary(Op::sub, ab, ba));
  };
  const std::uint16_t s01 = sym(j01, j10);
  const std::uint16_t s02 = sym(j02, j20);
  const std::uint16_t s12 = sym(j12, j21);
  const std::uint16_t w01 = antisym(j01, j10);
  const std::uint16_t w02 = antisym(j02, j20);
  const std::uint16_t w12 = antisym(j12, j21);

  const auto square = [&](std::uint16_t r) {
    return b.emit_binary(Op::mul, r, r);
  };
  const std::uint16_t diag = b.emit_binary(
      Op::add, b.emit_binary(Op::add, square(j00), square(j11)), square(j22));
  const std::uint16_t off_s = b.emit_binary(
      Op::add, b.emit_binary(Op::add, square(s01), square(s02)), square(s12));
  const std::uint16_t s_norm =
      b.emit_binary(Op::add, diag, b.emit_binary(Op::mul, two, off_s));
  const std::uint16_t off_w = b.emit_binary(
      Op::add, b.emit_binary(Op::add, square(w01), square(w02)), square(w12));
  const std::uint16_t w_norm = b.emit_binary(Op::mul, two, off_w);

  const std::uint16_t q = b.emit_binary(
      Op::mul, half, b.emit_binary(Op::sub, w_norm, s_norm));
  return b.finish(q, 1);
}

std::vector<float> run_reference(const kernels::Program& program,
                                 const FieldBindings& bindings,
                                 std::size_t elements, vcl::Device& device,
                                 vcl::ProfilingLog& log) {
  auto pipeline = std::make_shared<kernels::FusedPipeline>();
  pipeline->stages.push_back({-1, program});
  std::vector<float> result;
  run_plan(lower_pipeline(pipeline, bindings, elements, program.name()),
           device, log, result);
  return result;
}

}  // namespace dfg::runtime
