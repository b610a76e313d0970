// Tests for gradients of computed values: the partitioned fusion pipeline
// plus the staged/roundtrip strategies' native handling. Lifts the paper's
// implicit restriction that grad3d only applies to host-bound fields,
// enabling second-derivative workflows (e.g. the gradient of velocity
// magnitude).
#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.hpp"
#include "dataflow/builder.hpp"
#include "dataflow/network.hpp"
#include "kernels/generator.hpp"
#include "mesh/generators.hpp"
#include "runtime/planner.hpp"
#include "support/error.hpp"
#include "vcl/catalog.hpp"

namespace {

using namespace dfg;
using runtime::StrategyKind;

// Gradient magnitude of velocity magnitude: a realistic second-derivative
// detector (sharp |v| fronts).
constexpr const char* kGradOfMagnitude = R"(
vm = sqrt(u*u + v*v + w*w)
g = grad3d(vm, dims, x, y, z)
r = sqrt(g[0]*g[0] + g[1]*g[1] + g[2]*g[2])
)";

// Two chained materialisations: gradient of a gradient component.
constexpr const char* kSecondDerivative = R"(
g1 = grad3d(u, dims, x, y, z)
gx = g1[0]
g2 = grad3d(gx, dims, x, y, z)
r = g2[0]
)";

struct PartitionFixture {
  mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({8, 8, 12});
  mesh::VectorField field = mesh::rayleigh_taylor_flow(mesh);

  Engine make(vcl::Device& device, StrategyKind kind) {
    Engine engine(device, {kind, {}});
    engine.bind_mesh(mesh);
    engine.bind("u", field.u);
    engine.bind("v", field.v);
    engine.bind("w", field.w);
    return engine;
  }
};

TEST(PartitionedFusion, PipelineShape) {
  const dataflow::Network network(dataflow::build_network(kGradOfMagnitude));
  const kernels::FusedPipeline pipeline =
      kernels::generate_fused_pipeline(network);
  ASSERT_TRUE(pipeline.partitioned());
  ASSERT_EQ(pipeline.stages.size(), 2u);
  // Stage 1 computes vm from u, v, w; stage 2 gradients the materialised
  // buffer.
  EXPECT_EQ(pipeline.stages[0].program.params().size(), 3u);
  bool grads_materialized = false;
  for (const auto& param : pipeline.stages[1].program.params()) {
    if (param.name.rfind("__m", 0) == 0) grads_materialized = true;
  }
  EXPECT_TRUE(grads_materialized);
}

TEST(PartitionedFusion, SingleKernelGeneratorRefusesWithGuidance) {
  const dataflow::Network network(dataflow::build_network(kGradOfMagnitude));
  try {
    kernels::generate_fused(network);
    FAIL() << "expected KernelError";
  } catch (const KernelError& err) {
    EXPECT_NE(std::string(err.what()).find("generate_fused_pipeline"),
              std::string::npos);
  }
}

TEST(PartitionedFusion, NonPartitionedNetworksStaySingleStage) {
  const dataflow::Network network(
      dataflow::build_network("du = grad3d(u, dims, x, y, z)\nr = du[0]"));
  const kernels::FusedPipeline pipeline =
      kernels::generate_fused_pipeline(network);
  EXPECT_FALSE(pipeline.partitioned());
  EXPECT_EQ(pipeline.stages.size(), 1u);
}

TEST(PartitionedFusion, AllStrategiesAgree) {
  PartitionFixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  for (const char* expr : {kGradOfMagnitude, kSecondDerivative}) {
    const auto roundtrip =
        fx.make(device, StrategyKind::roundtrip).evaluate(expr).values;
    const auto staged =
        fx.make(device, StrategyKind::staged).evaluate(expr).values;
    const auto fusion =
        fx.make(device, StrategyKind::fusion).evaluate(expr).values;
    ASSERT_EQ(roundtrip.size(), fusion.size());
    for (std::size_t i = 0; i < roundtrip.size(); ++i) {
      ASSERT_EQ(roundtrip[i], staged[i]) << expr << " cell " << i;
      ASSERT_EQ(roundtrip[i], fusion[i]) << expr << " cell " << i;
    }
  }
}

TEST(PartitionedFusion, EventCounts) {
  PartitionFixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  Engine engine = fx.make(device, StrategyKind::fusion);
  const auto report = engine.evaluate(kGradOfMagnitude);
  // Unique fields u,v,w,dims,x,y,z uploaded once; two fused kernels; one
  // readback.
  EXPECT_EQ(report.dev_writes, 7u);
  EXPECT_EQ(report.kernel_execs, 2u);
  EXPECT_EQ(report.dev_reads, 1u);
  // The report carries both stages' generated source.
  EXPECT_NE(report.kernel_source.find("_m"), std::string::npos);
  EXPECT_NE(report.kernel_source.find("grad3d"), std::string::npos);
}

TEST(PartitionedFusion, GradientOfLinearCombinationIsExact) {
  // s = x + 2y - 3z is linear, so grad(s) = (1, 2, -3) exactly, everywhere
  // (central and one-sided differences are exact on linear fields) —
  // even though s is a computed value.
  PartitionFixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  Engine engine = fx.make(device, StrategyKind::fusion);
  const auto report = engine.evaluate(
      "s = x + 2.0*y - 3.0*z\n"
      "g = grad3d(s, dims, x, y, z)\n"
      "r = g[0] + g[1] + g[2]");
  for (const float v : report.values) {
    ASSERT_NEAR(v, 1.0f + 2.0f - 3.0f, 1e-4f);
  }
}

TEST(PartitionedFusion, StreamedRefusesClearly) {
  PartitionFixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  Engine engine = fx.make(device, StrategyKind::streamed);
  EXPECT_THROW(engine.evaluate(kGradOfMagnitude), KernelError);
}

TEST(PartitionedFusion, PlannerPredictsPartitionedFootprintExactly) {
  PartitionFixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  Engine engine = fx.make(device, StrategyKind::fusion);
  const auto measured =
      engine.evaluate(kGradOfMagnitude).memory_high_water_bytes;

  const dataflow::Network network(dataflow::build_network(kGradOfMagnitude));
  runtime::FieldBindings bindings;
  bindings.bind_mesh(fx.mesh);
  bindings.bind("u", fx.field.u);
  bindings.bind("v", fx.field.v);
  bindings.bind("w", fx.field.w);
  EXPECT_EQ(runtime::estimate_high_water(network, bindings,
                                         fx.mesh.cell_count(),
                                         StrategyKind::fusion),
            measured);
}

TEST(PartitionedFusion, SelectStrategySkipsStreamedForTheseNetworks) {
  // select_strategy must never answer "streamed" for a network streaming
  // cannot execute, and must fall through it without surfacing the
  // KernelError. Sized so fusion does not fit but the best remaining
  // strategy does.
  PartitionFixture fx;
  const std::size_t cells = fx.mesh.cell_count();
  // A wide-input variant: fusion must keep all five fields plus the
  // materialised intermediate resident, while the fallbacks peak lower.
  const char* wide = R"(
vm = sqrt(u*u + v*v + w*w) + a - b
g = grad3d(vm, dims, x, y, z)
r = sqrt(g[0]*g[0] + g[1]*g[1] + g[2]*g[2])
)";
  const dataflow::Network network(dataflow::build_network(wide));
  runtime::FieldBindings bindings;
  bindings.bind_mesh(fx.mesh);
  bindings.bind("u", fx.field.u);
  bindings.bind("v", fx.field.v);
  bindings.bind("w", fx.field.w);
  bindings.bind("a", fx.field.u);
  bindings.bind("b", fx.field.v);

  const std::size_t fusion_needs = runtime::estimate_high_water(
      network, bindings, cells, StrategyKind::fusion);
  const std::size_t fallback_needs = std::min(
      runtime::estimate_high_water(network, bindings, cells,
                                   StrategyKind::staged),
      runtime::estimate_high_water(network, bindings, cells,
                                   StrategyKind::roundtrip));
  ASSERT_LT(fallback_needs, fusion_needs)
      << "fixture assumption: some fallback is cheaper than fusion";

  vcl::DeviceSpec spec = vcl::tesla_m2050_scaled();
  spec.global_mem_bytes = fallback_needs;
  vcl::Device device(spec);
  const StrategyKind kind =
      runtime::select_strategy(network, bindings, cells, device);
  EXPECT_TRUE(kind == StrategyKind::staged ||
              kind == StrategyKind::roundtrip);
  // And it really runs.
  vcl::ProfilingLog log;
  EXPECT_NO_THROW(
      runtime::execute_strategy(kind, network, bindings, cells, device, log));
}

TEST(PartitionedFusion, GradOfConstantRejectedAtSpecLevel) {
  EXPECT_THROW(dataflow::build_network("r = grad3d(1.0, dims, x, y, z)[0]"),
               NetworkError);
}

}  // namespace
