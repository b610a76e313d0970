// Memory-constraint tests: the paper's Figure 2 example network and the
// strategy memory relations behind Figure 6.
#include <gtest/gtest.h>

#include <vector>

#include "core/engine.hpp"
#include "core/expressions.hpp"
#include "dataflow/network.hpp"
#include "dataflow/spec.hpp"
#include "mesh/generators.hpp"
#include "runtime/strategy.hpp"
#include "vcl/catalog.hpp"

namespace {

using namespace dfg;
using runtime::StrategyKind;

/// The Figure 2 example: a network with four problem-sized external inputs
/// feeding two first-level filters whose results a third filter combines.
/// Figure 2 annotates the device footprints as roundtrip = 3 arrays,
/// staged = 4 and fusion = 5.
dataflow::Network figure2_network() {
  dataflow::NetworkSpec spec;
  const int a = spec.add_field_source("A");
  const int b = spec.add_field_source("B");
  const int c = spec.add_field_source("C");
  const int d = spec.add_field_source("D");
  const int t1 = spec.add_filter("add", {a, b});
  const int t2 = spec.add_filter("mult", {c, d});
  spec.set_output(spec.add_filter("sub", {t1, t2}));
  return dataflow::Network(std::move(spec));
}

/// Executes a network and returns the device high-water mark in units of
/// problem-sized arrays.
double high_water_arrays(const dataflow::Network& network, StrategyKind kind,
                         std::size_t elements) {
  std::vector<float> data(elements, 1.0f);
  runtime::FieldBindings bindings;
  for (const std::string& name : network.spec().field_names()) {
    bindings.bind(name, data);
  }
  vcl::Device device(vcl::xeon_x5660_scaled());
  vcl::ProfilingLog log;
  runtime::execute_strategy(kind, network, bindings, elements, device, log);
  return static_cast<double>(device.memory().high_water()) /
         static_cast<double>(elements * sizeof(float));
}

TEST(Figure2, RoundtripNeedsThreeArrays) {
  EXPECT_DOUBLE_EQ(
      high_water_arrays(figure2_network(), StrategyKind::roundtrip, 4096),
      3.0);
}

TEST(Figure2, StagedNeedsFourArrays) {
  EXPECT_DOUBLE_EQ(
      high_water_arrays(figure2_network(), StrategyKind::staged, 4096), 4.0);
}

TEST(Figure2, FusionNeedsFiveArrays) {
  EXPECT_DOUBLE_EQ(
      high_water_arrays(figure2_network(), StrategyKind::fusion, 4096), 5.0);
}

// ----- Figure 6 shape relations on the paper's expressions -----

struct MemoryFixture {
  mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({16, 16, 16});
  mesh::VectorField field = mesh::rayleigh_taylor_flow(mesh);
  vcl::Device device{vcl::xeon_x5660_scaled()};

  std::size_t high_water(StrategyKind kind, const char* expression) {
    Engine engine(device, {kind, {}});
    engine.bind_mesh(mesh);
    engine.bind("u", field.u);
    engine.bind("v", field.v);
    engine.bind("w", field.w);
    return engine.evaluate(expression).memory_high_water_bytes;
  }
};

TEST(Figure6Shape, StagedUsesTheMostMemoryOnGradientExpressions) {
  MemoryFixture fx;
  for (const char* expr :
       {expressions::kVorticityMagnitude, expressions::kQCriterion}) {
    const std::size_t staged = fx.high_water(StrategyKind::staged, expr);
    const std::size_t roundtrip = fx.high_water(StrategyKind::roundtrip, expr);
    const std::size_t fusion = fx.high_water(StrategyKind::fusion, expr);
    EXPECT_GT(staged, roundtrip) << expr;
    EXPECT_GT(staged, fusion) << expr;
  }
}

TEST(Figure6Shape, RoundtripSmallestForVelocityMagnitude) {
  // "Due to the number of inputs, roundtrip used less memory for the
  // velocity magnitude test cases than the other two strategies."
  // Deviation (documented in EXPERIMENTS.md): our staged strategy releases
  // consumed inputs eagerly via reference counting, so on this expression
  // it *ties* roundtrip at 3 problem arrays instead of exceeding it; the
  // strict inequality against fusion (4 arrays) holds.
  MemoryFixture fx;
  const char* expr = expressions::kVelocityMagnitude;
  const std::size_t roundtrip = fx.high_water(StrategyKind::roundtrip, expr);
  EXPECT_LE(roundtrip, fx.high_water(StrategyKind::staged, expr));
  EXPECT_LT(roundtrip, fx.high_water(StrategyKind::fusion, expr));
  EXPECT_EQ(roundtrip, 3 * fx.mesh.cell_count() * sizeof(float));
}

TEST(Figure6Shape, RoundtripExceedsFusionOnGradientExpressions) {
  // "For the vorticity magnitude and Q-criterion cases, roundtrip used
  // more memory than fusion."
  MemoryFixture fx;
  for (const char* expr :
       {expressions::kVorticityMagnitude, expressions::kQCriterion}) {
    EXPECT_GT(fx.high_water(StrategyKind::roundtrip, expr),
              fx.high_water(StrategyKind::fusion, expr))
        << expr;
  }
}

TEST(Figure6Shape, HighWaterGrowsLinearlyWithCells) {
  // "As expected, the reserved memory grows linearly as the input data
  // size grows."
  vcl::Device device(vcl::xeon_x5660_scaled());
  std::vector<double> per_cell;
  for (const std::size_t nz : {8u, 16u, 32u}) {
    mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({8, 8, nz});
    const mesh::VectorField field = mesh::rayleigh_taylor_flow(mesh);
    Engine engine(device, {StrategyKind::staged, {}});
    engine.bind_mesh(mesh);
    engine.bind("u", field.u);
    engine.bind("v", field.v);
    engine.bind("w", field.w);
    const auto report = engine.evaluate(expressions::kQCriterion);
    per_cell.push_back(static_cast<double>(report.memory_high_water_bytes) /
                       static_cast<double>(mesh.cell_count()));
  }
  // Bytes per cell should be nearly constant across sizes (small additive
  // terms from coordinate arrays aside).
  EXPECT_NEAR(per_cell[0], per_cell[2], 0.15 * per_cell[2]);
}

TEST(Figure6Shape, FusionMatchesReferenceKernelFootprint) {
  // "Both fusion and the OpenCL reference kernel showed the same memory
  // usage" — both hold exactly inputs + output.
  MemoryFixture fx;
  const std::size_t cells = fx.mesh.cell_count();
  const std::size_t fusion =
      fx.high_water(StrategyKind::fusion, expressions::kVelocityMagnitude);
  EXPECT_EQ(fusion, 4 * cells * sizeof(float));  // u, v, w, out
}

TEST(Figure6Shape, StagedQCriterionFootprintIsDeterministic) {
  // Regression pin for the staged Q-criterion working set; reference
  // counting keeps it bounded, and any change to the release discipline
  // shows up here.
  MemoryFixture fx;
  const std::size_t cells = fx.mesh.cell_count();
  const std::size_t staged =
      fx.high_water(StrategyKind::staged, expressions::kQCriterion);
  const double arrays = static_cast<double>(staged) /
                        static_cast<double>(cells * sizeof(float));
  // Three float4 gradients (12 scalar arrays) dominate the peak; the exact
  // value also counts live decompose lanes and the small coordinate arrays.
  EXPECT_GT(arrays, 12.0);
  EXPECT_LT(arrays, 32.0);
}

}  // namespace
