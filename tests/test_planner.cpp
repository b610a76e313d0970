// Tests for the memory planner: predictions must equal the tracker's
// measured high-water mark and the report's simulated seconds bit for bit,
// for every strategy and expression, and strategy selection must pick the
// fastest strategy that fits.
#include <gtest/gtest.h>

#include <iomanip>

#include "core/engine.hpp"
#include "core/expressions.hpp"
#include "dataflow/builder.hpp"
#include "dataflow/network.hpp"
#include "kernels/backend.hpp"
#include "mesh/generators.hpp"
#include "runtime/planner.hpp"
#include "support/error.hpp"
#include "vcl/catalog.hpp"

namespace {

using namespace dfg;
using runtime::StrategyKind;

struct PlannerFixture {
  mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({10, 12, 14});
  mesh::VectorField field = mesh::rayleigh_taylor_flow(mesh);

  runtime::FieldBindings bindings() const {
    runtime::FieldBindings b;
    b.bind_mesh(mesh);
    b.bind("u", field.u);
    b.bind("v", field.v);
    b.bind("w", field.w);
    return b;
  }

  std::size_t measured(StrategyKind kind, const char* expression,
                       std::size_t chunk = 0) {
    vcl::Device device(vcl::xeon_x5660_scaled());
    EngineOptions options;
    options.strategy = kind;
    options.streamed_chunk_cells = chunk;
    Engine engine(device, options);
    engine.bind_mesh(mesh);
    engine.bind("u", field.u);
    engine.bind("v", field.v);
    engine.bind("w", field.w);
    return engine.evaluate(expression).memory_high_water_bytes;
  }

  /// Measured vs estimated simulated seconds of one evaluation on a device
  /// pinned to `backend`. Warm: the resident pool is on, the expression is
  /// evaluated twice and the second run is priced against the residency
  /// probed between the two.
  struct SimPair {
    double estimated = 0.0;
    double measured = 0.0;
  };
  SimPair sim(StrategyKind kind, const char* expression, std::size_t chunk,
              kernels::BackendKind backend, bool warm) {
    vcl::Device device(vcl::xeon_x5660_scaled());
    EngineOptions options;
    options.strategy = kind;
    options.streamed_chunk_cells = chunk;
    options.backend = backend;
    options.resident_pool = warm;
    Engine engine(device, options);
    engine.bind_mesh(mesh);
    engine.bind("u", field.u);
    engine.bind("v", field.v);
    engine.bind("w", field.w);
    const dataflow::Network network(dataflow::build_network(expression));
    if (warm) engine.evaluate(expression);
    const runtime::Residency residency =
        runtime::Residency::probe(device, engine.bindings(), network);
    SimPair pair;
    pair.estimated = runtime::estimate_sim_seconds(
        network, engine.bindings(), mesh.cell_count(), device.spec(), kind,
        chunk, warm ? &residency : nullptr,
        device.backend().compute_efficiency());
    pair.measured = engine.evaluate(expression).sim_seconds;
    return pair;
  }

  std::size_t predicted(StrategyKind kind, const char* expression,
                        std::size_t chunk = 0) const {
    const dataflow::Network network(dataflow::build_network(expression));
    const auto b = bindings();
    return runtime::estimate_high_water(network, b, mesh.cell_count(), kind,
                                        chunk);
  }
};

struct PlannerCase {
  const char* label;
  const char* expression;
  StrategyKind kind;
};

/// Streamed cases run (and are priced) at this explicit chunk size.
constexpr std::size_t kChunk = 360;

std::size_t chunk_for(StrategyKind kind) {
  return kind == StrategyKind::streamed ? kChunk : 0;
}

class PlannerExactness : public ::testing::TestWithParam<PlannerCase> {};

TEST_P(PlannerExactness, PredictionEqualsMeasurement) {
  PlannerFixture fx;
  const PlannerCase& tc = GetParam();
  EXPECT_EQ(fx.predicted(tc.kind, tc.expression, chunk_for(tc.kind)),
            fx.measured(tc.kind, tc.expression, chunk_for(tc.kind)))
      << tc.expression;
}

// The estimate prices the very plan the evaluation runs and totals it per
// event kind in the profiling log's order, so it equals the report's
// simulated seconds exactly — cold, and warm given the probed residency —
// under both backends' compute efficiency.
// Streamed is priced residency-unaware by design: warm, its estimate is
// the cold upper bound.
TEST_P(PlannerExactness, SimSecondsEqualMeasurement) {
  PlannerFixture fx;
  const PlannerCase& tc = GetParam();
  for (const kernels::BackendKind backend :
       {kernels::BackendKind::vm, kernels::BackendKind::jit}) {
    for (const bool warm : {false, true}) {
      SCOPED_TRACE(std::string(kernels::backend_name(backend)) +
                   (warm ? " warm" : " cold"));
      const PlannerFixture::SimPair pair =
          fx.sim(tc.kind, tc.expression, chunk_for(tc.kind), backend, warm);
      if (warm && tc.kind == StrategyKind::streamed) {
        EXPECT_GE(pair.estimated, pair.measured) << tc.expression;
      } else {
        EXPECT_EQ(pair.estimated, pair.measured)
            << std::setprecision(17) << tc.expression;
      }
    }
  }
}

const PlannerCase kCases[] = {
    {"VelMag_roundtrip", expressions::kVelocityMagnitude,
     StrategyKind::roundtrip},
    {"VelMag_staged", expressions::kVelocityMagnitude, StrategyKind::staged},
    {"VelMag_fusion", expressions::kVelocityMagnitude, StrategyKind::fusion},
    {"VortMag_roundtrip", expressions::kVorticityMagnitude,
     StrategyKind::roundtrip},
    {"VortMag_staged", expressions::kVorticityMagnitude,
     StrategyKind::staged},
    {"VortMag_fusion", expressions::kVorticityMagnitude,
     StrategyKind::fusion},
    {"QCrit_roundtrip", expressions::kQCriterion, StrategyKind::roundtrip},
    {"QCrit_staged", expressions::kQCriterion, StrategyKind::staged},
    {"QCrit_fusion", expressions::kQCriterion, StrategyKind::fusion},
    {"Conditional_staged", "r = if (u > v) then (u*u) else (w)",
     StrategyKind::staged},
    {"Conditional_roundtrip", "r = if (u > v) then (u*u) else (w)",
     StrategyKind::roundtrip},
    {"Constants_staged", "r = 0.5 * u + 0.25", StrategyKind::staged},
    {"Constants_roundtrip", "r = 0.5 * u + 0.25", StrategyKind::roundtrip},
};

INSTANTIATE_TEST_SUITE_P(AllStrategies, PlannerExactness,
                         ::testing::ValuesIn(kCases),
                         [](const auto& info) {
                           return std::string(info.param.label);
                         });

constexpr const char* kScaleAdd = "r = u*2.0 + v";
constexpr const char* kConstant = "r = 3.0";
// Every strategy on the Table II expressions, divergence, a
// constant-folding expression and a bare constant.
const PlannerCase kStrategyMatrix[] = {
    {"VelMag_roundtrip", expressions::kVelocityMagnitude,
     StrategyKind::roundtrip},
    {"VelMag_staged", expressions::kVelocityMagnitude, StrategyKind::staged},
    {"VelMag_fusion", expressions::kVelocityMagnitude, StrategyKind::fusion},
    {"VelMag_streamed", expressions::kVelocityMagnitude,
     StrategyKind::streamed},
    {"VortMag_roundtrip", expressions::kVorticityMagnitude,
     StrategyKind::roundtrip},
    {"VortMag_staged", expressions::kVorticityMagnitude,
     StrategyKind::staged},
    {"VortMag_fusion", expressions::kVorticityMagnitude,
     StrategyKind::fusion},
    {"VortMag_streamed", expressions::kVorticityMagnitude,
     StrategyKind::streamed},
    {"QCrit_roundtrip", expressions::kQCriterion, StrategyKind::roundtrip},
    {"QCrit_staged", expressions::kQCriterion, StrategyKind::staged},
    {"QCrit_fusion", expressions::kQCriterion, StrategyKind::fusion},
    {"QCrit_streamed", expressions::kQCriterion, StrategyKind::streamed},
    {"Div_roundtrip", expressions::kDivergence, StrategyKind::roundtrip},
    {"Div_staged", expressions::kDivergence, StrategyKind::staged},
    {"Div_fusion", expressions::kDivergence, StrategyKind::fusion},
    {"Div_streamed", expressions::kDivergence, StrategyKind::streamed},
    {"ScaleAdd_roundtrip", kScaleAdd, StrategyKind::roundtrip},
    {"ScaleAdd_staged", kScaleAdd, StrategyKind::staged},
    {"ScaleAdd_fusion", kScaleAdd, StrategyKind::fusion},
    {"ScaleAdd_streamed", kScaleAdd, StrategyKind::streamed},
    {"Constant_roundtrip", kConstant, StrategyKind::roundtrip},
    {"Constant_staged", kConstant, StrategyKind::staged},
    {"Constant_fusion", kConstant, StrategyKind::fusion},
    {"Constant_streamed", kConstant, StrategyKind::streamed},
};

INSTANTIATE_TEST_SUITE_P(StrategyMatrix, PlannerExactness,
                         ::testing::ValuesIn(kStrategyMatrix),
                         [](const auto& info) {
                           return std::string(info.param.label);
                         });

TEST(Planner, StreamedPredictionEqualsMeasurementPerChunk) {
  // Gradient slabs from one plane per chunk to more than the grid (the
  // boundary chunks clamp their halos), and elementwise chunks down to one
  // cell.
  PlannerFixture fx;
  const std::size_t plane = 10 * 12;
  for (std::size_t planes = 1; planes <= 16; ++planes) {
    const std::size_t chunk = planes * plane;
    EXPECT_EQ(
        fx.predicted(StrategyKind::streamed, expressions::kQCriterion, chunk),
        fx.measured(StrategyKind::streamed, expressions::kQCriterion, chunk))
        << "chunk " << chunk;
  }
  for (const std::size_t chunk : {1u, 7u, 100u, 1679u, 1680u, 5000u}) {
    EXPECT_EQ(fx.predicted(StrategyKind::streamed,
                           expressions::kVelocityMagnitude, chunk),
              fx.measured(StrategyKind::streamed,
                          expressions::kVelocityMagnitude, chunk))
        << "chunk " << chunk;
  }
}

TEST(Planner, StreamedFloorIsSmallestFootprint) {
  PlannerFixture fx;
  const std::size_t floor =
      fx.predicted(StrategyKind::streamed, expressions::kQCriterion, 0);
  EXPECT_LT(floor,
            fx.predicted(StrategyKind::fusion, expressions::kQCriterion));
  EXPECT_LT(floor,
            fx.predicted(StrategyKind::roundtrip, expressions::kQCriterion));
}

TEST(Planner, SelectPrefersFusionWhenEverythingFits) {
  PlannerFixture fx;
  vcl::Device device(vcl::xeon_x5660_scaled());
  const dataflow::Network network(
      dataflow::build_network(expressions::kQCriterion));
  const auto bindings = fx.bindings();
  EXPECT_EQ(runtime::select_strategy(network, bindings, fx.mesh.cell_count(),
                                     device),
            StrategyKind::fusion);
}

TEST(Planner, SelectFallsBackToStreamedUnderPressure) {
  PlannerFixture fx;
  const std::size_t cells = fx.mesh.cell_count();
  vcl::DeviceSpec spec = vcl::tesla_m2050_scaled();
  spec.global_mem_bytes = 4 * cells * sizeof(float);  // < fusion's 8 arrays
  vcl::Device device(spec);
  const dataflow::Network network(
      dataflow::build_network(expressions::kQCriterion));
  const auto bindings = fx.bindings();
  EXPECT_EQ(runtime::select_strategy(network, bindings, cells, device),
            StrategyKind::streamed);
}

TEST(Planner, SelectAccountsForMemoryAlreadyInUse) {
  PlannerFixture fx;
  const std::size_t cells = fx.mesh.cell_count();
  vcl::DeviceSpec spec = vcl::tesla_m2050_scaled();
  spec.global_mem_bytes = 10 * cells * sizeof(float);
  vcl::Device device(spec);
  const dataflow::Network network(
      dataflow::build_network(expressions::kQCriterion));
  const auto bindings = fx.bindings();
  EXPECT_EQ(runtime::select_strategy(network, bindings, cells, device),
            StrategyKind::fusion);
  // Another tenant occupies most of the device: fusion no longer fits the
  // *free* memory.
  vcl::Buffer resident = device.allocate(5 * cells);
  EXPECT_EQ(runtime::select_strategy(network, bindings, cells, device),
            StrategyKind::streamed);
}

TEST(Planner, SelectThrowsWhenNothingFits) {
  PlannerFixture fx;
  vcl::DeviceSpec spec = vcl::tesla_m2050_scaled();
  spec.global_mem_bytes = 1024;  // not even one plane
  vcl::Device device(spec);
  const dataflow::Network network(
      dataflow::build_network(expressions::kQCriterion));
  const auto bindings = fx.bindings();
  EXPECT_THROW(
      runtime::select_strategy(network, bindings, fx.mesh.cell_count(),
                               device),
      DeviceOutOfMemory);
}

TEST(Planner, SelectedStrategyActuallyExecutes) {
  // Property: whatever the planner picks must run without OOM on that
  // device, across a range of capacities.
  PlannerFixture fx;
  const std::size_t cells = fx.mesh.cell_count();
  const auto bindings = fx.bindings();
  const dataflow::Network network(
      dataflow::build_network(expressions::kQCriterion));
  for (const std::size_t arrays : {3u, 5u, 9u, 20u, 40u}) {
    vcl::DeviceSpec spec = vcl::tesla_m2050_scaled();
    spec.global_mem_bytes = arrays * cells * sizeof(float);
    vcl::Device device(spec);
    const StrategyKind kind =
        runtime::select_strategy(network, bindings, cells, device);
    vcl::ProfilingLog log;
    EXPECT_NO_THROW(runtime::execute_strategy(kind, network, bindings, cells,
                                              device, log))
        << arrays << " arrays -> " << runtime::strategy_name(kind);
  }
}

}  // namespace
