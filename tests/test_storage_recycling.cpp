// Recycled device-buffer storage: a buffer reuses a released buffer's host
// storage without zero-fill, so every path must write a buffer in full
// before reading it. Poisoning the free list with NaN words before an
// evaluation makes any read of unwritten storage show in the output; the
// accounting must not notice the recycling at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "bitwise.hpp"
#include "core/engine.hpp"
#include "core/expressions.hpp"
#include "mesh/generators.hpp"
#include "runtime/strategy.hpp"
#include "vcl/buffer.hpp"
#include "vcl/catalog.hpp"
#include "vcl/device.hpp"
#include "vcl/profiling.hpp"
#include "vcl/queue.hpp"

namespace {

using namespace dfg;

constexpr kernels::BackendKind kBackends[] = {kernels::BackendKind::scalar,
                                              kernels::BackendKind::vm,
                                              kernels::BackendKind::jit};
constexpr runtime::StrategyKind kStrategies[] = {
    runtime::StrategyKind::fusion, runtime::StrategyKind::streamed,
    runtime::StrategyKind::staged, runtime::StrategyKind::roundtrip};

void expect_bounded() {
  const vcl::StoragePool::Totals t = vcl::StoragePool::totals();
  EXPECT_LE(t.retained_bytes + t.live_bytes, t.peak_live_bytes);
}

/// Leaves `copies` released buffers of each size in the device's free
/// list, every word written through the queue as 0xFFFFFFFF (a NaN).
void poison(vcl::Device& device, const std::vector<std::size_t>& sizes,
            int copies) {
  vcl::ProfilingLog log;
  vcl::CommandQueue queue(device, log);
  std::vector<vcl::Buffer> buffers;
  for (const std::size_t size : sizes) {
    const std::vector<float> pattern(size,
                                     std::bit_cast<float>(0xFFFFFFFFu));
    for (int c = 0; c < copies; ++c) {
      buffers.push_back(device.allocate(size));
      queue.write(buffers.back(), pattern, "poison");
    }
  }
  expect_bounded();
}

TEST(StorageRecycling, PoisonedFreeListNeverReachesAnOutput) {
  // 19x7x5 keeps the cell count off the tile size and every coordinate
  // array a distinct length.
  const mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform(
      {19, 7, 5}, 6.283185307179586, 6.283185307179586, 6.283185307179586);
  const mesh::VectorField field = mesh::abc_flow(mesh);
  const std::size_t cells = mesh.cell_count();
  // Every size an evaluation below allocates: dims, the three coordinate
  // arrays, and fields of one to four lanes (a gradient's packed result).
  const std::vector<std::size_t> sizes = {3,         19,        7, 5, cells,
                                          2 * cells, 3 * cells, 4 * cells};
  const char* kExprs[] = {expressions::kQCriterion,
                          "f = curl(u, v, w, dims, x, y, z)[1]",
                          "f = if (u > 0.5) then (v * w) else (u - w)"};

  for (const char* expr : kExprs) {
    for (const kernels::BackendKind backend : kBackends) {
      for (const runtime::StrategyKind strategy : kStrategies) {
        const std::string what = std::string(kernels::backend_name(backend)) +
                                  "/" + runtime::strategy_name(strategy) +
                                  ": " + expr;
        EngineOptions options;
        options.strategy = strategy;
        options.backend = backend;
        const auto run = [&](vcl::Device& device) {
          Engine engine(device, options);
          engine.bind_mesh(mesh);
          engine.bind("u", field.u);
          engine.bind("v", field.v);
          engine.bind("w", field.w);
          return engine.evaluate(expr).values;
        };

        std::vector<float> want;
        std::size_t fresh_in_use = 0, fresh_high_water = 0;
        {
          // Destroyed before poisoning, freeing its storage: the list
          // then holds poisoned blocks only.
          vcl::Device fresh(vcl::xeon_x5660());
          want = run(fresh);
          fresh_in_use = fresh.memory().in_use();
          fresh_high_water = fresh.memory().high_water();
        }

        vcl::Device device(vcl::xeon_x5660());
        poison(device, sizes, 32);
        const std::size_t poisoned = device.storage().retained_bytes();
        device.memory().reset_high_water();
        const std::vector<float> got = run(device);

        test::expect_bits_equal(got, want, what);
        // Every buffer came from, and went back to, the poisoned list.
        EXPECT_EQ(device.storage().retained_bytes(), poisoned) << what;
        EXPECT_EQ(device.memory().in_use(), fresh_in_use) << what;
        EXPECT_EQ(device.memory().high_water(), fresh_high_water) << what;
        expect_bounded();
      }
    }
  }
}

TEST(StorageRecycling, ShortWriteZeroFillsTheRestOfTheBuffer) {
  vcl::Device device(vcl::xeon_x5660());
  poison(device, {16}, 1);
  vcl::ProfilingLog log;
  vcl::CommandQueue queue(device, log);
  vcl::Buffer buffer = device.allocate(16);
  const std::vector<float> head = {1.0f, 2.0f, 3.0f};
  queue.write(buffer, head, "short");
  std::vector<float> back(16, -1.0f);
  queue.read(buffer, back, "short");
  std::vector<float> want(16, 0.0f);
  std::copy(head.begin(), head.end(), want.begin());
  test::expect_bits_equal(back, want, "short write");
}

TEST(StorageRecycling, DevicesShareTheListAndAMissTrimsIt) {
  // Larger than any live set so far, so this test sets the peak.
  const std::size_t n =
      vcl::StoragePool::totals().peak_live_bytes / sizeof(float) + (1 << 16);
  {
    vcl::Device a(vcl::xeon_x5660());
    vcl::Device b(vcl::xeon_x5660());
    { const vcl::Buffer big = b.allocate(n); }
    EXPECT_EQ(b.storage().retained_bytes(), n * sizeof(float));
    const std::size_t peak = vcl::StoragePool::totals().peak_live_bytes;
    {
      // Another device takes the block over: no fresh storage, no new
      // peak.
      const vcl::Buffer same = a.allocate(n);
      EXPECT_EQ(b.storage().retained_bytes(), 0u);
      EXPECT_EQ(vcl::StoragePool::totals().peak_live_bytes, peak);
    }
    EXPECT_EQ(a.storage().retained_bytes(), n * sizeof(float));
    {
      // A miss: a fresh buffer beside the retained block would exceed the
      // peak, so the block is freed first.
      const vcl::Buffer other = b.allocate(n / 2);
      EXPECT_EQ(a.storage().retained_bytes(), 0u);
      expect_bounded();
    }
    EXPECT_EQ(b.storage().retained_bytes(), n / 2 * sizeof(float));
    expect_bounded();
  }
  // Destroying a device frees what it released last.
  EXPECT_EQ(vcl::StoragePool::totals().retained_bytes, 0u);
  EXPECT_EQ(vcl::StoragePool::totals().live_bytes, 0u);
}

}  // namespace
