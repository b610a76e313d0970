// Distributed resilience tests: straggler speculation, quarantine, and
// checkpointed restart. A rank running 50x slow must not stretch the
// critical path past 2x the fault-free run (its blocks move to healthy
// devices); a bit-flipping device must never leak a corrupted value into
// the global field; and a run killed at block k must resume from its
// journal, re-executing only the missing blocks, bit-identically.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/expressions.hpp"
#include "distrib/checkpoint.hpp"
#include "distrib/decomposition.hpp"
#include "distrib/dist_engine.hpp"
#include "mesh/generators.hpp"
#include "runtime/strategy.hpp"
#include "support/error.hpp"
#include "vcl/catalog.hpp"

namespace {

using namespace dfg;
using runtime::StrategyKind;

/// A fresh, empty scratch directory under the test temp root.
std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "dfgen_ckpt_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// 8^3 mesh split into 4 blocks over a 1-node / 2-device cluster: enough
/// blocks for partial-progress journals, two ranks so quarantine and
/// speculation have somewhere to go.
struct ClusterFixture {
  mesh::RectilinearMesh mesh = mesh::RectilinearMesh::uniform({8, 8, 8});
  mesh::VectorField field = mesh::rayleigh_taylor_flow(mesh);

  distrib::ClusterConfig config() {
    distrib::ClusterConfig cfg;
    cfg.nodes = 1;
    cfg.devices_per_node = 2;
    cfg.device_spec = vcl::xeon_x5660_scaled();
    cfg.checkpoint_dir.clear();  // tests opt in explicitly
    return cfg;
  }

  distrib::DistributedReport run(
      const distrib::ClusterConfig& cfg,
      const char* expression = expressions::kQCriterion,
      StrategyKind kind = StrategyKind::fusion) {
    distrib::DistributedEngine engine(
        mesh, distrib::GridDecomposition({8, 8, 8}, 2, 2, 1), cfg);
    engine.bind_global("u", field.u);
    engine.bind_global("v", field.v);
    engine.bind_global("w", field.w);
    return engine.evaluate(expression, kind);
  }
};

// ------------------------------------------------------- straggler budgets

TEST(Straggler, MildSlowdownIsSpeculatedAndTheFastResultWins) {
  ClusterFixture fx;
  const distrib::DistributedReport baseline = fx.run(fx.config());

  distrib::ClusterConfig cfg = fx.config();
  // 6x: under the command watchdog's deadline of 8x (no timeouts) but past
  // the 4x block budget — the straggler path, not the quarantine path.
  cfg.fault_plan.slow_command_index = 1;
  cfg.fault_plan.slowdown_factor = 6.0;
  cfg.fault_rank = 0;
  const distrib::DistributedReport report = fx.run(cfg);

  EXPECT_EQ(report.command_timeouts, 0u);
  EXPECT_GE(report.straggler_blocks, 1u);
  EXPECT_GE(report.speculative_executions, 1u);
  EXPECT_GE(report.speculations_won, 1u);
  EXPECT_EQ(report.quarantined_devices, 0u);
  EXPECT_EQ(report.values, baseline.values);
  // The duplicate execution is charged: total time exceeds the baseline by
  // more than the slowdown alone would.
  EXPECT_GT(report.total_sim_seconds, baseline.total_sim_seconds);
}

TEST(Straggler, BudgetIsPricedAtThePinnedBackendsEfficiency) {
  // A compute-bound device pinned to the jit backend: kernels are charged
  // at the compiled efficiency, so the block budget must be priced at it
  // too. A 3x slowdown then exceeds the 2x budget; pricing the reference at
  // the interpreted efficiency (twice the kernel time) would hide it.
  ClusterFixture fx;
  distrib::ClusterConfig cfg = fx.config();
  cfg.device_spec.gflops = 0.5;
  cfg.device_spec.launch_overhead_us = 0.0;
  cfg.backend = kernels::BackendKind::jit;
  cfg.straggler_budget_factor = 2.0;
  cfg.fault_plan.slow_command_index = 1;
  cfg.fault_plan.slowdown_factor = 3.0;
  cfg.fault_rank = 0;
  const distrib::DistributedReport report = fx.run(cfg);
  EXPECT_EQ(report.command_timeouts, 0u);
  EXPECT_GE(report.straggler_blocks, 1u);
}

TEST(Straggler, SpeculationDisabledByZeroBudgetFactor) {
  ClusterFixture fx;
  distrib::ClusterConfig cfg = fx.config();
  cfg.straggler_budget_factor = 0.0;
  cfg.fault_plan.slow_command_index = 1;
  cfg.fault_plan.slowdown_factor = 6.0;
  cfg.fault_rank = 0;
  const distrib::DistributedReport report = fx.run(cfg);
  EXPECT_EQ(report.straggler_blocks, 0u);
  EXPECT_EQ(report.speculative_executions, 0u);
}

TEST(Straggler, CleanRunNeverSpeculates) {
  ClusterFixture fx;
  const distrib::DistributedReport report = fx.run(fx.config());
  EXPECT_EQ(report.straggler_blocks, 0u);
  EXPECT_EQ(report.speculative_executions, 0u);
  EXPECT_EQ(report.command_timeouts, 0u);
  EXPECT_EQ(report.checksum_mismatches, 0u);
  EXPECT_EQ(report.quarantined_devices, 0u);
}

TEST(Straggler, SevereSlowdownIsQuarantinedWithinTwiceFaultFree) {
  ClusterFixture fx;
  const distrib::DistributedReport baseline = fx.run(fx.config());

  distrib::ClusterConfig cfg = fx.config();
  cfg.fault_plan.slow_command_index = 1;
  cfg.fault_plan.slowdown_factor = 50.0;  // far past the 8x deadline
  cfg.fault_rank = 0;
  const distrib::DistributedReport report = fx.run(cfg);

  EXPECT_EQ(report.quarantined_devices, 1u);
  EXPECT_GT(report.command_timeouts, 0u);
  EXPECT_EQ(report.values, baseline.values);
  // The healthy rank absorbs the quarantined rank's blocks; the critical
  // path must stay within 2x the fault-free run (the quarantined rank only
  // charged bounded watchdog deadlines, never a 50x command).
  EXPECT_LE(report.max_rank_sim_seconds,
            2.0 * baseline.max_rank_sim_seconds * (1.0 + 1e-9));
}

// ----------------------------------------------------------- silent flips

TEST(DistIntegrity, BitFlipIsDetectedAndNeverPropagates) {
  ClusterFixture fx;
  const distrib::DistributedReport baseline = fx.run(fx.config());

  distrib::ClusterConfig cfg = fx.config();
  cfg.fault_plan.corrupt_write_index = 1;  // one upload corrupted once
  cfg.fault_rank = 0;
  const distrib::DistributedReport report = fx.run(cfg);

  EXPECT_EQ(report.checksum_mismatches, 1u);
  EXPECT_EQ(report.quarantined_devices, 0u);
  EXPECT_EQ(report.values, baseline.values)
      << "a detected flip must be invisible in the assembled field";
}

TEST(DistIntegrity, PersistentlyCorruptingDeviceIsQuarantined) {
  ClusterFixture fx;
  const distrib::DistributedReport baseline = fx.run(fx.config());

  distrib::ClusterConfig cfg = fx.config();
  cfg.fault_plan.corrupt_write_index = 1;
  cfg.fault_plan.corrupt_count = 1 << 20;  // every transfer, forever
  cfg.fault_rank = 0;
  const distrib::DistributedReport report = fx.run(cfg);

  // Queue retries (3) fail, the block-level re-execution fails the same
  // way, the rank is quarantined, and a healthy rank redoes the block.
  EXPECT_EQ(report.quarantined_devices, 1u);
  EXPECT_GE(report.checksum_mismatches, 6u);
  EXPECT_EQ(report.values, baseline.values);
}

// ----------------------------------------------------- checkpoint journal

TEST(Checkpoint, CrashAfterTwoBlocksResumesBitIdentically) {
  ClusterFixture fx;
  const distrib::DistributedReport baseline = fx.run(fx.config());
  const std::string dir = scratch_dir("crash_resume");

  distrib::ClusterConfig cfg = fx.config();
  cfg.checkpoint_dir = dir;
  cfg.abort_after_blocks = 2;  // die mid-run, journal half the blocks
  EXPECT_THROW(fx.run(cfg), Error);

  cfg.abort_after_blocks = 0;
  const distrib::DistributedReport resumed = fx.run(cfg);
  EXPECT_EQ(resumed.resumed_blocks, 2u);
  EXPECT_EQ(resumed.journaled_blocks, 4u);
  EXPECT_EQ(resumed.values, baseline.values)
      << "resume must reassemble the exact field";
  // Only the two missing blocks executed: half the baseline's kernels.
  EXPECT_EQ(resumed.total_kernel_execs, baseline.total_kernel_execs / 2);
  EXPECT_EQ(resumed.total_dev_writes, baseline.total_dev_writes / 2);
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, CompletedJournalShortCircuitsTheWholeRun) {
  ClusterFixture fx;
  const std::string dir = scratch_dir("full_journal");
  distrib::ClusterConfig cfg = fx.config();
  cfg.checkpoint_dir = dir;
  const distrib::DistributedReport first = fx.run(cfg);
  const distrib::DistributedReport second = fx.run(cfg);
  EXPECT_EQ(second.resumed_blocks, 4u);
  EXPECT_EQ(second.total_kernel_execs, 0u);
  EXPECT_EQ(second.values, first.values);
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, JournalOfADifferentRunIsIgnored) {
  ClusterFixture fx;
  const std::string dir = scratch_dir("foreign_run");
  distrib::ClusterConfig cfg = fx.config();
  cfg.checkpoint_dir = dir;
  fx.run(cfg, expressions::kQCriterion);
  // Same directory, different expression: the run key differs, so nothing
  // resumes and nothing collides.
  const distrib::DistributedReport other =
      fx.run(cfg, expressions::kVorticityMagnitude);
  EXPECT_EQ(other.resumed_blocks, 0u);
  EXPECT_EQ(other.journaled_blocks, 4u);
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, CorruptJournalEntryIsReExecutedNotTrusted) {
  ClusterFixture fx;
  const distrib::DistributedReport baseline = fx.run(fx.config());
  const std::string dir = scratch_dir("corrupt_entry");
  distrib::ClusterConfig cfg = fx.config();
  cfg.checkpoint_dir = dir;
  fx.run(cfg);

  // Truncate one entry; the next run must treat it as absent.
  bool truncated = false;
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    if (file.path().extension() != ".ckpt") continue;
    std::filesystem::resize_file(file.path(),
                                 std::filesystem::file_size(file.path()) / 2);
    truncated = true;
    break;
  }
  ASSERT_TRUE(truncated);

  const distrib::DistributedReport report = fx.run(cfg);
  EXPECT_EQ(report.resumed_blocks, 3u);
  EXPECT_EQ(report.values, baseline.values);
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, JournalValidatesEntriesDirectly) {
  const std::string dir = scratch_dir("unit");
  distrib::CheckpointJournal journal(dir, 1234);
  EXPECT_TRUE(journal.enabled());
  EXPECT_FALSE(journal.has(0));

  const std::vector<float> slab = {1.0f, 2.5f, -3.0f};
  journal.append(7, slab);
  EXPECT_TRUE(journal.has(7));
  EXPECT_EQ(journal.load(7), slab);

  // A fresh journal over the same directory re-indexes the entry…
  distrib::CheckpointJournal reopened(dir, 1234);
  EXPECT_TRUE(reopened.has(7));
  EXPECT_EQ(reopened.load(7), slab);
  // …while a different run key sees nothing.
  distrib::CheckpointJournal foreign(dir, 999);
  EXPECT_FALSE(foreign.has(7));
  EXPECT_EQ(foreign.journaled_count(), 0u);

  // Disabled journal: inert.
  distrib::CheckpointJournal disabled;
  EXPECT_FALSE(disabled.enabled());
  disabled.append(1, slab);
  EXPECT_FALSE(disabled.has(1));
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, DirectoryDefaultsFromEnvironment) {
  ::setenv("DFGEN_CHECKPOINT_DIR", "/tmp/dfgen-env-probe", 1);
  const distrib::ClusterConfig cfg;
  EXPECT_EQ(cfg.checkpoint_dir, "/tmp/dfgen-env-probe");
  ::unsetenv("DFGEN_CHECKPOINT_DIR");
  const distrib::ClusterConfig cleared;
  EXPECT_TRUE(cleared.checkpoint_dir.empty());
}

TEST(Checkpoint, StaleTmpFilesAreReapedNotReplayed) {
  const std::string dir = scratch_dir("staletmp");
  {
    distrib::CheckpointJournal journal(dir, 77);
    journal.append(3, std::vector<float>{1.0f, 2.0f});
  }
  // Simulate a crash between writing the tmp file and the committing
  // rename: the orphan was never committed, so it must be removed on the
  // next open, never indexed or replayed.
  const std::string stale = dir + "/deadbeefdeadbeef-block-9.ckpt.tmp";
  {
    std::ofstream out(stale, std::ios::binary);
    out << "half-written entry";
  }
  // An unrelated tmp file in a shared directory is not ours to reap.
  const std::string unrelated = dir + "/notes.tmp";
  {
    std::ofstream out(unrelated);
    out << "keep me";
  }

  distrib::CheckpointJournal reopened(dir, 77);
  EXPECT_FALSE(std::filesystem::exists(stale))
      << "orphaned .ckpt.tmp must be reaped on open";
  EXPECT_TRUE(std::filesystem::exists(unrelated))
      << "non-checkpoint tmp files are left alone";
  EXPECT_TRUE(reopened.has(3));
  EXPECT_FALSE(reopened.has(9));
  EXPECT_EQ(reopened.blocks(), (std::vector<std::size_t>{3}));
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, BlocksEnumeratesIndexedEntriesAscending) {
  const std::string dir = scratch_dir("blocks");
  distrib::CheckpointJournal journal(dir, 55);
  EXPECT_TRUE(journal.blocks().empty());
  journal.append(5, std::vector<float>{1.0f});
  journal.append(2, std::vector<float>{2.0f});
  journal.append(9, std::vector<float>{3.0f});
  EXPECT_EQ(journal.blocks(), (std::vector<std::size_t>{2, 5, 9}));
  std::filesystem::remove_all(dir);
}

}  // namespace
