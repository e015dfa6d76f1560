// Correlation daemon: epoch building, adaptation convergence, build stats.
#include <gtest/gtest.h>

#include "profiling/correlation_daemon.hpp"

#include "ingest_helpers.hpp"

namespace djvm {
namespace {

class DaemonTest : public ::testing::Test {
 protected:
  DaemonTest() : heap(reg, 1), plan(heap) {
    klass = reg.register_class("X", 64);
  }

  OalArena rec(ThreadId t, std::vector<OalEntry> entries) {
    return interval_log(t, std::move(entries), kInvalidNode, next_interval_++);
  }

  KlassRegistry reg;
  Heap heap;
  SamplingPlan plan;
  ClassId klass;
  IntervalId next_interval_ = 0;
  /// Outlives every test-local daemon (drained arenas are recycled back
  /// into its hub at the daemon's next run_epoch/build_full).
  ArenaFeeder feeder;
};

TEST_F(DaemonTest, IngestAccumulatesPending) {
  CorrelationDaemon daemon(plan, 2);
  std::vector<OalArena> rs;
  rs.push_back(rec(0, {{1, klass, 64, 1}}));
  feeder.feed(daemon, std::move(rs));
  EXPECT_EQ(daemon.pending(), 1u);
  EXPECT_EQ(daemon.total_entries(), 1u);
}

TEST_F(DaemonTest, EpochBuildsTcmAndClearsPending) {
  CorrelationDaemon daemon(plan, 2);
  std::vector<OalArena> rs;
  rs.push_back(rec(0, {{1, klass, 64, 1}}));
  rs.push_back(rec(1, {{1, klass, 64, 1}}));
  feeder.feed(daemon, std::move(rs));
  const EpochResult e = daemon.run_epoch();
  EXPECT_EQ(e.intervals, 2u);
  EXPECT_EQ(e.entries, 2u);
  EXPECT_DOUBLE_EQ(e.tcm.at(0, 1), 64.0);
  EXPECT_FALSE(e.rel_distance.has_value());  // first epoch
  EXPECT_EQ(daemon.pending(), 0u);
  EXPECT_EQ(daemon.total_intervals(), 2u);
}

TEST_F(DaemonTest, SecondEpochReportsDistance) {
  CorrelationDaemon daemon(plan, 2);
  std::vector<OalArena> rs1;
  rs1.push_back(rec(0, {{1, klass, 64, 1}}));
  rs1.push_back(rec(1, {{1, klass, 64, 1}}));
  feeder.feed(daemon, std::move(rs1));
  daemon.run_epoch();
  std::vector<OalArena> rs2;
  rs2.push_back(rec(0, {{1, klass, 64, 1}}));
  rs2.push_back(rec(1, {{1, klass, 64, 1}}));
  feeder.feed(daemon, std::move(rs2));
  const EpochResult e2 = daemon.run_epoch();
  ASSERT_TRUE(e2.rel_distance.has_value());
  EXPECT_DOUBLE_EQ(*e2.rel_distance, 0.0);  // identical sharing
}

TEST_F(DaemonTest, AdaptationTightensGapsUntilConverged) {
  plan.set_nominal_gap(klass, 64);
  for (int i = 0; i < 200; ++i) plan.on_alloc(heap.alloc(klass, 0));
  CorrelationDaemon daemon(plan, 2);
  daemon.governor().arm(djvm::GovernorConfig::legacy(0.05));

  const std::uint32_t gap_before = plan.real_gap(klass);
  // Epoch 1: some sharing.
  std::vector<OalArena> rs1;
  rs1.push_back(rec(0, {{1, klass, 64, gap_before}}));
  rs1.push_back(rec(1, {{1, klass, 64, gap_before}}));
  feeder.feed(daemon, std::move(rs1));
  daemon.run_epoch();
  // Epoch 2: very different sharing -> distance above threshold -> tighten.
  std::vector<OalArena> rs2;
  rs2.push_back(rec(0, {{2, klass, 64, gap_before}}));
  rs2.push_back(rec(1, {{3, klass, 64, gap_before}}));
  feeder.feed(daemon, std::move(rs2));
  const EpochResult e2 = daemon.run_epoch();
  EXPECT_TRUE(e2.rate_changed);
  EXPECT_LT(plan.real_gap(klass), gap_before);
  EXPECT_GT(e2.resampled_objects, 0u);
  EXPECT_FALSE(daemon.converged());
}

TEST_F(DaemonTest, AdaptationConvergesOnStableSharing) {
  plan.set_nominal_gap(klass, 64);
  CorrelationDaemon daemon(plan, 2);
  daemon.governor().arm(djvm::GovernorConfig::legacy(0.05));
  for (int epoch = 0; epoch < 2; ++epoch) {
    std::vector<OalArena> rs;
    rs.push_back(rec(0, {{1, klass, 64, 67}}));
    rs.push_back(rec(1, {{1, klass, 64, 67}}));
    feeder.feed(daemon, std::move(rs));
    daemon.run_epoch();
  }
  EXPECT_TRUE(daemon.converged());
  EXPECT_EQ(plan.nominal_gap(klass), 64u);  // no change needed
}

TEST_F(DaemonTest, AdaptationAtFullSamplingConvergesTrivially) {
  plan.set_nominal_gap(klass, 1);
  CorrelationDaemon daemon(plan, 2);
  daemon.governor().arm(djvm::GovernorConfig::legacy(0.0));  // impossible threshold
  for (int epoch = 0; epoch < 2; ++epoch) {
    std::vector<OalArena> rs;
    rs.push_back(rec(0, {{static_cast<ObjectId>(epoch), klass, 64, 1}}));
    rs.push_back(rec(1, {{static_cast<ObjectId>(epoch), klass, 64, 1}}));
    feeder.feed(daemon, std::move(rs));
    daemon.run_epoch();
  }
  // Nothing left to tighten: the daemon declares convergence.
  EXPECT_TRUE(daemon.converged());
}

TEST_F(DaemonTest, BuildFullCoversConsumedEpochsAndPending) {
  CorrelationDaemon daemon(plan, 2);
  std::vector<OalArena> rs1;
  rs1.push_back(rec(0, {{1, klass, 64, 1}}));
  rs1.push_back(rec(1, {{1, klass, 64, 1}}));
  feeder.feed(daemon, std::move(rs1));
  daemon.run_epoch();
  std::vector<OalArena> rs2;
  rs2.push_back(rec(0, {{2, klass, 32, 1}}));
  rs2.push_back(rec(1, {{2, klass, 32, 1}}));
  feeder.feed(daemon, std::move(rs2));
  const SquareMatrix full = daemon.build_full();
  EXPECT_DOUBLE_EQ(full.at(0, 1), 64.0 + 32.0);
  EXPECT_GT(daemon.total_build_seconds(), 0.0);
}

}  // namespace
}  // namespace djvm
