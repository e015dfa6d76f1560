// Cached-copy sampling-cost attribution: the accessing node's copy bit
// drives logging, resampling walks cover exactly the copies a node caches
// (and bill the walker), gap changes and shifts take effect at once — a
// fresh fault-in reads the current shift — and home migration re-keys the
// legacy home-node bit immediately.
#include <gtest/gtest.h>

#include <vector>

#include "core/djvm.hpp"

#include "ingest_helpers.hpp"

namespace djvm {
namespace {

/// Two nodes, one thread each; a pool of `count` objects homed at node 0
/// that node 1 only ever caches.
struct World {
  explicit World(std::uint32_t count, CostAttribution attr = CostAttribution::kCachedCopy) {
    Config cfg;
    cfg.nodes = 2;
    cfg.threads = 2;
    cfg.oal_transfer = OalTransfer::kLocalOnly;
    cfg.cost_attribution = attr;
    djvm = std::make_unique<Djvm>(cfg);
    djvm->spawn_threads_round_robin(2);
    hot = djvm->registry().register_class("Hot", 64);
    for (std::uint32_t i = 0; i < count; ++i) {
      pool.push_back(djvm->gos().alloc(hot, 0));
    }
  }

  /// Every thread reads the whole pool, then a barrier closes intervals.
  void run_epoch() {
    for (ThreadId t = 0; t < 2; ++t) {
      for (ObjectId o : pool) djvm->read(t, o);
    }
    djvm->barrier_all();
  }

  std::unique_ptr<Djvm> djvm;
  ClassId hot = kInvalidClass;
  std::vector<ObjectId> pool;
};

TEST(CachedCopySampling, AccessingNodeGapControlsWhatItLogs) {
  World w(60);
  SamplingPlan& plan = w.djvm->plan();
  plan.set_nominal_gap(w.hot, 4);
  plan.resample_all();

  // Epoch 0 faults node 1's copies in; both nodes log under the base gap.
  w.run_epoch();
  // Discard epoch 0's log (the daemon is never pumped here: these tests
  // read the raw OAL stream straight off the ingest hub).
  (void)drain_hub(*w.djvm->ingest_hub());

  // Shift only node 1 (the caching node) and resample its copies.
  plan.set_node_gap_shift(1, w.hot, 2);
  plan.resample_classes_on_node(1, {w.hot});
  const std::uint32_t base_gap = plan.real_gap(w.hot);
  const std::uint32_t shifted_gap = plan.effective_real_gap(1, w.hot);
  ASSERT_GT(shifted_gap, base_gap);

  w.run_epoch();
  std::size_t node0_entries = 0, node1_entries = 0;
  for (const OalArena& log : drain_hub(*w.djvm->ingest_hub())) {
    for (const ArenaInterval& iv : log.intervals) {
      for (std::uint32_t i = iv.begin; i < iv.end; ++i) {
        if (iv.node == 0) {
          ++node0_entries;
          EXPECT_EQ(log.entries[i].gap, base_gap);  // home keeps cluster view
        } else {
          ++node1_entries;
          EXPECT_EQ(log.entries[i].gap, shifted_gap);  // caching node: coarser
        }
      }
    }
  }
  // The shift changed what the *accessing* node logs, not what the home
  // logs: node 0's entry count is unchanged, node 1 logs strictly less.
  EXPECT_GT(node0_entries, 0u);
  EXPECT_GT(node1_entries, 0u);
  EXPECT_LT(node1_entries, node0_entries);
}

TEST(CachedCopySampling, NodeResampleWalksCachedCopiesAndBillsWalker) {
  World w(40);
  SamplingPlan& plan = w.djvm->plan();
  plan.set_nominal_gap(w.hot, 4);
  plan.resample_all();
  w.run_epoch();  // node 1 faults the whole pool into its cache
  (void)plan.drain_resampled_by_node();

  plan.set_node_gap_shift(1, w.hot, 1);
  const std::size_t visited = plan.resample_classes_on_node(1, {w.hot});
  // Node 1 homes nothing, but caches the whole pool: the walk covers all 40
  // remote-homed copies — the exact objects the old home-keyed walk missed.
  EXPECT_EQ(visited, 40u);
  const std::vector<std::uint64_t> billed = plan.drain_resampled_by_node();
  ASSERT_GE(billed.size(), 2u);
  EXPECT_EQ(billed[0], 0u);   // the home did not pay for node 1's walk
  EXPECT_EQ(billed[1], 40u);  // the walking node pays for its own copies
}

TEST(CachedCopySampling, ClusterResampleBillsEveryCachingNode) {
  World w(40);
  SamplingPlan& plan = w.djvm->plan();
  plan.set_nominal_gap(w.hot, 4);
  w.run_epoch();  // both nodes hold copies now (node 0 homes, node 1 caches)
  // The gap change took effect at once: the epoch run before any resample
  // already logged under the new gap.
  std::size_t entries = 0;
  for (const OalArena& log : drain_hub(*w.djvm->ingest_hub())) {
    for (const ArenaInterval& iv : log.intervals) {
      for (std::uint32_t i = iv.begin; i < iv.end; ++i) {
        ++entries;
        EXPECT_EQ(log.entries[i].gap, plan.real_gap(w.hot));
      }
    }
  }
  EXPECT_GT(entries, 0u);
  (void)plan.drain_resampled_by_node();

  plan.set_nominal_gap(w.hot, 8);
  const std::size_t visited = plan.resample_classes({w.hot});
  // "Every thread will iterate through all objects of that class it
  // caches": one visit per (caching node, object) pair.
  EXPECT_EQ(visited, 80u);
  const std::vector<std::uint64_t> billed = plan.drain_resampled_by_node();
  ASSERT_GE(billed.size(), 2u);
  EXPECT_EQ(billed[0], 40u);
  EXPECT_EQ(billed[1], 40u);
}

TEST(CachedCopySampling, FaultInRegistersBitUnderCurrentShift) {
  World w(40);
  SamplingPlan& plan = w.djvm->plan();
  plan.set_nominal_gap(w.hot, 4);
  plan.resample_all();
  w.run_epoch();  // pool cached on node 1

  // One more object node 1 has never seen.
  const ObjectId late = w.djvm->gos().alloc(w.hot, 0);

  plan.set_node_gap_shift(1, w.hot, 2);
  plan.resample_classes_on_node(1, {w.hot});  // walks cached copies only
  const std::uint32_t shifted_gap = plan.effective_real_gap(1, w.hot);
  const std::uint64_t regs_before = plan.copy_registrations(1);

  // Fault-in counts the registration, and the fresh copy reads node 1's
  // *current* gap, though the walk above never visited it.
  w.djvm->read(1, late);
  EXPECT_GT(plan.copy_registrations(1), regs_before);
  EXPECT_EQ(plan.gap_of(1, late), shifted_gap);
  const bool expect_sampled =
      shifted_gap <= 1 || w.djvm->heap().meta(late).start_seq % shifted_gap == 0;
  EXPECT_EQ(plan.is_sampled(1, late), expect_sampled);
  // The cluster view (and the home) still sees the base gap.
  EXPECT_EQ(plan.gap_of(late), plan.real_gap(w.hot));
}

TEST(CachedCopySampling, MigrateHomeRekeysLegacyBitImmediately) {
  // Legacy home-node model: the cluster-wide bit is keyed to the home's gap
  // shift, so migration must re-key it under the new home right away.
  World w(64, CostAttribution::kHomeNode);
  SamplingPlan& plan = w.djvm->plan();
  ASSERT_EQ(plan.cost_attribution(), CostAttribution::kHomeNode);
  plan.set_nominal_gap(w.hot, 4);
  plan.set_node_gap_shift(0, w.hot, 3);
  plan.resample_classes_on_node(0, {w.hot});

  const std::uint32_t base_gap = plan.real_gap(w.hot);
  const std::uint32_t coarse_gap = plan.effective_real_gap(0, w.hot);
  // An object sampled at the base gap but not under the old home's coarse
  // gap: after migrating to the (unshifted) node 1 its bit must flip back
  // without waiting for the next full resample.
  ObjectId victim = kInvalidObject;
  for (ObjectId o : w.pool) {
    const std::uint32_t seq = w.djvm->heap().meta(o).start_seq;
    if (seq % base_gap == 0 && seq % coarse_gap != 0) {
      victim = o;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidObject);
  ASSERT_FALSE(plan.is_sampled(victim));
  ASSERT_EQ(plan.gap_of(victim), coarse_gap);

  w.djvm->gos().migrate_homes({&victim, 1}, 1);
  EXPECT_TRUE(plan.is_sampled(victim));
  EXPECT_EQ(plan.gap_of(victim), base_gap);
}

TEST(CachedCopySampling, MigrateHomeReregistersOldHomesCopy) {
  World w(8);
  SamplingPlan& plan = w.djvm->plan();
  const std::uint64_t regs_before = plan.copy_registrations(0);
  w.djvm->gos().migrate_homes({&w.pool[0], 1}, 1);
  // The old home keeps the payload as an ordinary cached copy and its
  // registration is counted (snapshot v3 summary input).
  EXPECT_EQ(plan.copy_registrations(0), regs_before + 1);
  EXPECT_TRUE(w.djvm->gos().node_has_copy(0, w.pool[0]));
  EXPECT_TRUE(w.djvm->gos().node_has_copy(1, w.pool[0]));
}

TEST(CachedCopySampling, ConfigKnobSelectsAttributionModel) {
  World home_world(4, CostAttribution::kHomeNode);
  EXPECT_EQ(home_world.djvm->plan().cost_attribution(), CostAttribution::kHomeNode);
  World copy_world(4);
  EXPECT_EQ(copy_world.djvm->plan().cost_attribution(), CostAttribution::kCachedCopy);
}

}  // namespace
}  // namespace djvm
