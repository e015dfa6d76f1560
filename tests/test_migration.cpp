// Thread migration: context shipping, sticky-set prefetch, cost model,
// follow-the-thread home migration, and the governed execution stage.
#include <gtest/gtest.h>

#include "core/djvm.hpp"
#include "dsm/gos.hpp"
#include "migration/cost_model.hpp"
#include "migration/migration.hpp"
#include "stack/javastack.hpp"

namespace djvm {
namespace {

class MigrationTest : public ::testing::Test {
 protected:
  MigrationTest() {
    cfg.nodes = 4;
    cfg.threads = 2;
    heap = std::make_unique<Heap>(reg, cfg.nodes);
    plan = std::make_unique<SamplingPlan>(*heap);
    net = std::make_unique<Network>(cfg.costs);
    gos = std::make_unique<Gos>(*heap, *net, *plan, cfg);
    gos->spawn_thread(0);
    gos->spawn_thread(1);
    klass = reg.register_class("Node", 256, 2);
  }

  ObjectId make(NodeId home = 0) { return gos->alloc(klass, home); }

  Config cfg;
  KlassRegistry reg;
  std::unique_ptr<Heap> heap;
  std::unique_ptr<SamplingPlan> plan;
  std::unique_ptr<Network> net;
  std::unique_ptr<Gos> gos;
  ClassId klass = kInvalidClass;
};

TEST_F(MigrationTest, MigrateMovesThreadAndShipsContext) {
  MigrationEngine engine(*gos);
  JavaStack stack;
  stack.push(1, 8);
  const MigrationOutcome out = engine.migrate(0, 2, stack);
  EXPECT_EQ(gos->thread_node(0), 2);
  EXPECT_EQ(out.from, 0);
  EXPECT_EQ(out.to, 2);
  EXPECT_EQ(out.context_bytes, stack.context_bytes());
  EXPECT_GT(out.sim_cost, 0u);
  EXPECT_GT(net->stats().bytes_of(MsgCategory::kMigration), 0u);
  EXPECT_EQ(engine.migrations_done(), 1u);
}

TEST_F(MigrationTest, WithoutPrefetchMigrantRefaults) {
  std::vector<ObjectId> objs;
  for (int i = 0; i < 10; ++i) objs.push_back(make(0));
  for (ObjectId o : objs) gos->read(0, o);  // home accesses: no faults
  ASSERT_EQ(gos->stats().object_faults, 0u);

  MigrationEngine engine(*gos);
  JavaStack stack;
  stack.push(1, 2);
  engine.migrate(0, 2, stack);
  for (ObjectId o : objs) gos->read(0, o);  // all remote now
  EXPECT_EQ(gos->stats().object_faults, 10u);
}

TEST_F(MigrationTest, PrefetchAbsorbsPostMigrationFaults) {
  std::vector<ObjectId> objs;
  for (int i = 0; i < 10; ++i) objs.push_back(make(0));
  for (ObjectId o : objs) gos->read(0, o);

  MigrationEngine engine(*gos);
  JavaStack stack;
  stack.push(1, 2);
  const MigrationOutcome out = engine.migrate(0, 2, stack, objs);
  EXPECT_EQ(out.prefetched_objects, 10u);
  EXPECT_EQ(out.prefetched_bytes, 10u * 256u);
  for (ObjectId o : objs) gos->read(0, o);
  EXPECT_EQ(gos->stats().object_faults, 0u);
}

TEST_F(MigrationTest, MigrateWithResolutionPrefetchesGraph) {
  // root -> a -> b chain; footprint budget covers all three.
  const ObjectId root = make(0);
  const ObjectId a = make(0);
  const ObjectId b = make(0);
  heap->add_ref(root, a);
  heap->add_ref(a, b);
  ClassFootprint fp;
  fp.bytes[klass] = 3 * 256.0;
  MigrationEngine engine(*gos);
  JavaStack stack;
  stack.push(1, 1);
  const MigrationOutcome out = engine.migrate_with_resolution(
      0, 3, stack, std::vector<ObjectId>{root}, fp, 4.0);
  EXPECT_EQ(out.prefetched_objects, 3u);
  gos->read(0, root);
  gos->read(0, a);
  gos->read(0, b);
  EXPECT_EQ(gos->stats().object_faults, 0u);
}

TEST_F(MigrationTest, CostModelDirectScalesWithContext) {
  MigrationCostModel model(*heap, cfg.costs);
  ClassFootprint none;
  const auto small = model.estimate(1024, none);
  const auto big = model.estimate(1024 * 1024, none);
  EXPECT_GT(big.direct, small.direct);
  EXPECT_EQ(small.predicted_fault_count, 0u);
}

TEST_F(MigrationTest, CostModelPredictsFaultsFromFootprint) {
  MigrationCostModel model(*heap, cfg.costs);
  ClassFootprint fp;
  fp.bytes[klass] = 256.0 * 20;  // ~20 objects of 256 B
  const auto est = model.estimate(1024, fp);
  EXPECT_NEAR(static_cast<double>(est.predicted_fault_count), 20.0, 1.0);
  EXPECT_GT(est.indirect_faults, est.prefetch_bulk);
  EXPECT_GT(est.prefetch_benefit(), 0u);
}

TEST_F(MigrationTest, PrefetchBenefitGrowsWithStickySetSize) {
  MigrationCostModel model(*heap, cfg.costs);
  ClassFootprint small_fp, big_fp;
  small_fp.bytes[klass] = 256.0 * 4;
  big_fp.bytes[klass] = 256.0 * 400;
  EXPECT_GT(model.estimate(1024, big_fp).prefetch_benefit(),
            model.estimate(1024, small_fp).prefetch_benefit());
}

TEST_F(MigrationTest, OutcomeResolutionStatsPropagated) {
  const ObjectId root = make(0);
  ClassFootprint fp;
  fp.bytes[klass] = 256.0;
  MigrationEngine engine(*gos);
  JavaStack stack;
  stack.push(1, 1);
  const MigrationOutcome out = engine.migrate_with_resolution(
      0, 1, stack, std::vector<ObjectId>{root}, fp, 2.0);
  EXPECT_GE(out.resolution.objects_visited, 1u);
  EXPECT_EQ(out.resolution.roots_used, 1u);
}

TEST_F(MigrationTest, MigrateHomesBatchesAndSkipsDuplicates) {
  const ObjectId a = make(0);
  const ObjectId b = make(0);
  const ObjectId c = make(1);
  const std::uint64_t data_before = net->stats().bytes_of(MsgCategory::kObjectData);
  const std::vector<ObjectId> batch = {a, b, c, a};  // duplicate a
  const std::size_t moved = gos->migrate_homes(batch, 2);
  EXPECT_EQ(moved, 3u);  // duplicate already home at 2 on second visit
  EXPECT_EQ(heap->meta(a).home, 2);
  EXPECT_EQ(heap->meta(b).home, 2);
  EXPECT_EQ(heap->meta(c).home, 2);
  EXPECT_GT(net->stats().bytes_of(MsgCategory::kObjectData), data_before);
  // Moving again to the same node is a no-op.
  EXPECT_EQ(gos->migrate_homes(batch, 2), 0u);
}

TEST_F(MigrationTest, FollowHomesMigratesStickySetHomes) {
  // Sticky chain homed at the source node: with follow enabled the homes
  // land at the destination along with the thread.
  const ObjectId root = make(0);
  const ObjectId child = make(0);
  heap->add_ref(root, child);
  ClassFootprint fp;
  fp.bytes[klass] = 2 * 256.0;
  MigrationEngine engine(*gos);
  JavaStack stack;
  stack.push(1, 1);
  const MigrationOutcome out = engine.migrate_with_resolution(
      0, 3, stack, std::vector<ObjectId>{root}, fp, 4.0,
      /*max_follow_homes=*/8);
  EXPECT_EQ(out.homes_migrated, 2u);
  EXPECT_EQ(heap->meta(root).home, 3);
  EXPECT_EQ(heap->meta(child).home, 3);
}

TEST_F(MigrationTest, FollowHomesRespectsCapAndOffSwitch) {
  const ObjectId root = make(0);
  const ObjectId child = make(0);
  heap->add_ref(root, child);
  ClassFootprint fp;
  fp.bytes[klass] = 2 * 256.0;
  MigrationEngine engine(*gos);
  JavaStack stack;
  stack.push(1, 1);
  {
    const MigrationOutcome out = engine.migrate_with_resolution(
        0, 3, stack, std::vector<ObjectId>{root}, fp, 4.0,
        /*max_follow_homes=*/1);
    EXPECT_EQ(out.homes_migrated, 1u);
  }
  // Off by default: the second object's home stays put.
  {
    const MigrationOutcome out = engine.migrate_with_resolution(
        1, 2, stack, std::vector<ObjectId>{root}, fp, 4.0);
    EXPECT_EQ(out.homes_migrated, 0u);
  }
}

// --- governed execution stage ------------------------------------------------

class ExecutionStageTest : public ::testing::Test {
 protected:
  static Config base_cfg(std::uint32_t nodes, std::uint32_t threads) {
    Config cfg;
    cfg.nodes = nodes;
    cfg.threads = threads;
    cfg.oal_transfer = OalTransfer::kSend;
    cfg.balance.max_migrations_per_epoch = 1;
    cfg.balance.min_score = 0.0;
    cfg.balance.cooldown_epochs = 0;
    return cfg;
  }

  /// One epoch of work: partner pairs (2k, 2k+1) hammer their shared
  /// objects, clocks advance, barrier closes the intervals.
  static void drive_epoch(Djvm& d,
                          const std::vector<std::vector<ObjectId>>& pair_objs) {
    for (ThreadId t = 0; t < d.thread_count(); ++t) {
      const auto& objs = pair_objs[t / 2];
      for (int r = 0; r < 4; ++r) {
        for (ObjectId o : objs) d.read(t, o);
      }
      d.gos().clock(t).advance(pair_objs[0].size() * 4000);
    }
    d.barrier_all();
  }
};

TEST_F(ExecutionStageTest, ExecutesPlannedMigrationAndCollocatesPartners) {
  Config cfg = base_cfg(2, 2);
  Djvm djvm(cfg);
  djvm.spawn_threads_round_robin(cfg.threads);  // partners start split
  const ClassId k = djvm.registry().register_class("Hot", 256);
  std::vector<std::vector<ObjectId>> pair_objs(1);
  for (int i = 0; i < 64; ++i) pair_objs[0].push_back(djvm.gos().alloc(k, 0));

  bool saw_executed = false;
  for (int e = 0; e < 6 && !saw_executed; ++e) {
    drive_epoch(djvm, pair_objs);
    const EpochResult res = djvm.run_epoch();
    for (const auto& m : res.migrations) saw_executed |= m.executed;
  }
  ASSERT_TRUE(saw_executed) << "no migration executed in 6 epochs";
  EXPECT_EQ(djvm.gos().thread_node(0), djvm.gos().thread_node(1));
  EXPECT_GT(djvm.governor().migrations_executed(), 0u);
  EXPECT_FALSE(djvm.governor().migration_history().empty());
  const auto& rec = djvm.governor().migration_history().back();
  EXPECT_NE(rec.from, rec.to);
  EXPECT_GT(rec.gain_bytes, 0.0);
}

TEST_F(ExecutionStageTest, PerEpochCapDefersExtraMovesThenDrains) {
  // Two split pairs both want collocation; cap 1 admits one per epoch and
  // defers the rest as the intended placement for the next epoch.
  Config cfg = base_cfg(2, 4);
  Djvm djvm(cfg);
  djvm.spawn_threads_round_robin(cfg.threads);  // (0,2) node 0, (1,3) node 1
  const ClassId k = djvm.registry().register_class("Hot", 256);
  std::vector<std::vector<ObjectId>> pair_objs(2);
  for (int p = 0; p < 2; ++p) {
    for (int i = 0; i < 64; ++i) {
      pair_objs[p].push_back(djvm.gos().alloc(k, static_cast<NodeId>(p)));
    }
  }
  std::size_t max_executed_per_epoch = 0;
  for (int e = 0; e < 10; ++e) {
    drive_epoch(djvm, pair_objs);
    const EpochResult res = djvm.run_epoch();
    std::size_t executed = 0;
    for (const auto& m : res.migrations) executed += m.executed ? 1u : 0u;
    max_executed_per_epoch = std::max(max_executed_per_epoch, executed);
  }
  EXPECT_LE(max_executed_per_epoch, 1u);
  EXPECT_EQ(djvm.gos().thread_node(0), djvm.gos().thread_node(1));
  EXPECT_EQ(djvm.gos().thread_node(2), djvm.gos().thread_node(3));
  EXPECT_GE(djvm.governor().migrations_executed(), 2u);
}

TEST_F(ExecutionStageTest, DryRunLogsButMovesNothing) {
  Config cfg = base_cfg(2, 2);
  cfg.balance.dry_run = true;
  Djvm djvm(cfg);
  djvm.spawn_threads_round_robin(cfg.threads);
  const ClassId k = djvm.registry().register_class("Hot", 256);
  std::vector<std::vector<ObjectId>> pair_objs(1);
  for (int i = 0; i < 64; ++i) pair_objs[0].push_back(djvm.gos().alloc(k, 0));

  const NodeId n0 = djvm.gos().thread_node(0);
  const NodeId n1 = djvm.gos().thread_node(1);
  bool saw_logged = false;
  for (int e = 0; e < 6; ++e) {
    drive_epoch(djvm, pair_objs);
    const EpochResult res = djvm.run_epoch();
    for (const auto& m : res.migrations) {
      saw_logged = true;
      EXPECT_FALSE(m.executed);
    }
  }
  EXPECT_TRUE(saw_logged) << "dry-run never logged a would-be migration";
  EXPECT_EQ(djvm.gos().thread_node(0), n0);
  EXPECT_EQ(djvm.gos().thread_node(1), n1);
  EXPECT_EQ(djvm.governor().migrations_executed(), 0u);
  EXPECT_EQ(djvm.planned_moves_pending(), 0u);
  EXPECT_EQ(djvm.migration().migrations_done(), 0u);
}

TEST_F(ExecutionStageTest, ExecutionOffByDefault) {
  Config cfg = base_cfg(2, 2);
  cfg.balance.max_migrations_per_epoch = 0;  // the default
  Djvm djvm(cfg);
  djvm.spawn_threads_round_robin(cfg.threads);
  const ClassId k = djvm.registry().register_class("Hot", 256);
  std::vector<std::vector<ObjectId>> pair_objs(1);
  for (int i = 0; i < 64; ++i) pair_objs[0].push_back(djvm.gos().alloc(k, 0));
  for (int e = 0; e < 3; ++e) {
    drive_epoch(djvm, pair_objs);
    const EpochResult res = djvm.run_epoch();
    EXPECT_TRUE(res.migrations.empty());
  }
  EXPECT_EQ(djvm.migration().migrations_done(), 0u);
  EXPECT_EQ(djvm.gos().thread_node(0), 0);
  EXPECT_EQ(djvm.gos().thread_node(1), 1);
}

}  // namespace
}  // namespace djvm
