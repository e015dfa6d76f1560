// Additional GOS edge cases: multi-thread-per-node cache sharing, tracking
// mode switches, phase labels, piggybacking rules, prefetch categories,
// home-migration interactions, timer boundary conditions.
#include <gtest/gtest.h>

#include "dsm/gos.hpp"

#include "ingest_helpers.hpp"

namespace djvm {
namespace {

class GosEdgeTest : public ::testing::Test {
 protected:
  GosEdgeTest() {
    cfg.nodes = 2;
    cfg.threads = 4;  // two threads per node
  }

  void init(OalTransfer tracking = OalTransfer::kDisabled) {
    cfg.oal_transfer = tracking;
    // The old Gos must go before the plan it deregisters from on
    // destruction; member-by-member reassignment below would otherwise free
    // the plan while the old Gos still points at it.
    gos.reset();
    heap = std::make_unique<Heap>(reg, cfg.nodes);
    plan = std::make_unique<SamplingPlan>(*heap);
    net = std::make_unique<Network>(cfg.costs);
    gos = std::make_unique<Gos>(*heap, *net, *plan, cfg);
    for (std::uint32_t i = 0; i < cfg.threads; ++i) {
      gos->spawn_thread(static_cast<NodeId>(i % cfg.nodes));
    }
    klass = reg.find("X") ? *reg.find("X") : reg.register_class("X", 64);
  }

  Config cfg;
  KlassRegistry reg;
  std::unique_ptr<Heap> heap;
  std::unique_ptr<SamplingPlan> plan;
  std::unique_ptr<Network> net;
  std::unique_ptr<Gos> gos;
  ClassId klass = kInvalidClass;
};

TEST_F(GosEdgeTest, ThreadsOnSameNodeShareCacheCopies) {
  init();
  const ObjectId o = gos->alloc(klass, 0);
  // Threads 1 and 3 both run on node 1: the first faults, the second hits.
  gos->read(1, o);
  gos->read(3, o);
  EXPECT_EQ(gos->stats().object_faults, 1u);
}

TEST_F(GosEdgeTest, ThreadsOnSameNodeLogIndependently) {
  init(OalTransfer::kLocalOnly);
  const ObjectId o = gos->alloc(klass, 0);
  gos->read(1, o);
  gos->read(3, o);
  // OALs are per-thread even when the cache is shared.
  EXPECT_EQ(gos->stats().oal_entries, 2u);
}

TEST_F(GosEdgeTest, TrackingCanBeTurnedOnMidRun) {
  init(OalTransfer::kDisabled);
  const ObjectId o = gos->alloc(klass, 0);
  gos->read(0, o);
  EXPECT_EQ(gos->stats().oal_entries, 0u);
  gos->set_tracking(OalTransfer::kLocalOnly);
  gos->barrier_all();  // fresh interval
  gos->read(0, o);
  EXPECT_EQ(gos->stats().oal_entries, 1u);
}

TEST_F(GosEdgeTest, TrackingCanBeShutOffToStopOverheads) {
  // The paper: "overheads can be much smaller by shutting the profiler after
  // a short profiling phase is over."
  init(OalTransfer::kLocalOnly);
  const ObjectId o = gos->alloc(klass, 0);
  gos->read(0, o);
  gos->set_tracking(OalTransfer::kDisabled);
  gos->barrier_all();
  gos->read(0, o);
  EXPECT_EQ(gos->stats().oal_entries, 1u);
}

TEST_F(GosEdgeTest, PhaseLabelsDelimitIntervalContext) {
  init(OalTransfer::kLocalOnly);
  const ObjectId o = gos->alloc(klass, 0);
  gos->set_phase(0, 7);
  gos->read(0, o);
  gos->set_phase(0, 8);
  gos->barrier_all();
  const std::vector<OalArena> logs = drain_hub(gos->ingest());
  ASSERT_EQ(logs.size(), 1u);
  ASSERT_EQ(logs[0].intervals.size(), 1u);
  EXPECT_EQ(logs[0].intervals[0].start_pc, 0u);  // opened before any label
  EXPECT_EQ(logs[0].intervals[0].end_pc, 8u);
}

TEST_F(GosEdgeTest, CoordinatorOffMasterStillReceivesOals) {
  init(OalTransfer::kSend);
  gos->set_coordinator(1);
  const ObjectId o = gos->alloc(klass, 0);
  gos->read(0, o);
  gos->barrier_all();  // barrier goes to master 0; coordinator is 1
  // The sync message does not go to the coordinator, so the OAL cannot ride
  // on it and pays its own header.
  EXPECT_GE(net->stats().bytes_of(MsgCategory::kOal),
            kIntervalHeaderWireBytes + kOalEntryWireBytes + kMessageHeaderBytes);
  const std::vector<OalArena> logs = drain_hub(gos->ingest());
  ASSERT_EQ(logs.size(), 1u);
  EXPECT_EQ(logs[0].intervals.size(), 1u);
}

TEST_F(GosEdgeTest, PrefetchUsesRequestedCategory) {
  init();
  const ObjectId o = gos->alloc(klass, 0);
  std::vector<ObjectId> objs{o};
  gos->move_thread(0, 1);
  gos->prefetch(0, objs, MsgCategory::kMigration);
  EXPECT_GT(net->stats().bytes_of(MsgCategory::kMigration), 0u);
  EXPECT_EQ(net->stats().bytes_of(MsgCategory::kObjectData), 0u);
}

TEST_F(GosEdgeTest, PrefetchEmptySetIsFree) {
  init();
  gos->prefetch(0, {});
  EXPECT_EQ(net->stats().total_bytes(), 0u);
}

TEST_F(GosEdgeTest, HomeMigrationThenWriteFromNewHomeSendsNoDiff) {
  init();
  const ObjectId o = gos->alloc(klass, 0);
  gos->migrate_homes({&o, 1}, 1);
  gos->write(1, o);  // thread 1 runs on node 1 = the new home
  gos->release(1, LockId{1});
  EXPECT_EQ(gos->stats().diffs_sent, 0u);
}

TEST_F(GosEdgeTest, HomeMigrationOldHomeKeepsValidCopy) {
  init();
  const ObjectId o = gos->alloc(klass, 0);
  gos->migrate_homes({&o, 1}, 1);
  gos->read(0, o);  // old home node still holds the data
  EXPECT_EQ(gos->stats().object_faults, 0u);
}

TEST_F(GosEdgeTest, RepeatedBarriersAreIdempotentOnCleanState) {
  init();
  const auto faults = gos->stats().object_faults;
  gos->barrier_all();
  gos->barrier_all();
  gos->barrier_all();
  EXPECT_EQ(gos->stats().barriers, 3u);
  EXPECT_EQ(gos->stats().object_faults, faults);
}

TEST_F(GosEdgeTest, WriteReadSameIntervalNoExtraFault) {
  init();
  const ObjectId o = gos->alloc(klass, 0);
  gos->write(1, o);
  gos->read(1, o);
  gos->write(1, o);
  EXPECT_EQ(gos->stats().object_faults, 1u);
}

TEST_F(GosEdgeTest, ReleaseWithoutWritesSendsNoDiffs) {
  init();
  gos->acquire(0, LockId{2});
  gos->release(0, LockId{2});
  EXPECT_EQ(gos->stats().diffs_sent, 0u);
}

TEST_F(GosEdgeTest, AllocForThreadHomesAtThreadNode) {
  init();
  const ObjectId o = gos->alloc_for_thread(1, klass);  // thread 1 on node 1
  EXPECT_EQ(heap->meta(o).home, 1);
  const ObjectId a = gos->alloc_array_for_thread(
      0, reg.register_array_class("Y[]", 8), 16);
  EXPECT_EQ(heap->meta(a).home, 0);
}

TEST_F(GosEdgeTest, StackSamplingTimerRearmsAfterEnable) {
  init();
  gos->enable_stack_sampling(sim_ms(4));
  gos->disable_stack_sampling();
  const ObjectId o = gos->alloc(klass, 0);
  gos->clock(0).advance(sim_ms(100));
  gos->read(0, o);
  EXPECT_EQ(gos->stats().stack_samples, 0u);  // disabled: never fires
}

TEST_F(GosEdgeTest, FootprintRearmBoundaryExactlyAtTick) {
  init();
  gos->enable_footprinting(FootprintTimerMode::kNonstop, sim_ms(100), sim_ms(1));
  const ObjectId o = gos->alloc(klass, 0);
  gos->read(0, o);
  const auto first = gos->stats().footprint_touches;
  // Land exactly on the tick boundary.
  SimClock& clk = gos->clock(0);
  const SimTime next_tick = (clk.now() / sim_ms(1) + 1) * sim_ms(1);
  clk.align_to(next_tick);
  gos->read(0, o);
  EXPECT_EQ(gos->stats().footprint_touches, first + 1);
}

TEST_F(GosEdgeTest, InterleavedLocksKeepIntervalsDistinct) {
  init(OalTransfer::kLocalOnly);
  const ObjectId o = gos->alloc(klass, 0);
  for (int i = 0; i < 3; ++i) {
    gos->acquire(0, LockId{1});
    gos->read(0, o);
    gos->release(0, LockId{1});
  }
  // Each acquire..release pair is its own interval: 3 logs.
  EXPECT_EQ(gos->stats().oal_entries, 3u);
}

}  // namespace
}  // namespace djvm
