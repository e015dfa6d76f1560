// GOS / HLRC protocol invariants: home access, faulting, lazy invalidation,
// diff flushing, barriers, at-most-once OAL logging, footprinting timers.
#include <gtest/gtest.h>

#include <algorithm>

#include "dsm/gos.hpp"

#include "ingest_helpers.hpp"

namespace djvm {
namespace {

class GosTest : public ::testing::Test {
 protected:
  GosTest() {
    cfg.nodes = 4;
    cfg.threads = 4;
  }

  void init(OalTransfer tracking = OalTransfer::kDisabled) {
    cfg.oal_transfer = tracking;
    heap = std::make_unique<Heap>(reg, cfg.nodes);
    plan = std::make_unique<SamplingPlan>(*heap);
    net = std::make_unique<Network>(cfg.costs);
    gos = std::make_unique<Gos>(*heap, *net, *plan, cfg);
    for (std::uint32_t i = 0; i < cfg.threads; ++i) {
      gos->spawn_thread(static_cast<NodeId>(i % cfg.nodes));
    }
    klass = reg.find("X") ? *reg.find("X") : reg.register_class("X", 128);
  }

  Config cfg;
  KlassRegistry reg;
  std::unique_ptr<Heap> heap;
  std::unique_ptr<SamplingPlan> plan;
  std::unique_ptr<Network> net;
  std::unique_ptr<Gos> gos;
  ClassId klass = kInvalidClass;
};

TEST_F(GosTest, HomeAccessDoesNotFault) {
  init();
  const ObjectId o = gos->alloc(klass, 0);
  gos->read(0, o);  // thread 0 runs on node 0 (the home)
  EXPECT_EQ(gos->stats().object_faults, 0u);
}

TEST_F(GosTest, RemoteFirstAccessFaults) {
  init();
  const ObjectId o = gos->alloc(klass, 0);
  gos->read(1, o);  // thread 1 runs on node 1
  EXPECT_EQ(gos->stats().object_faults, 1u);
  EXPECT_EQ(gos->stats().fault_bytes, 128u);
}

TEST_F(GosTest, SecondAccessHitsCache) {
  init();
  const ObjectId o = gos->alloc(klass, 0);
  gos->read(1, o);
  gos->read(1, o);
  gos->read(1, o);
  EXPECT_EQ(gos->stats().object_faults, 1u);
}

TEST_F(GosTest, FaultChargesNetworkTraffic) {
  init();
  const ObjectId o = gos->alloc(klass, 0);
  const SimTime before = gos->clock(1).now();
  gos->read(1, o);
  EXPECT_GT(gos->clock(1).now(), before + sim_us(100));
  EXPECT_GE(net->stats().bytes_of(MsgCategory::kObjectData), 128u);
}

TEST_F(GosTest, LazyInvalidation_NoRefetchBeforeAcquire) {
  init();
  const ObjectId o = gos->alloc(klass, 0);
  gos->read(1, o);  // thread 1 caches the object
  // Thread 0 (home) writes and releases.
  gos->write(0, o);
  gos->release(0, LockId{1});
  // Thread 1 has NOT synchronized: LRC lets it keep using the stale copy.
  gos->read(1, o);
  EXPECT_EQ(gos->stats().object_faults, 1u);
}

TEST_F(GosTest, LazyInvalidation_RefetchAfterAcquire) {
  init();
  const ObjectId o = gos->alloc(klass, 0);
  gos->read(1, o);
  gos->write(0, o);
  gos->release(0, LockId{1});
  gos->acquire(1, LockId{1});  // now thread 1 sees the write notice
  gos->read(1, o);
  EXPECT_EQ(gos->stats().object_faults, 2u);
}

TEST_F(GosTest, BarrierPropagatesWrites) {
  init();
  const ObjectId o = gos->alloc(klass, 0);
  gos->read(1, o);
  gos->write(0, o);
  gos->barrier_all();
  gos->read(1, o);
  EXPECT_EQ(gos->stats().object_faults, 2u);  // refetched after barrier
}

TEST_F(GosTest, RemoteWriteFlushesDiffAtRelease) {
  init();
  const ObjectId o = gos->alloc(klass, 0);
  gos->write(1, o);  // remote write (faults in first)
  EXPECT_EQ(gos->stats().diffs_sent, 0u);  // nothing flushed yet
  gos->release(1, LockId{5});
  EXPECT_EQ(gos->stats().diffs_sent, 1u);
  EXPECT_GT(gos->stats().diff_bytes, 0u);
}

TEST_F(GosTest, HomeWriteSendsNoDiff) {
  init();
  const ObjectId o = gos->alloc(klass, 0);
  gos->write(0, o);
  gos->release(0, LockId{5});
  EXPECT_EQ(gos->stats().diffs_sent, 0u);
}

TEST_F(GosTest, WriterKeepsItsCopyValidAfterRelease) {
  init();
  const ObjectId o = gos->alloc(klass, 0);
  gos->write(1, o);
  gos->release(1, LockId{5});
  gos->acquire(1, LockId{5});
  gos->read(1, o);  // writer's own copy is the latest
  EXPECT_EQ(gos->stats().object_faults, 1u);
}

TEST_F(GosTest, ThirdNodeSeesWriteAfterSync) {
  init();
  const ObjectId o = gos->alloc(klass, 0);
  gos->read(2, o);
  gos->write(1, o);
  gos->barrier_all();
  gos->read(2, o);
  EXPECT_EQ(gos->stats().object_faults, 3u);  // t2 initial, t1 write, t2 refetch
}

TEST_F(GosTest, IntervalsCloseOnSyncOps) {
  init();
  EXPECT_EQ(gos->interval_of(0), 0u);
  gos->acquire(0, LockId{1});
  EXPECT_EQ(gos->interval_of(0), 1u);
  gos->release(0, LockId{1});
  EXPECT_EQ(gos->interval_of(0), 2u);
  gos->barrier_all();
  EXPECT_EQ(gos->interval_of(0), 3u);
}

TEST_F(GosTest, AtMostOnceLoggingPerInterval) {
  init(OalTransfer::kLocalOnly);
  const ObjectId o = gos->alloc(klass, 0);
  for (int i = 0; i < 10; ++i) gos->read(0, o);
  EXPECT_EQ(gos->stats().oal_entries, 1u);  // logged once despite 10 reads
  gos->barrier_all();                        // new interval re-arms tracking
  gos->read(0, o);
  EXPECT_EQ(gos->stats().oal_entries, 2u);
}

TEST_F(GosTest, IntervalCloseHandsOalToItsOwnHub) {
  // A standalone Gos (no Djvm) owns its ingest hub: one lane per spawned
  // thread, fed at every interval close.
  init(OalTransfer::kLocalOnly);
  ASSERT_EQ(gos->ingest().lane_count(), cfg.threads);
  const ObjectId a = gos->alloc(klass, 0);
  const ObjectId b = gos->alloc(klass, 1);
  gos->read(0, a);
  gos->set_phase(1, 5);
  gos->read(1, a);
  gos->read(1, b);
  gos->set_phase(1, 6);
  // Nothing is handed off before the interval closes.
  EXPECT_TRUE(drain_hub(gos->ingest()).empty());
  gos->barrier_all();

  // Drained after the barrier (try_pop, then take_stranded for the open
  // arenas): every logged entry is published and drained exactly once.
  const std::vector<OalArena> logs = drain_hub(gos->ingest());
  const IngestCounters c = gos->ingest().counters();
  EXPECT_EQ(gos->stats().oal_entries, 3u);
  EXPECT_EQ(c.entries_published, gos->stats().oal_entries);
  EXPECT_EQ(c.entries_drained, gos->stats().oal_entries);

  // One slice per closed interval that logged anything, carrying the
  // interval's context and its at-most-once OAL in logging order.
  struct Slice {
    ArenaInterval iv;
    std::vector<OalEntry> entries;
  };
  std::vector<Slice> slices;
  for (const OalArena& log : logs) {
    for (const ArenaInterval& iv : log.intervals) {
      slices.push_back({iv, {log.entries.begin() + iv.begin,
                             log.entries.begin() + iv.end}});
    }
  }
  ASSERT_EQ(slices.size(), 2u);
  std::sort(slices.begin(), slices.end(), [](const Slice& x, const Slice& y) {
    return x.iv.thread < y.iv.thread;
  });
  const std::uint32_t gap = plan->real_gap(klass);
  EXPECT_EQ(slices[0].iv.thread, 0u);
  EXPECT_EQ(slices[0].iv.node, 0u);
  EXPECT_EQ(slices[0].iv.interval, 0u);
  EXPECT_EQ(slices[0].iv.start_pc, 0u);
  EXPECT_EQ(slices[0].iv.end_pc, 0u);
  ASSERT_EQ(slices[0].entries.size(), 1u);
  EXPECT_EQ(slices[0].entries[0].obj, a);
  EXPECT_EQ(slices[0].entries[0].klass, klass);
  EXPECT_EQ(slices[0].entries[0].bytes, 128u);
  EXPECT_EQ(slices[0].entries[0].gap, gap);
  EXPECT_EQ(slices[1].iv.thread, 1u);
  EXPECT_EQ(slices[1].iv.node, 1u);
  EXPECT_EQ(slices[1].iv.start_pc, 0u);  // interval opened before any label
  EXPECT_EQ(slices[1].iv.end_pc, 6u);    // the label live at the close
  ASSERT_EQ(slices[1].entries.size(), 2u);
  EXPECT_EQ(slices[1].entries[0].obj, a);
  EXPECT_EQ(slices[1].entries[1].obj, b);
  EXPECT_EQ(slices[1].entries[1].bytes, 128u);
  EXPECT_EQ(slices[1].entries[1].gap, gap);
}

TEST_F(GosTest, UnsampledObjectsNotLogged) {
  init(OalTransfer::kLocalOnly);
  plan->set_nominal_gap(klass, 1000003);  // effectively sample nothing
  plan->resample_all();
  const ObjectId o = gos->alloc(klass, 0);
  if (!plan->is_sampled(o)) {
    gos->read(0, o);
    EXPECT_EQ(gos->stats().oal_entries, 0u);
  }
}

TEST_F(GosTest, LocalOnlyModeSendsNoOalTraffic) {
  init(OalTransfer::kLocalOnly);
  const ObjectId o = gos->alloc(klass, 0);
  gos->read(0, o);
  gos->barrier_all();
  EXPECT_EQ(net->stats().bytes_of(MsgCategory::kOal), 0u);
  const std::vector<OalArena> logs = drain_hub(gos->ingest());
  ASSERT_EQ(logs.size(), 1u);
  EXPECT_EQ(logs[0].intervals.size(), 1u);  // still handed to the hub
}

TEST_F(GosTest, SendModeShipsOalTraffic) {
  init(OalTransfer::kSend);
  const ObjectId o = gos->alloc(klass, 0);
  gos->read(1, o);
  gos->barrier_all();
  EXPECT_GT(net->stats().bytes_of(MsgCategory::kOal), 0u);
  EXPECT_GE(gos->stats().oal_messages, 1u);
}

TEST_F(GosTest, OalWireBytesMatchEntryCount) {
  init(OalTransfer::kSend);
  std::vector<ObjectId> objs;
  for (int i = 0; i < 5; ++i) objs.push_back(gos->alloc(klass, 0));
  for (ObjectId o : objs) gos->read(1, o);
  const std::uint64_t before = net->stats().bytes_of(MsgCategory::kOal);
  gos->barrier_all();
  const std::uint64_t oal = net->stats().bytes_of(MsgCategory::kOal) - before;
  // Piggybacked on the barrier arrival to the master/coordinator: pure
  // payload, 5 entries + header.
  EXPECT_EQ(oal, kIntervalHeaderWireBytes + 5 * kOalEntryWireBytes);
}

TEST_F(GosTest, DisabledTrackingLogsNothing) {
  init(OalTransfer::kDisabled);
  const ObjectId o = gos->alloc(klass, 0);
  gos->read(0, o);
  gos->barrier_all();
  EXPECT_EQ(gos->stats().oal_entries, 0u);
  EXPECT_TRUE(drain_hub(gos->ingest()).empty());
}

TEST_F(GosTest, PrefetchPopulatesCache) {
  init();
  std::vector<ObjectId> objs;
  for (int i = 0; i < 8; ++i) objs.push_back(gos->alloc(klass, 0));
  gos->prefetch(1, objs);
  EXPECT_EQ(gos->stats().prefetched_objects, 8u);
  for (ObjectId o : objs) gos->read(1, o);
  EXPECT_EQ(gos->stats().object_faults, 0u);
}

TEST_F(GosTest, PrefetchSkipsAlreadyCached) {
  init();
  const ObjectId o = gos->alloc(klass, 0);
  gos->read(1, o);
  std::vector<ObjectId> objs{o};
  gos->prefetch(1, objs);
  EXPECT_EQ(gos->stats().prefetched_objects, 0u);
}

TEST_F(GosTest, HomeMigrationMovesHome) {
  init();
  const ObjectId o = gos->alloc(klass, 0);
  gos->migrate_homes({&o, 1}, 2);
  EXPECT_EQ(heap->meta(o).home, 2);
  EXPECT_TRUE(gos->node_has_copy(2, o));
  gos->read(2, o);  // new home: no fault
  EXPECT_EQ(gos->stats().object_faults, 0u);
}

TEST_F(GosTest, MoveThreadReassignsNode) {
  init();
  EXPECT_EQ(gos->thread_node(0), 0);
  gos->move_thread(0, 3);
  EXPECT_EQ(gos->thread_node(0), 3);
  const ObjectId o = gos->alloc(klass, 0);
  gos->read(0, o);  // now remote
  EXPECT_EQ(gos->stats().object_faults, 1u);
}

TEST_F(GosTest, MigrantCannotReadCopiesStalerThanItsOwnView) {
  // Regression test for a bug the protocol fuzzer found: node 3 caches an
  // object, then sits idle (no resident thread) through a barrier that
  // publishes a newer version.  A thread that DID pass that barrier and then
  // migrates to node 3 must re-fault — its happens-before knowledge travels
  // with it.
  init();
  const ObjectId o = gos->alloc(klass, 0);
  gos->read(3, o);  // thread 3 (node 3) caches the object...
  gos->move_thread(3, 2);  // ...then leaves node 3 idle
  gos->write(0, o);
  gos->barrier_all();      // publishes the write; node 3 has no thread
  const auto faults_before = gos->stats().object_faults;
  gos->move_thread(1, 3);  // thread 1 saw the barrier, migrates to node 3
  gos->read(1, o);         // MUST see the new version
  EXPECT_EQ(gos->stats().object_faults, faults_before + 1);
}

TEST_F(GosTest, MigrationPreservesAtMostOnceLog) {
  init(OalTransfer::kLocalOnly);
  const ObjectId o = gos->alloc(klass, 0);
  gos->read(0, o);
  gos->move_thread(0, 2);
  gos->read(0, o);  // same interval: must NOT log again
  EXPECT_EQ(gos->stats().oal_entries, 1u);
}

TEST_F(GosTest, FootprintTouchesRequireRearmTickChange) {
  init();
  gos->enable_footprinting(FootprintTimerMode::kNonstop, sim_ms(100), sim_ms(1));
  const ObjectId o = gos->alloc(klass, 0);
  gos->read(0, o);
  const auto first = gos->stats().footprint_touches;
  EXPECT_EQ(first, 1u);
  gos->read(0, o);  // same tick: deduplicated
  EXPECT_EQ(gos->stats().footprint_touches, 1u);
  gos->clock(0).advance(sim_ms(2));  // next tick
  gos->read(0, o);
  EXPECT_EQ(gos->stats().footprint_touches, 2u);
}

TEST_F(GosTest, FootprintTimerModeHasOffPhases) {
  init();
  gos->enable_footprinting(FootprintTimerMode::kTimerBased, sim_ms(10), sim_ms(1));
  const ObjectId o = gos->alloc(klass, 0);
  gos->read(0, o);  // clock ~0: on-phase
  EXPECT_EQ(gos->stats().footprint_touches, 1u);
  gos->clock(0).advance(sim_ms(10));  // into the off-phase
  gos->read(0, o);
  EXPECT_EQ(gos->stats().footprint_touches, 1u);
  gos->clock(0).advance(sim_ms(10));  // back on
  gos->read(0, o);
  EXPECT_EQ(gos->stats().footprint_touches, 2u);
}

TEST_F(GosTest, FootprintTouchesClearedAtIntervalClose) {
  init();
  gos->enable_footprinting(FootprintTimerMode::kNonstop, sim_ms(100), sim_ms(1));
  const ObjectId o = gos->alloc(klass, 0);
  gos->read(0, o);
  EXPECT_EQ(gos->footprint_touches(0).size(), 1u);
  gos->barrier_all();
  EXPECT_EQ(gos->footprint_touches(0).size(), 0u);
}

TEST_F(GosTest, BookMemoryFollowsTouchedPages) {
  init(OalTransfer::kLocalOnly);
  const std::size_t count = 16 * Gos::kBookPageObjects + 5;
  for (std::size_t i = 0; i < count; ++i) gos->alloc(klass, 0);
  const auto last = static_cast<ObjectId>(count - 1);
  EXPECT_EQ(gos->book_memory_bytes(), 0u);

  // A tracked thread holds the two pages it touched, not the heap's 17.
  gos->read(0, 0);
  gos->read(0, last);
  EXPECT_EQ(gos->book_memory_bytes(), 2 * Gos::kBookPageBytes);
  gos->write(0, 1);
  gos->read(0, last - 1);
  EXPECT_EQ(gos->book_memory_bytes(), 2 * Gos::kBookPageBytes);

  // Pages survive interval close: their stamps still gate the next interval.
  gos->barrier_all();
  EXPECT_EQ(gos->book_memory_bytes(), 2 * Gos::kBookPageBytes);

  // With tracking and footprinting off, reads keep no book at all.
  gos->set_tracking(OalTransfer::kDisabled);
  for (ObjectId o = 0; o < count; ++o) gos->read(1, o);
  EXPECT_EQ(gos->book_memory_bytes(), 2 * Gos::kBookPageBytes);
  // A write still needs its dirty stamp.
  gos->write(1, static_cast<ObjectId>(Gos::kBookPageObjects));
  EXPECT_EQ(gos->book_memory_bytes(), 3 * Gos::kBookPageBytes);
}

struct CountingHooks : Gos::Hooks {
  int stack_samples = 0;
  int interval_closes = 0;
  int accesses = 0;
  void on_stack_sample(ThreadId) override { ++stack_samples; }
  void on_interval_close(ThreadId) override { ++interval_closes; }
  void on_access(ThreadId, ObjectId, bool) override { ++accesses; }
};

TEST_F(GosTest, StackSamplingTimerFires) {
  init();
  CountingHooks hooks;
  gos->set_hooks(&hooks);
  gos->enable_stack_sampling(sim_ms(1));
  const ObjectId o = gos->alloc(klass, 0);
  for (int i = 0; i < 5; ++i) {
    gos->clock(0).advance(sim_ms(1));
    gos->read(0, o);
  }
  EXPECT_GE(hooks.stack_samples, 4);
  EXPECT_EQ(gos->stats().stack_samples, static_cast<std::uint64_t>(hooks.stack_samples));
}

TEST_F(GosTest, ObserveAccessesFansOut) {
  init();
  CountingHooks hooks;
  gos->set_hooks(&hooks);
  gos->set_observe_accesses(true);
  const ObjectId o = gos->alloc(klass, 0);
  gos->read(0, o);
  gos->write(0, o);
  EXPECT_EQ(hooks.accesses, 2);
  gos->set_observe_accesses(false);
  gos->read(0, o);
  EXPECT_EQ(hooks.accesses, 2);
}

TEST_F(GosTest, IntervalCloseHookFiresPerThreadAtBarrier) {
  init();
  CountingHooks hooks;
  gos->set_hooks(&hooks);
  gos->barrier_all();
  EXPECT_EQ(hooks.interval_closes, 4);
}

TEST_F(GosTest, BarrierAlignsClocks) {
  init();
  gos->clock(2).advance(sim_ms(50));
  gos->barrier_all();
  const SimTime t0 = gos->clock(0).now();
  for (ThreadId t = 1; t < 4; ++t) EXPECT_EQ(gos->clock(t).now(), t0);
  EXPECT_GT(t0, sim_ms(50));
}

TEST_F(GosTest, LockSerializesSimTime) {
  init();
  gos->clock(0).advance(sim_ms(10));
  gos->acquire(0, LockId{9});
  gos->release(0, LockId{9});
  const SimTime release_time = gos->clock(0).now();
  gos->acquire(1, LockId{9});
  EXPECT_GE(gos->clock(1).now(), release_time);
}

TEST_F(GosTest, StatsResetWorks) {
  init();
  const ObjectId o = gos->alloc(klass, 0);
  gos->read(1, o);
  gos->reset_stats();
  EXPECT_EQ(gos->stats().accesses, 0u);
  EXPECT_EQ(gos->stats().object_faults, 0u);
}

}  // namespace
}  // namespace djvm
