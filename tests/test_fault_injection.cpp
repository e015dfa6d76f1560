// Fault tolerance: the seeded fault injector's determinism and fault
// dimensions, the reliable transport's retry/backoff accounting, degraded-
// mode operation (dead-node slices dropped at ingest; node failure ->
// quarantine, re-homing, thread failover, degraded epochs end to end), and
// the fault block of the JSONL timeline.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/djvm.hpp"
#include "export/timeline.hpp"
#include "net/faults.hpp"
#include "net/network.hpp"
#include "profiling/accuracy.hpp"

#include "ingest_helpers.hpp"

namespace djvm {
namespace {

Message msg(NodeId src, NodeId dst, MsgCategory cat, std::uint64_t bytes) {
  return {src, dst, cat, bytes, false};
}

// --- injector determinism ----------------------------------------------------

TEST(FaultInjector, IdenticalSeedYieldsBitIdenticalSchedule) {
  FaultKnobs plan;
  plan.enabled = true;
  plan.fault_seed = 0x1234;
  plan.drop_oal = 0.2;
  plan.drop_control = 0.05;
  plan.spike_probability = 0.1;
  plan.spike_ns = sim_us(500);
  plan.jitter_ns = sim_us(50);
  plan.stall_probability = 0.1;
  plan.stall_ns = sim_us(200);

  FaultInjector a(plan);
  FaultInjector b(plan);
  for (std::uint64_t e = 0; e < 4; ++e) {
    a.begin_epoch(e);
    b.begin_epoch(e);
    for (int i = 0; i < 500; ++i) {
      const auto cat = static_cast<MsgCategory>(i % 4);
      const auto src = static_cast<NodeId>(i % 3);
      const auto dst = static_cast<NodeId>((i + 1) % 3);
      const MessageFate fa = a.on_message(msg(src, dst, cat, 100));
      const MessageFate fb = b.on_message(msg(src, dst, cat, 100));
      EXPECT_EQ(fa.dropped, fb.dropped);
      EXPECT_EQ(fa.extra_ns, fb.extra_ns);
    }
  }
  EXPECT_EQ(a.decisions(), b.decisions());
  EXPECT_EQ(a.schedule_hash(), b.schedule_hash());
  EXPECT_GT(a.decisions(), 0u);

  // A different seed produces a different schedule.
  plan.fault_seed = 0x5678;
  FaultInjector c(plan);
  for (std::uint64_t e = 0; e < 4; ++e) {
    c.begin_epoch(e);
    for (int i = 0; i < 500; ++i) {
      const auto cat = static_cast<MsgCategory>(i % 4);
      (void)c.on_message(
          msg(static_cast<NodeId>(i % 3), static_cast<NodeId>((i + 1) % 3),
              cat, 100));
    }
  }
  EXPECT_NE(a.schedule_hash(), c.schedule_hash());
}

TEST(FaultInjector, DropRateTracksPerCategoryProbability) {
  FaultKnobs plan;
  plan.enabled = true;
  plan.drop_oal = 0.3;
  FaultInjector inj(plan);
  int dropped_oal = 0, dropped_ctl = 0;
  for (int i = 0; i < 2000; ++i) {
    dropped_oal += inj.on_message(msg(0, 1, MsgCategory::kOal, 64)).dropped;
    dropped_ctl += inj.on_message(msg(0, 1, MsgCategory::kControl, 64)).dropped;
  }
  // Seeded schedule: the empirical rate sits near the plan's probability.
  EXPECT_GT(dropped_oal, 2000 * 0.2);
  EXPECT_LT(dropped_oal, 2000 * 0.4);
  EXPECT_EQ(dropped_ctl, 0);  // control category has no drop probability set
}

TEST(FaultInjector, LocalMessagesAreExempt) {
  FaultKnobs plan;
  plan.enabled = true;
  plan.drop_oal = 1.0;
  plan.spike_probability = 1.0;
  plan.spike_ns = sim_us(100);
  FaultInjector inj(plan);
  const MessageFate fate = inj.on_message(msg(2, 2, MsgCategory::kOal, 64));
  EXPECT_FALSE(fate.dropped);
  EXPECT_EQ(fate.extra_ns, 0u);
  EXPECT_EQ(inj.decisions(), 0u);  // no schedule slot consumed
}

TEST(FaultInjector, SpikesAddBoundedLatency) {
  FaultKnobs plan;
  plan.enabled = true;
  plan.spike_probability = 1.0;
  plan.spike_ns = sim_us(500);
  plan.jitter_ns = sim_us(100);
  FaultInjector inj(plan);
  for (int i = 0; i < 100; ++i) {
    const MessageFate fate = inj.on_message(msg(0, 1, MsgCategory::kOal, 64));
    EXPECT_FALSE(fate.dropped);
    EXPECT_GE(fate.extra_ns, sim_us(500));
    EXPECT_LT(fate.extra_ns, sim_us(600));
  }
}

TEST(FaultInjector, StalledNodeTaxesItsTraffic) {
  FaultKnobs plan;
  plan.enabled = true;
  plan.stall_probability = 1.0;  // every node stalls every epoch
  plan.stall_ns = sim_us(300);
  FaultInjector inj(plan);
  inj.begin_epoch(0);
  EXPECT_TRUE(inj.node_stalled(0));
  const MessageFate fate = inj.on_message(msg(0, 1, MsgCategory::kControl, 8));
  EXPECT_EQ(fate.extra_ns, sim_us(300));
}

TEST(FaultInjector, TimedKillFiresAtItsEpoch) {
  FaultKnobs plan;
  plan.enabled = true;
  plan.kill_node = 2;
  plan.kill_epoch = 3;
  FaultInjector inj(plan);
  inj.begin_epoch(2);
  EXPECT_FALSE(inj.node_dead(2));
  EXPECT_FALSE(inj.on_message(msg(2, 0, MsgCategory::kOal, 64)).dropped);
  inj.begin_epoch(3);
  EXPECT_TRUE(inj.node_dead(2));
  EXPECT_TRUE(inj.on_message(msg(2, 0, MsgCategory::kOal, 64)).dropped);
  EXPECT_TRUE(inj.on_message(msg(0, 2, MsgCategory::kOal, 64)).dropped);
  EXPECT_FALSE(inj.on_message(msg(0, 1, MsgCategory::kOal, 64)).dropped);
  EXPECT_FALSE(inj.reachable(0, 2));
  EXPECT_TRUE(inj.reachable(0, 1));
}

TEST(FaultInjector, KillingANodeDoesNotShiftSurvivorSchedules) {
  FaultKnobs plan;
  plan.enabled = true;
  plan.drop_oal = 0.3;
  FaultInjector with_kill(plan);
  FaultInjector without(plan);
  with_kill.kill_node(2);
  for (int i = 0; i < 500; ++i) {
    // The killed node's traffic drops without consuming a schedule slot...
    EXPECT_TRUE(
        with_kill.on_message(msg(2, 0, MsgCategory::kOal, 64)).dropped);
    // ...so the survivors' fates match the kill-free schedule exactly.
    const MessageFate fa = with_kill.on_message(msg(0, 1, MsgCategory::kOal, 64));
    const MessageFate fb = without.on_message(msg(0, 1, MsgCategory::kOal, 64));
    EXPECT_EQ(fa.dropped, fb.dropped);
  }
}

TEST(FaultInjector, PartitionWindowSeversTheCut) {
  FaultKnobs plan;
  plan.enabled = true;
  plan.partition_begin = 2;
  plan.partition_end = 4;
  plan.partition_cut = 2;  // {0,1} vs {2,3}
  FaultInjector inj(plan);
  inj.begin_epoch(1);
  EXPECT_TRUE(inj.reachable(0, 3));
  inj.begin_epoch(2);
  EXPECT_FALSE(inj.reachable(0, 3));
  EXPECT_FALSE(inj.reachable(3, 0));
  EXPECT_TRUE(inj.reachable(0, 1));   // same side
  EXPECT_TRUE(inj.reachable(2, 3));   // same side
  EXPECT_TRUE(inj.on_message(msg(1, 2, MsgCategory::kControl, 8)).dropped);
  inj.begin_epoch(4);  // window is half-open: healed
  EXPECT_TRUE(inj.reachable(0, 3));
}

// --- reliable transport ------------------------------------------------------

TEST(ReliableTransport, RetriesWithExponentialBackoffUntilDelivered) {
  FaultKnobs plan;
  plan.enabled = true;
  plan.drop_oal = 0.5;
  plan.max_retries = 8;
  plan.retry_backoff_ns = sim_us(100);
  FaultInjector inj(plan);
  Network net(SimCosts{});
  net.set_fault_injector(&inj);

  int delivered = 0;
  for (int i = 0; i < 200; ++i) {
    delivered += net.send_reliable(msg(0, 1, MsgCategory::kOal, 100)).delivered;
  }
  // At 50% drop and 8 retries, effectively everything gets through, and the
  // retry counters show the cost of making it so.
  EXPECT_EQ(delivered, 200);
  EXPECT_GT(net.stats().total_retries(), 0u);
  EXPECT_GT(net.stats().total_backoff_ns(), 0u);
  const auto oal = static_cast<std::size_t>(MsgCategory::kOal);
  EXPECT_EQ(net.node_traffic(0).retries[oal], net.stats().retries[oal]);
  EXPECT_EQ(net.node_traffic(0).backoff_ns[oal], net.stats().backoff_ns[oal]);
  // Backoff waits are billed into send_ns, so the overhead meter prices them.
  EXPECT_GE(net.node_traffic(0).send_ns[oal],
            net.node_traffic(0).backoff_ns[oal]);
}

TEST(ReliableTransport, DeadDestinationFailsFastWithoutBurningRetries) {
  FaultKnobs plan;
  plan.enabled = true;
  plan.max_retries = 8;
  plan.retry_backoff_ns = sim_us(100);
  FaultInjector inj(plan);
  inj.kill_node(1);
  Network net(SimCosts{});
  net.set_fault_injector(&inj);

  const SendOutcome out = net.send_reliable(msg(0, 1, MsgCategory::kControl, 8));
  EXPECT_FALSE(out.delivered);
  // One initial attempt + one retry that notices the severed path: the
  // remaining budget is not burned against a node that can never answer.
  EXPECT_LE(out.attempts, 2u);

  bool ok = true;
  net.round_trip(0, 1, MsgCategory::kControl, 8, 8, &ok);
  EXPECT_FALSE(ok);
}

TEST(ReliableTransport, DroppedBytesAreStillBilledToTheSender) {
  FaultKnobs plan;
  plan.enabled = true;
  plan.drop_control = 1.0;
  plan.max_retries = 2;
  plan.retry_backoff_ns = sim_us(10);
  FaultInjector inj(plan);
  Network net(SimCosts{});
  net.set_fault_injector(&inj);

  const SendOutcome out = net.send_reliable(msg(0, 1, MsgCategory::kControl, 100));
  EXPECT_FALSE(out.delivered);
  EXPECT_EQ(out.attempts, 3u);  // initial + max_retries
  const auto ctl = static_cast<std::size_t>(MsgCategory::kControl);
  // Every attempt's bytes hit the wire counters (the sender spent them).
  EXPECT_EQ(net.stats().bytes[ctl], 3u * (100u + kMessageHeaderBytes));
  EXPECT_EQ(net.stats().dropped[ctl], 3u);
  EXPECT_EQ(net.stats().retries[ctl], 2u);
  // Exponential: 10us + 20us of backoff.
  EXPECT_EQ(net.stats().backoff_ns[ctl], sim_us(10) + sim_us(20));
}

TEST(ReliableTransport, NoInjectorMeansNoRetryArithmetic) {
  Network net(SimCosts{});
  const SendOutcome out = net.send_reliable(msg(0, 1, MsgCategory::kOal, 100));
  EXPECT_TRUE(out.delivered);
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_EQ(net.stats().total_retries(), 0u);
}

// --- dead-node slices at ingest ----------------------------------------------

TEST(DegradedIngest, DeadNodeSlicesLeaveExactlyTheSurvivorsMap) {
  // Thread n logs on node n: object 0 shared by all, object n + 1 private.
  // Node 2 is dead, so the daemon drops its slices at ingest.
  std::vector<OalArena> logs;
  for (NodeId n = 0; n < 3; ++n) {
    logs.push_back(interval_log(
        n, {{0, 0, 64, 1}, {static_cast<ObjectId>(n) + 1, 0, 32, 1}}, n));
  }
  KlassRegistry reg;
  Heap heap(reg, 3);
  SamplingPlan plan(heap);
  ArenaFeeder feeder;  // outlives the daemon: drained arenas recycle into it
  CorrelationDaemon daemon(plan, 3);
  daemon.set_node_filter([](NodeId n) { return n != 2; });
  feeder.feed(daemon, logs);
  const SquareMatrix map = daemon.run_epoch().tcm;
  // Incomplete, not wrong: exactly the survivors' map.
  const std::vector<OalArena> survivors(logs.begin(), logs.begin() + 2);
  const SquareMatrix survivor_ref = build_reference(survivors, 3);
  ASSERT_GT(survivor_ref.total(), 0.0);
  EXPECT_LT(absolute_error(map, survivor_ref), 1e-9);
  EXPECT_DOUBLE_EQ(map.at(0, 2), 0.0);  // thread 2 shared object 0 on node 2
}

// --- degraded mode end to end ------------------------------------------------

class DegradedModeTest : public ::testing::Test {
 protected:
  static Config base_cfg() {
    Config cfg;
    cfg.nodes = 4;
    cfg.threads = 4;
    cfg.oal_transfer = OalTransfer::kSend;
    cfg.faults.enabled = true;
    return cfg;
  }

  static void drive_epoch(Djvm& d, const std::vector<ObjectId>& objs) {
    for (ThreadId t = 0; t < d.thread_count(); ++t) {
      for (ObjectId o : objs) d.read(t, o);
      d.gos().clock(t).advance(static_cast<SimTime>(objs.size()) * 4000);
    }
    d.barrier_all();
  }
};

TEST_F(DegradedModeTest, FailNodeQuarantinesRehomesAndFailsOverThreads) {
  Config cfg = base_cfg();
  Djvm djvm(cfg);
  djvm.spawn_threads_round_robin(cfg.threads);
  const ClassId k = djvm.registry().register_class("Hot", 256);
  std::vector<ObjectId> objs;
  for (int i = 0; i < 32; ++i) {
    objs.push_back(djvm.gos().alloc(k, static_cast<NodeId>(i % cfg.nodes)));
  }
  drive_epoch(djvm, objs);
  (void)djvm.run_epoch();

  djvm.fail_node(1);

  ASSERT_NE(djvm.fault_injector(), nullptr);
  EXPECT_TRUE(djvm.fault_injector()->node_dead(1));
  EXPECT_TRUE(djvm.governor().is_quarantined(1));
  // No thread still runs on the dead node, and no object is homed there.
  for (ThreadId t = 0; t < djvm.thread_count(); ++t) {
    EXPECT_NE(djvm.gos().thread_node(t), 1);
  }
  for (std::size_t o = 0; o < djvm.heap().object_count(); ++o) {
    EXPECT_NE(djvm.heap().meta(static_cast<ObjectId>(o)).home, 1);
  }

  // The next epoch reports itself degraded and names the lost node.
  drive_epoch(djvm, objs);
  const EpochResult res = djvm.run_epoch();
  EXPECT_TRUE(res.degraded);
  ASSERT_EQ(res.lost_nodes.size(), 1u);
  EXPECT_EQ(res.lost_nodes[0], 1);

  // fail_node is idempotent and refuses to kill the last node alive.
  djvm.fail_node(1);
  djvm.fail_node(0);
  djvm.fail_node(2);
  djvm.fail_node(3);  // would be the last survivor: refused
  EXPECT_FALSE(djvm.fault_injector()->node_dead(3));
}

TEST_F(DegradedModeTest, TimedKillFromThePlanFiresDuringTheRun) {
  Config cfg = base_cfg();
  cfg.faults.kill_node = 2;
  cfg.faults.kill_epoch = 2;
  Djvm djvm(cfg);
  djvm.spawn_threads_round_robin(cfg.threads);
  const ClassId k = djvm.registry().register_class("Hot", 256);
  std::vector<ObjectId> objs;
  for (int i = 0; i < 32; ++i) {
    objs.push_back(djvm.gos().alloc(k, static_cast<NodeId>(i % cfg.nodes)));
  }

  bool saw_degraded = false;
  for (int e = 0; e < 4; ++e) {
    drive_epoch(djvm, objs);
    const EpochResult res = djvm.run_epoch();
    if (e < 2) {
      EXPECT_FALSE(res.degraded) << "epoch " << e;
    }
    saw_degraded |= res.degraded;
  }
  EXPECT_TRUE(saw_degraded);
  EXPECT_TRUE(djvm.governor().is_quarantined(2));
  for (ObjectId o : objs) EXPECT_NE(djvm.heap().meta(o).home, 2);
}

TEST_F(DegradedModeTest, QuarantinedNodeIsExcludedFromOffenderScoring) {
  Config cfg = base_cfg();
  cfg.governor.enabled = true;  // arms the per-node policy
  Djvm djvm(cfg);
  djvm.spawn_threads_round_robin(cfg.threads);
  const ClassId k = djvm.registry().register_class("Hot", 64);
  std::vector<ObjectId> objs;
  for (int i = 0; i < 32; ++i) {
    objs.push_back(djvm.gos().alloc(k, static_cast<NodeId>(i % cfg.nodes)));
  }
  drive_epoch(djvm, objs);
  (void)djvm.run_epoch();
  djvm.fail_node(1);
  drive_epoch(djvm, objs);
  const EpochResult res = djvm.run_epoch();
  if (res.offender.has_value()) {
    EXPECT_NE(*res.offender, 1);
  }
  EXPECT_EQ(djvm.governor().quarantined_nodes(),
            std::vector<NodeId>{1});
}

// --- timeline fault block ----------------------------------------------------

TEST(TimelineFaults, DegradedEpochRendersFaultBlock) {
  EpochResult epoch;
  epoch.epoch = 7;
  epoch.degraded = true;
  epoch.lost_nodes = {1, 3};
  epoch.dropped_msgs[static_cast<std::size_t>(MsgCategory::kOal)] = 12;
  epoch.retries[static_cast<std::size_t>(MsgCategory::kOal)] = 34;
  epoch.backoff_ns = 5600;

  KlassRegistry reg;
  Heap heap(reg, 1);
  SamplingPlan plan(heap);
  Governor gov(plan);
  const std::string line = timeline_line(epoch, gov, reg);
  EXPECT_NE(line.find("\"faults\":{\"degraded\":true"), std::string::npos);
  EXPECT_NE(line.find("\"lost_nodes\":[1,3]"), std::string::npos);
  EXPECT_NE(line.find("\"oal\":12"), std::string::npos);
  EXPECT_NE(line.find("\"oal\":34"), std::string::npos);
  EXPECT_NE(line.find("\"backoff_ns\":5600"), std::string::npos);
}

}  // namespace
}  // namespace djvm
