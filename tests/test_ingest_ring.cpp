// Lock-free OAL ingest: SPSC ring wrap-around and full-ring rejection,
// arena backpressure with the zero-loss invariant, stranded-arena collection
// at producer exit, destructor drain ordering, a real-thread stress run (the
// TSan CI lane executes this file), and arena-geometry invariance of the
// fold: the same interval stream must produce the same map whether it rides
// big arenas or tiny ones that split every interval, at both the daemon and
// the GOS level; and the pump's per-epoch ring telemetry and backpressure
// bill.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/djvm.hpp"
#include "profiling/correlation_daemon.hpp"
#include "profiling/ingest.hpp"

#include "ingest_helpers.hpp"

namespace djvm {
namespace {

// --- SpscRing ----------------------------------------------------------------

TEST(SpscRing, FifoOrderSurvivesWrapAround) {
  SpscRing<int> ring(4);
  ASSERT_EQ(ring.capacity(), 4u);
  int out = -1;
  int next_push = 0;
  int next_pop = 0;
  // Interleave pushes and pops far past capacity so the cursors wrap many
  // times; FIFO order must hold throughout.
  for (int round = 0; round < 64; ++round) {
    ASSERT_TRUE(ring.push(next_push++));
    ASSERT_TRUE(ring.push(next_push++));
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(out, next_pop++);
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(out, next_pop++);
  }
  EXPECT_FALSE(ring.pop(out));
  EXPECT_EQ(ring.size(), 0u);
}

TEST(SpscRing, FullRingRejectsWithoutDisturbingContents) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ring.push(i));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_FALSE(ring.push(99));  // full: rejected, nothing overwritten
  int out = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(ring.pop(out));
  // The rejected push left the ring usable.
  ASSERT_TRUE(ring.push(7));
  ASSERT_TRUE(ring.pop(out));
  EXPECT_EQ(out, 7);
}

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 1u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(8).capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(9).capacity(), 16u);
}

// --- IngestHub ---------------------------------------------------------------

OalEntry entry(ObjectId obj) { return {obj, 0, 64, 1}; }

TEST(IngestHub, IntervalSplitsAcrossFullArenas) {
  IngestKnobs cfg;
  cfg.arena_entries = 4;
  cfg.ring_depth = 8;
  IngestHub hub(cfg);
  hub.ensure_lanes(1);

  std::vector<OalEntry> oal;
  for (ObjectId o = 0; o < 10; ++o) oal.push_back(entry(o));
  hub.append(/*lane=*/0, /*thread=*/3, /*interval=*/7, /*node=*/1,
             /*start_pc=*/11, /*end_pc=*/12, oal);

  // 10 entries into 4-entry arenas: two full arenas published, 2 entries
  // left in the open arena.  Every slice repeats the interval header.
  std::size_t drained = 0;
  std::size_t slices = 0;
  OalArena* a = nullptr;
  while ((a = hub.try_pop()) != nullptr) {
    EXPECT_EQ(a->entries.size(), 4u);
    for (const ArenaInterval& iv : a->intervals) {
      ++slices;
      EXPECT_EQ(iv.thread, 3u);
      EXPECT_EQ(iv.interval, 7u);
      EXPECT_EQ(iv.node, 1u);
      EXPECT_EQ(iv.start_pc, 11u);
      EXPECT_EQ(iv.end_pc, 12u);
      drained += iv.end - iv.begin;
    }
    hub.recycle(a);
  }
  EXPECT_EQ(drained, 8u);
  EXPECT_EQ(slices, 2u);
  for (OalArena* s : hub.take_stranded()) {
    EXPECT_EQ(s->entries.size(), 2u);
    drained += s->entries.size();
    hub.recycle(s);
  }
  EXPECT_EQ(drained, 10u);
}

TEST(IngestHub, BackpressureParksArenasAndLosesNothing) {
  IngestKnobs cfg;
  cfg.arena_entries = 2;
  cfg.ring_depth = 1;
  IngestHub hub(cfg);
  hub.ensure_lanes(1);

  constexpr std::uint64_t kEntries = 64;
  std::vector<OalEntry> oal;
  for (std::uint64_t i = 0; i < kEntries; ++i) {
    oal.assign(1, entry(i));
    hub.append(0, 0, /*interval=*/i, 0, 0, 0, oal);
  }
  hub.flush(0);

  const IngestCounters mid = hub.counters();
  EXPECT_GT(mid.backpressure_events, 0u)
      << "a depth-1 ring with no consumer must backpressure";
  EXPECT_EQ(mid.entries_published + 0u, kEntries);

  // Drain everything: the outbound ring first, then the parked overflow via
  // take_stranded.  Global FIFO must hold (ring arenas predate parked ones).
  std::uint64_t drained = 0;
  std::uint64_t next_interval = 0;
  auto consume = [&](OalArena* a) {
    for (const ArenaInterval& iv : a->intervals) {
      EXPECT_EQ(iv.interval, next_interval++);
      drained += iv.end - iv.begin;
    }
    hub.recycle(a);
  };
  while (OalArena* a = hub.try_pop()) consume(a);
  for (OalArena* s : hub.take_stranded()) consume(s);

  EXPECT_EQ(drained, kEntries);
  const IngestCounters done = hub.counters();
  EXPECT_EQ(done.entries_drained, done.entries_published);
  EXPECT_EQ(done.entries_drained, kEntries);
}

TEST(IngestHub, TakeStrandedCollectsOpenArenaAtProducerExit) {
  IngestKnobs cfg;
  cfg.arena_entries = 16;
  cfg.ring_depth = 4;
  IngestHub hub(cfg);
  hub.ensure_lanes(2);

  std::vector<OalEntry> oal{entry(1), entry(2), entry(3)};
  hub.append(/*lane=*/1, 1, 0, 0, 0, 0, oal);
  // No flush: the producer "exited" with a partially filled open arena.
  EXPECT_EQ(hub.try_pop(), nullptr);

  std::vector<OalArena*> stranded = hub.take_stranded();
  ASSERT_EQ(stranded.size(), 1u);
  EXPECT_EQ(stranded[0]->entries.size(), 3u);
  EXPECT_EQ(stranded[0]->lane, 1u);
  hub.recycle(stranded[0]);

  // The loss invariant holds even for the stranded hand-off: both sides of
  // the ledger saw the arena.
  const IngestCounters c = hub.counters();
  EXPECT_EQ(c.entries_published, 3u);
  EXPECT_EQ(c.entries_drained, 3u);
  // Idempotent once collected.
  EXPECT_TRUE(hub.take_stranded().empty());
}

TEST(IngestHub, DestructorReleasesOutstandingArenas) {
  // Leave arenas in every station — published (in-ring), parked, open,
  // recycled, spare — and destroy the hub; the sanitizer lanes verify no
  // leak and no double-free regardless of drain ordering.
  IngestKnobs cfg;
  cfg.arena_entries = 2;
  cfg.ring_depth = 1;
  IngestHub hub(cfg);
  hub.ensure_lanes(3);
  std::vector<OalEntry> oal;
  for (std::uint32_t lane = 0; lane < 3; ++lane) {
    for (std::uint64_t i = 0; i < 8; ++i) {
      oal.assign(1, entry(i));
      hub.append(lane, lane, i, 0, 0, 0, oal);
    }
  }
  hub.flush(0);  // lane 1 and 2 keep open arenas
  if (OalArena* a = hub.try_pop()) hub.recycle(a);
}

TEST(IngestHub, ConcurrentProducersSingleConsumerLoseNothing) {
  constexpr std::uint32_t kProducers = 4;
  constexpr std::uint64_t kIntervals = 2000;
  IngestKnobs cfg;
  cfg.arena_entries = 8;  // small arenas: constant publish/recycle churn
  cfg.ring_depth = 2;     // shallow rings: backpressure under load
  IngestHub hub(cfg);
  hub.ensure_lanes(kProducers);

  std::uint64_t expected = 0;
  for (std::uint64_t i = 0; i < kIntervals; ++i) expected += 1 + i % 3;
  expected *= kProducers;

  std::atomic<std::uint32_t> live{kProducers};
  std::vector<std::thread> producers;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&hub, &live, p] {
      std::vector<OalEntry> oal;
      for (std::uint64_t i = 0; i < kIntervals; ++i) {
        oal.assign(1 + i % 3, entry(i));
        hub.append(p, p, i, static_cast<NodeId>(p), 0, 0, oal);
      }
      hub.flush(p);
      live.fetch_sub(1, std::memory_order_release);
    });
  }

  std::uint64_t drained = 0;
  std::vector<std::uint64_t> last_interval(kProducers, 0);
  auto consume = [&](OalArena* a) {
    for (const ArenaInterval& iv : a->intervals) {
      // Per-lane FIFO: interval ids never go backwards (splits repeat one).
      EXPECT_GE(iv.interval, last_interval[iv.thread]);
      last_interval[iv.thread] = iv.interval;
      drained += iv.end - iv.begin;
    }
    hub.recycle(a);
  };
  while (live.load(std::memory_order_acquire) != 0) {
    OalArena* a = hub.try_pop();
    if (a != nullptr) {
      consume(a);
    } else {
      std::this_thread::yield();
    }
  }
  for (std::thread& t : producers) t.join();
  while (OalArena* a = hub.try_pop()) consume(a);
  for (OalArena* s : hub.take_stranded()) consume(s);

  EXPECT_EQ(drained, expected);
  const IngestCounters done = hub.counters();
  EXPECT_EQ(done.entries_published, expected);
  EXPECT_EQ(done.entries_drained, expected);
  // Saturated producers may outrun recycling (the hub allocates rather than
  // drops), but never allocate more than they publish.
  EXPECT_LE(done.arenas_allocated, done.arenas_published);
}

TEST(IngestHub, SteadyStateReusesRecycledArenas) {
  IngestKnobs cfg;
  cfg.arena_entries = 4;
  cfg.ring_depth = 4;
  IngestHub hub(cfg);
  hub.ensure_lanes(1);

  // Keep the consumer in lockstep: each round publishes exactly one full
  // arena, drains it, and hands it back.  After warmup the open slot pulls
  // from the recycle ring, so the allocation counter must go flat.
  std::vector<OalEntry> oal;
  for (std::uint64_t round = 0; round < 200; ++round) {
    oal.assign(cfg.arena_entries, entry(round));
    hub.append(0, 0, round, 0, 0, 0, oal);
    OalArena* a = hub.try_pop();
    ASSERT_NE(a, nullptr);
    hub.recycle(a);
  }
  const IngestCounters c = hub.counters();
  EXPECT_EQ(c.arenas_published, 200u);
  EXPECT_LE(c.arenas_allocated, static_cast<std::uint64_t>(cfg.ring_depth) + 2);
}

// --- daemon equivalence ------------------------------------------------------

class IngestDaemonTest : public ::testing::Test {
 protected:
  IngestDaemonTest() : heap(reg, 2), plan(heap) {
    klass = reg.register_class("X", 64);
  }

  /// A deterministic batch: `threads` threads, `per_thread` intervals each,
  /// overlapping object footprints so the TCM is dense enough to diff.
  /// One arena, one slice per interval.
  OalArena make_batch(std::uint32_t threads, std::uint32_t per_thread,
                      std::uint64_t salt) {
    OalArena out;
    for (std::uint32_t t = 0; t < threads; ++t) {
      for (std::uint32_t i = 0; i < per_thread; ++i) {
        std::vector<OalEntry> entries;
        const std::uint32_t span = 3 + (t + i) % 4;
        for (std::uint32_t o = 0; o < span; ++o) {
          entries.push_back({(salt + t + o) % 16, klass, 64, 1 + o % 2});
        }
        append_interval(out,
                        ArenaInterval{t, salt * 100 + i,
                                      static_cast<NodeId>(t % 2), i, i + 1},
                        entries);
      }
    }
    return out;
  }

  KlassRegistry reg;
  Heap heap;
  SamplingPlan plan;
  ClassId klass;
};

TEST_F(IngestDaemonTest, EpochInvariantAcrossArenaGeometry) {
  constexpr std::uint32_t kThreads = 4;
  CorrelationDaemon big(plan, kThreads);
  CorrelationDaemon tiny(plan, kThreads);
  IngestHub big_hub;  // default geometry: whole batches fit one arena
  IngestKnobs tiny_cfg;
  tiny_cfg.arena_entries = 4;  // forces per-interval splits
  tiny_cfg.ring_depth = 2;     // and backpressure parking
  IngestHub tiny_hub(tiny_cfg);
  big_hub.ensure_lanes(kThreads);
  tiny_hub.ensure_lanes(kThreads);

  for (std::uint64_t epoch = 0; epoch < 3; ++epoch) {
    const OalArena batch = make_batch(kThreads, 5, epoch);
    append_slices(big_hub, batch);
    append_slices(tiny_hub, batch);
    ASSERT_GT(big.ingest(big_hub), 0u);
    ASSERT_GT(tiny.ingest(tiny_hub), 0u);

    const EpochResult eb = big.run_epoch();
    const EpochResult et = tiny.run_epoch();
    EXPECT_EQ(et.tcm, eb.tcm) << "epoch " << epoch;
    EXPECT_EQ(et.entries, eb.entries);
    // Splits repeat interval headers: the tiny side sees more slices, never
    // fewer, and the map is blind to the difference.
    EXPECT_GE(et.intervals, eb.intervals);
    EXPECT_EQ(et.rel_distance.has_value(), eb.rel_distance.has_value());
    if (et.rel_distance.has_value()) {
      EXPECT_DOUBLE_EQ(*et.rel_distance, *eb.rel_distance);
    }
    // Both hubs carried the same entries, and nothing ever drops: every
    // published entry was drained into the daemon.
    const IngestCounters cb = big_hub.counters();
    const IngestCounters ct = tiny_hub.counters();
    EXPECT_GT(cb.entries_published, 0u);
    EXPECT_EQ(cb.entries_published, ct.entries_published);
    EXPECT_EQ(cb.entries_drained, cb.entries_published);
    EXPECT_EQ(ct.entries_drained, ct.entries_published);
  }
  EXPECT_EQ(tiny.build_full(), big.build_full());
}

TEST_F(IngestDaemonTest, BuildFullCoversPendingArenas) {
  CorrelationDaemon big(plan, 4);
  CorrelationDaemon tiny(plan, 4);
  IngestHub big_hub;
  IngestKnobs tiny_cfg;
  tiny_cfg.arena_entries = 4;
  tiny_cfg.ring_depth = 2;
  IngestHub tiny_hub(tiny_cfg);
  big_hub.ensure_lanes(4);
  tiny_hub.ensure_lanes(4);

  // One folded epoch plus a pending (never-epoch'd) tail on both sides.
  const OalArena first = make_batch(4, 4, 1);
  append_slices(big_hub, first);
  append_slices(tiny_hub, first);
  big.ingest(big_hub);
  tiny.ingest(tiny_hub);
  big.run_epoch();
  tiny.run_epoch();

  const OalArena tail = make_batch(4, 2, 2);
  append_slices(big_hub, tail);
  append_slices(tiny_hub, tail);
  big.ingest(big_hub);
  tiny.ingest(tiny_hub);
  EXPECT_GT(big.pending(), 0u);
  EXPECT_GT(tiny.pending(), 0u);

  EXPECT_EQ(tiny.build_full(), big.build_full());
}

// --- end-to-end through the GOS ---------------------------------------------

struct EndToEnd {
  SquareMatrix tcm;
  std::uint64_t oal_messages = 0;
  std::uint64_t oal_send_ns = 0;
  std::uint64_t oal_wire_bytes = 0;
  std::uint64_t intervals_closed = 0;
};

EndToEnd run_end_to_end(const IngestKnobs& ingest) {
  Config cfg;
  cfg.nodes = 2;
  cfg.threads = 4;
  cfg.oal_transfer = OalTransfer::kSend;
  cfg.ingest = ingest;
  Djvm djvm(cfg);
  djvm.spawn_threads_round_robin(cfg.threads);
  const ClassId k = djvm.registry().register_class("Shared", 64);
  std::vector<ObjectId> objs;
  for (std::uint32_t i = 0; i < 16; ++i) {
    objs.push_back(djvm.gos().alloc(k, static_cast<NodeId>(i % cfg.nodes)));
  }
  for (std::uint32_t round = 0; round < 6; ++round) {
    for (ThreadId t = 0; t < cfg.threads; ++t) {
      for (std::uint32_t o = 0; o < 6; ++o) {
        djvm.read(t, objs[(t + o + round) % objs.size()]);
      }
    }
    djvm.barrier_all();
    djvm.pump_daemon();
  }
  EXPECT_NE(djvm.ingest_hub(), nullptr);
  EndToEnd r;
  r.tcm = djvm.daemon().build_full();
  r.oal_messages = djvm.gos().stats().oal_messages;
  r.oal_send_ns = djvm.gos().stats().oal_send_ns;
  r.oal_wire_bytes = djvm.net().stats().bytes_of(MsgCategory::kOal);
  r.intervals_closed = djvm.gos().stats().intervals_closed;
  return r;
}

/// Same workload, but a home migration plus a thread move land mid-run while
/// thread 0's ingest lane still holds a non-empty *open* (unpublished) arena
/// from the previous interval close: re-keying must not disturb, drop, or
/// double-count anything the lane already buffered.
EndToEnd run_with_mid_run_home_migration(const IngestKnobs& ingest) {
  Config cfg;
  cfg.nodes = 2;
  cfg.threads = 4;
  cfg.oal_transfer = OalTransfer::kSend;
  cfg.ingest = ingest;
  Djvm djvm(cfg);
  djvm.spawn_threads_round_robin(cfg.threads);
  const ClassId k = djvm.registry().register_class("Shared", 64);
  std::vector<ObjectId> objs;
  for (std::uint32_t i = 0; i < 16; ++i) {
    objs.push_back(djvm.gos().alloc(k, static_cast<NodeId>(i % cfg.nodes)));
  }
  for (std::uint32_t round = 0; round < 6; ++round) {
    for (ThreadId t = 0; t < cfg.threads; ++t) {
      for (std::uint32_t o = 0; o < 6; ++o) {
        djvm.read(t, objs[(t + o + round) % objs.size()]);
      }
    }
    djvm.barrier_all();  // closes intervals into the open arenas — no pump yet
    if (round == 2) {
      // Thread 0's lane now buffers closed-but-unpublished entries.  Move a
      // hot object's home and its reader's node out from under them.
      djvm.gos().migrate_homes({&objs[0], 1}, 1);
      djvm.gos().move_thread(0, 1);
    }
    djvm.pump_daemon();
  }
  EndToEnd r;
  r.tcm = djvm.daemon().build_full();
  r.oal_messages = djvm.gos().stats().oal_messages;
  r.intervals_closed = djvm.gos().stats().intervals_closed;
  return r;
}

/// Roomy arenas (nothing ever splits) vs the split-everything geometry.
IngestKnobs roomy_geometry() { return IngestKnobs{}; }
IngestKnobs splitty_geometry() {
  IngestKnobs cfg;
  cfg.arena_entries = 8;  // 6-entry intervals fill one fast: constant turnover
  cfg.ring_depth = 2;     // shallow rings: backpressure parking mid-run
  return cfg;
}

TEST(GosIngest, PumpReportsRingGrowthAndBillsBackpressure) {
  // Ring telemetry, loss included, comes from the hub's counters, read once
  // per epoch by the pump; every backpressure event is billed to the sample's
  // rate-dependent bucket on top of the worker CPU the clocks carried, and
  // the application seconds are the clocks' growth less that CPU alone.
  Config cfg;
  cfg.nodes = 2;
  cfg.threads = 4;
  cfg.oal_transfer = OalTransfer::kSend;
  cfg.ingest = splitty_geometry();
  Djvm djvm(cfg);
  djvm.spawn_threads_round_robin(cfg.threads);
  const ClassId k = djvm.registry().register_class("Shared", 64);
  std::vector<ObjectId> objs;
  for (std::uint32_t i = 0; i < 16; ++i) {
    objs.push_back(djvm.gos().alloc(k, static_cast<NodeId>(i % cfg.nodes)));
  }
  const auto clocks = [&] {
    SimTime sum = 0;
    for (ThreadId t = 0; t < cfg.threads; ++t) sum += djvm.gos().clock(t).now();
    return sum;
  };
  IngestCounters ring_then;
  ProtocolStats ps_then;
  SimTime clocks_then = 0;
  std::uint64_t backpressure = 0;
  for (std::uint32_t epoch = 0; epoch < 6; ++epoch) {
    for (std::uint32_t round = 0; round < 4; ++round) {
      for (ThreadId t = 0; t < cfg.threads; ++t) {
        for (std::uint32_t o = 0; o < 6; ++o) {
          djvm.read(t, objs[(t + o + round + epoch) % objs.size()]);
        }
      }
      djvm.barrier_all();  // no pump between rounds: the shallow rings fill
    }
    const EpochResult r = djvm.run_epoch();
    const IngestCounters ring = djvm.ingest_hub()->counters();
    EXPECT_EQ(r.ring_published, ring.arenas_published - ring_then.arenas_published);
    EXPECT_EQ(r.ring_entries, ring.entries_published - ring_then.entries_published);
    EXPECT_EQ(r.ring_backpressure,
              ring.backpressure_events - ring_then.backpressure_events);
    EXPECT_GT(r.ring_entries, 0u);
    // Loss is what the lanes published this epoch and the pump's quiesced
    // drain did not collect; parked arenas are drained too, so it stays 0.
    EXPECT_EQ(r.ring_dropped,
              (ring.entries_published - ring_then.entries_published) -
                  (ring.entries_drained - ring_then.entries_drained));
    EXPECT_EQ(r.ring_dropped, 0u);

    const ProtocolStats& ps = djvm.gos().stats();
    const double worker =
        (static_cast<double>(ps.oal_entries - ps_then.oal_entries) *
             static_cast<double>(kLogServiceCost) +
         static_cast<double>(ps.footprint_touches - ps_then.footprint_touches) *
             static_cast<double>(kFootprintServiceCost)) *
            1e-9 +
        static_cast<double>(ps.oal_send_ns - ps_then.oal_send_ns) * 1e-9;
    const double bill =
        static_cast<double>(r.ring_backpressure) * kRingBackpressureSeconds;
    EXPECT_DOUBLE_EQ(r.sample.access_check_seconds, worker + bill)
        << "epoch " << epoch;
    EXPECT_DOUBLE_EQ(r.sample.app_seconds,
                     static_cast<double>(clocks() - clocks_then) * 1e-9 - worker)
        << "epoch " << epoch;

    backpressure += r.ring_backpressure;
    ring_then = ring;
    ps_then = ps;
    clocks_then = clocks();
  }
  EXPECT_GT(backpressure, 0u);
}

TEST(GosIngest, HomeMigrationOverOpenArenaIsGeometryInvariant) {
  const EndToEnd roomy = run_with_mid_run_home_migration(roomy_geometry());
  const EndToEnd splitty = run_with_mid_run_home_migration(splitty_geometry());
  ASSERT_GT(roomy.tcm.total(), 0.0);
  ASSERT_EQ(splitty.tcm.size(), roomy.tcm.size());
  for (std::size_t i = 0; i < roomy.tcm.size(); ++i) {
    for (std::size_t j = 0; j < roomy.tcm.size(); ++j) {
      EXPECT_NEAR(splitty.tcm.at(i, j), roomy.tcm.at(i, j), 1e-9)
          << "cell (" << i << "," << j << ")";
    }
  }
  EXPECT_EQ(splitty.intervals_closed, roomy.intervals_closed);
  EXPECT_EQ(splitty.oal_messages, roomy.oal_messages);
}

TEST(GosIngest, FoldIsGeometryInvariantEndToEnd) {
  const EndToEnd roomy = run_end_to_end(roomy_geometry());
  const EndToEnd splitty = run_end_to_end(splitty_geometry());
  ASSERT_GT(roomy.tcm.total(), 0.0);
  // Identical map and interval stream: arena geometry only changes how the
  // hand-off is chunked, never what the daemon folds.
  EXPECT_EQ(splitty.tcm, roomy.tcm);
  EXPECT_EQ(splitty.oal_messages, roomy.oal_messages);
  EXPECT_EQ(splitty.oal_send_ns, roomy.oal_send_ns);
  EXPECT_EQ(splitty.intervals_closed, roomy.intervals_closed);
  // Splits repeat interval headers on the wire: the splitty run ships at
  // least as many header bytes, never fewer.
  EXPECT_GE(splitty.oal_wire_bytes, roomy.oal_wire_bytes);
}

}  // namespace
}  // namespace djvm
