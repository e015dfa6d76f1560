// Property/fuzz tests of the HLRC protocol: random access/synchronisation
// schedules are replayed against an independent reference oracle that
// implements the same lazy-release-consistency validity rule with naive data
// structures.  Fault counts, at-most-once logging, cache-copy visibility and
// the per-thread ObjectBook (OAL, dirty and footprint stamps across book
// pages) must agree exactly for every seed.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.hpp"
#include "dsm/gos.hpp"

#include "ingest_helpers.hpp"

namespace djvm {
namespace {

/// Clean-room reference model of the consistency layer: per-node cache
/// epochs, a global release epoch, lazy invalidation at acquire/barrier.
class ReferenceOracle {
 public:
  ReferenceOracle(std::uint32_t nodes, std::uint32_t threads)
      : node_view_(nodes, 0), thread_view_(threads, 0), thread_node_(threads) {
    for (std::uint32_t t = 0; t < threads; ++t) thread_node_[t] = t % nodes;
  }

  void on_alloc(ObjectId obj, NodeId home) { home_[obj] = home; }

  /// Returns true when this access faults (fetch from home).
  bool access(ThreadId t, ObjectId obj, bool write) {
    const NodeId node = thread_node_[t];
    bool fault = false;
    if (home_[obj] != node) {
      auto it = fetch_epoch_.find({node, obj});
      if (it == fetch_epoch_.end()) {
        fault = true;
      } else {
        const std::uint32_t we = write_epoch_.count(obj) ? write_epoch_[obj] : 0;
        // Stale iff a newer release exists AND this node synchronized past it.
        if (we > it->second && we <= node_view_[node]) fault = true;
      }
      if (fault) fetch_epoch_[{node, obj}] = global_epoch_;
    }
    if (write) dirty_[t].insert(obj);
    return fault;
  }

  void release(ThreadId t) {
    if (!dirty_[t].empty()) {
      ++global_epoch_;
      const NodeId node = thread_node_[t];
      for (ObjectId obj : dirty_[t]) {
        write_epoch_[obj] = global_epoch_;
        if (home_[obj] != node) fetch_epoch_[{node, obj}] = global_epoch_;
      }
      dirty_[t].clear();
    }
  }

  void acquire(ThreadId t) {
    thread_view_[t] = global_epoch_;
    node_view_[thread_node_[t]] = global_epoch_;
  }

  void barrier() {
    for (std::size_t t = 0; t < thread_node_.size(); ++t) {
      release(static_cast<ThreadId>(t));
    }
    for (auto& v : node_view_) v = global_epoch_;
    for (auto& v : thread_view_) v = global_epoch_;
  }

  /// Migrants carry their happens-before knowledge to the destination node
  /// (the LRC property the fuzzer originally caught a violation of).
  void move_thread(ThreadId t, NodeId to) {
    thread_node_[t] = to;
    node_view_[to] = std::max(node_view_[to], thread_view_[t]);
  }

 private:
  std::map<ObjectId, NodeId> home_;
  std::map<std::pair<NodeId, ObjectId>, std::uint32_t> fetch_epoch_;
  std::map<ObjectId, std::uint32_t> write_epoch_;
  std::vector<std::uint32_t> node_view_;
  std::vector<std::uint32_t> thread_view_;
  std::vector<NodeId> thread_node_;
  std::map<ThreadId, std::set<ObjectId>> dirty_;
  std::uint32_t global_epoch_ = 1;
};

class ProtocolFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProtocolFuzz, FaultCountsMatchReferenceOracle) {
  const std::uint64_t seed = GetParam();
  Config cfg;
  cfg.nodes = 4;
  cfg.threads = 6;
  KlassRegistry reg;
  Heap heap(reg, cfg.nodes);
  SamplingPlan plan(heap);
  Network net(cfg.costs);
  Gos gos(heap, net, plan, cfg);
  for (std::uint32_t t = 0; t < cfg.threads; ++t) {
    gos.spawn_thread(static_cast<NodeId>(t % cfg.nodes));
  }
  const ClassId klass = reg.register_class("F", 64);

  ReferenceOracle oracle(cfg.nodes, cfg.threads);
  SplitMix64 rng(seed);

  std::vector<ObjectId> objs;
  for (int i = 0; i < 64; ++i) {
    const NodeId home = static_cast<NodeId>(rng.next_below(cfg.nodes));
    const ObjectId o = gos.alloc(klass, home);
    oracle.on_alloc(o, home);
    objs.push_back(o);
  }

  std::uint64_t oracle_faults = 0;
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t action = rng.next_below(100);
    const auto t = static_cast<ThreadId>(rng.next_below(cfg.threads));
    if (action < 70) {
      const ObjectId obj = objs[rng.next_below(objs.size())];
      const bool write = rng.next_below(4) == 0;
      oracle_faults += oracle.access(t, obj, write);
      if (write) {
        gos.write(t, obj);
      } else {
        gos.read(t, obj);
      }
    } else if (action < 80) {
      const LockId lock = static_cast<LockId>(rng.next_below(4));
      oracle.acquire(t);
      gos.acquire(t, lock);
    } else if (action < 90) {
      const LockId lock = static_cast<LockId>(rng.next_below(4));
      oracle.release(t);
      gos.release(t, lock);
    } else if (action < 95) {
      oracle.barrier();
      gos.barrier_all();
    } else {
      const NodeId to = static_cast<NodeId>(rng.next_below(cfg.nodes));
      oracle.move_thread(t, to);
      gos.move_thread(t, to);
    }
    ASSERT_EQ(gos.stats().object_faults, oracle_faults)
        << "diverged at step " << step << " (seed " << seed << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolFuzz,
                         ::testing::Values(1, 7, 42, 99, 1234, 5678, 424242));

class AtMostOnceFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AtMostOnceFuzz, LoggingNeverExceedsSampledObjectsPerInterval) {
  const std::uint64_t seed = GetParam();
  Config cfg;
  cfg.nodes = 2;
  cfg.threads = 3;
  cfg.oal_transfer = OalTransfer::kLocalOnly;
  KlassRegistry reg;
  Heap heap(reg, cfg.nodes);
  SamplingPlan plan(heap);
  Network net(cfg.costs);
  Gos gos(heap, net, plan, cfg);
  for (std::uint32_t t = 0; t < cfg.threads; ++t) {
    gos.spawn_thread(static_cast<NodeId>(t % cfg.nodes));
  }
  const ClassId klass = reg.register_class("F", 32);
  plan.set_nominal_gap(klass, 3);

  std::vector<ObjectId> objs;
  for (int i = 0; i < 90; ++i) objs.push_back(gos.alloc(klass, 0));

  SplitMix64 rng(seed);
  for (int round = 0; round < 20; ++round) {
    for (int a = 0; a < 500; ++a) {
      const auto t = static_cast<ThreadId>(rng.next_below(cfg.threads));
      gos.read(t, objs[rng.next_below(objs.size())]);
    }
    gos.barrier_all();
  }

  // Every interval's OAL must contain only sampled objects, each at most
  // once, with correct amortized bytes and gap.  Keyed by (thread,
  // interval): an interval that splits across arenas is still one interval.
  const std::vector<OalArena> logs = drain_hub(gos.ingest());
  std::map<std::pair<ThreadId, IntervalId>, std::set<ObjectId>> seen;
  std::uint64_t drained = 0;
  for (const OalArena& log : logs) {
    for (const ArenaInterval& iv : log.intervals) {
      auto& interval_seen = seen[{iv.thread, iv.interval}];
      for (std::uint32_t i = iv.begin; i < iv.end; ++i) {
        const OalEntry& e = log.entries[i];
        EXPECT_TRUE(interval_seen.insert(e.obj).second)
            << "object logged twice in one interval";
        EXPECT_TRUE(plan.is_sampled(e.obj));
        EXPECT_EQ(e.bytes, plan.sample_bytes(e.obj));
        EXPECT_EQ(e.gap, plan.real_gap(klass));
        ++drained;
      }
    }
  }
  // Nothing logged went missing between the close and the drain.
  EXPECT_GT(drained, 0u);
  EXPECT_EQ(drained, gos.stats().oal_entries);
  const IngestCounters c = gos.ingest().counters();
  EXPECT_EQ(c.entries_published, c.entries_drained);
  EXPECT_EQ(c.entries_drained, gos.stats().oal_entries);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AtMostOnceFuzz, ::testing::Values(3, 17, 2026));

class VisibilityFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VisibilityFuzz, NodeHasCopyAgreesWithFaultBehaviour) {
  const std::uint64_t seed = GetParam();
  Config cfg;
  cfg.nodes = 3;
  cfg.threads = 3;
  KlassRegistry reg;
  Heap heap(reg, cfg.nodes);
  SamplingPlan plan(heap);
  Network net(cfg.costs);
  Gos gos(heap, net, plan, cfg);
  for (std::uint32_t t = 0; t < cfg.threads; ++t) {
    gos.spawn_thread(static_cast<NodeId>(t));
  }
  const ClassId klass = reg.register_class("F", 16);
  std::vector<ObjectId> objs;
  for (int i = 0; i < 16; ++i) {
    objs.push_back(gos.alloc(klass, static_cast<NodeId>(i % cfg.nodes)));
  }

  SplitMix64 rng(seed);
  for (int step = 0; step < 2000; ++step) {
    const auto t = static_cast<ThreadId>(rng.next_below(cfg.threads));
    const ObjectId obj = objs[rng.next_below(objs.size())];
    const std::uint64_t action = rng.next_below(10);
    if (action < 6) {
      // node_has_copy() is the protocol's own validity predicate: an access
      // must fault exactly when it says there is no valid copy.
      const bool had_copy = gos.node_has_copy(gos.thread_node(t), obj);
      const std::uint64_t faults_before = gos.stats().object_faults;
      gos.read(t, obj);
      EXPECT_EQ(gos.stats().object_faults, faults_before + (had_copy ? 0 : 1));
    } else if (action < 8) {
      gos.write(t, obj);
    } else if (action < 9) {
      gos.release(t, LockId{1});
    } else {
      gos.barrier_all();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VisibilityFuzz, ::testing::Values(11, 29, 3141));

// The ObjectBook is paged per thread (Gos::kBookPageObjects records a page,
// allocated on first touch).  The heap here spans several pages, the touched
// ids include every page's first and last, and objects allocated mid-run land
// past every page directory, so a lookup that misses, aliases or forgets a
// record shows up as an OAL, diff or footprint count the oracles disagree
// with.
class BookFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BookFuzz, OalDiffsAndFootprintsMatchOraclesAcrossPages) {
  const std::uint64_t seed = GetParam();
  Config cfg;
  cfg.nodes = 3;
  cfg.threads = 5;
  cfg.oal_transfer = OalTransfer::kLocalOnly;
  KlassRegistry reg;
  Heap heap(reg, cfg.nodes);
  SamplingPlan plan(heap);
  Network net(cfg.costs);
  Gos gos(heap, net, plan, cfg);
  std::vector<NodeId> node(cfg.threads);
  for (std::uint32_t t = 0; t < cfg.threads; ++t) {
    node[t] = static_cast<NodeId>(t % cfg.nodes);
    gos.spawn_thread(node[t]);
  }
  // Every instance sampled, every third, and (past the first) none.
  const ClassId classes[] = {reg.register_class("Full", 32),
                             reg.register_class("Gap3", 48),
                             reg.register_class("None", 64)};
  plan.set_nominal_gap(classes[0], 1);
  plan.set_nominal_gap(classes[1], 3);
  plan.set_nominal_gap(classes[2], 1000003);
  const SimTime rearm = sim_ms(10);
  gos.enable_footprinting(FootprintTimerMode::kNonstop, rearm, rearm);

  SplitMix64 rng(seed);
  std::map<ObjectId, NodeId> home;
  std::set<ObjectId> sampled;
  std::vector<ObjectId> pool;  // the sparse subset the threads touch
  const auto alloc = [&](std::size_t n) {
    const auto first = static_cast<ObjectId>(heap.object_count());
    for (std::size_t i = 0; i < n; ++i) {
      const auto h = static_cast<NodeId>(rng.next_below(cfg.nodes));
      const ObjectId o = gos.alloc(classes[rng.next_below(3)], h);
      home[o] = h;
      if (plan.is_sampled(o)) sampled.insert(o);
    }
    const auto end = static_cast<ObjectId>(heap.object_count());
    for (ObjectId o = first; o < end; ++o) {
      const std::size_t off = o % Gos::kBookPageObjects;
      if (off == 0 || off == Gos::kBookPageObjects - 1 || o + 1 == end ||
          rng.next_below(64) == 0) {
        pool.push_back(o);
      }
    }
  };
  alloc(5 * Gos::kBookPageObjects + 37);

  // Oracles: each thread's interval id, the sampled objects each (thread,
  // interval) accessed, each thread's writes since its last release, and the
  // footprint ticks each thread counted per sampled object in its open
  // interval.  A tick counts once per (thread, object): the tick stamp
  // outlives interval close, so an object already touched in the current
  // tick before a sync op does not count again after it.
  std::vector<IntervalId> interval(cfg.threads, 0);
  std::map<std::pair<ThreadId, IntervalId>, std::set<ObjectId>> oal;
  std::vector<std::set<ObjectId>> dirty(cfg.threads);
  std::vector<std::map<ObjectId, SimTime>> last_tick(cfg.threads);
  std::vector<std::map<ObjectId, std::uint32_t>> ticks(cfg.threads);
  std::set<std::pair<ThreadId, std::size_t>> pages;
  std::uint64_t diffs = 0;

  const auto check_footprints = [&](ThreadId t) {
    std::map<ObjectId, std::uint32_t> got;
    for (const FootprintTouch& ft : gos.footprint_touches(t)) {
      EXPECT_TRUE(got.emplace(ft.obj, ft.ticks).second) << "object listed twice";
    }
    EXPECT_EQ(got, ticks[t]) << "footprints of thread " << t;
  };
  const auto flush_and_close = [&](ThreadId t, bool release) {
    if (release) {
      for (ObjectId o : dirty[t]) diffs += home[o] != node[t];
      dirty[t].clear();
    }
    ticks[t].clear();
    ++interval[t];
  };

  for (int step = 0; step < 6000; ++step) {
    // Later allocations extend the heap past every page a thread has seen.
    if (step == 2000) alloc(2 * Gos::kBookPageObjects + 500);
    if (step == 4000) alloc(Gos::kBookPageObjects + 1);
    const std::uint64_t action = rng.next_below(100);
    const auto t = static_cast<ThreadId>(rng.next_below(cfg.threads));
    const auto lock = static_cast<LockId>(rng.next_below(3));
    if (action < 70) {
      // Random jumps spread accesses over re-arm ticks; each access then
      // starts in the first half of its tick, which no access's own cost
      // can carry it out of, so the oracle knows the tick it counts at.
      SimClock& clock = gos.clock(t);
      if (rng.next_below(4) == 0) clock.advance(rng.next_below(2 * rearm));
      if (clock.now() % rearm >= rearm / 2) clock.advance(rearm - clock.now() % rearm);
      const ObjectId obj = pool[rng.next_below(pool.size())];
      const bool write = rng.next_below(4) == 0;
      if (sampled.count(obj) != 0) {
        oal[{t, interval[t]}].insert(obj);
        const SimTime tick = clock.now() / rearm;
        const auto [it, first] = last_tick[t].emplace(obj, tick);
        if (first || it->second != tick) {
          it->second = tick;
          ++ticks[t][obj];
        }
      }
      if (write) dirty[t].insert(obj);
      pages.insert({t, obj / Gos::kBookPageObjects});
      if (write) {
        gos.write(t, obj);
      } else {
        gos.read(t, obj);
      }
    } else if (action < 80) {
      check_footprints(t);
      flush_and_close(t, false);
      gos.acquire(t, lock);
    } else if (action < 90) {
      check_footprints(t);
      flush_and_close(t, true);
      gos.release(t, lock);
    } else if (action < 95) {
      for (ThreadId u = 0; u < cfg.threads; ++u) check_footprints(u);
      for (ThreadId u = 0; u < cfg.threads; ++u) flush_and_close(u, true);
      gos.barrier_all();
    } else {
      node[t] = static_cast<NodeId>(rng.next_below(cfg.nodes));
      gos.move_thread(t, node[t]);
    }
    EXPECT_EQ(gos.stats().diffs_sent, diffs);
    EXPECT_EQ(gos.interval_of(t), interval[t]);
    ASSERT_FALSE(HasFailure()) << "diverged at step " << step << " (seed " << seed << ")";
  }
  for (ThreadId u = 0; u < cfg.threads; ++u) check_footprints(u);
  gos.barrier_all();

  // Each thread holds exactly the pages it touched, wherever they lie.
  EXPECT_EQ(gos.book_memory_bytes(), pages.size() * Gos::kBookPageBytes);

  // Each (thread, interval) logged exactly the sampled objects it accessed,
  // each once.
  std::map<std::pair<ThreadId, IntervalId>, std::set<ObjectId>> logged;
  for (const OalArena& log : drain_hub(gos.ingest())) {
    for (const ArenaInterval& iv : log.intervals) {
      auto& objs = logged[{iv.thread, iv.interval}];
      for (std::uint32_t i = iv.begin; i < iv.end; ++i) {
        const OalEntry& e = log.entries[i];
        EXPECT_TRUE(objs.insert(e.obj).second) << "object logged twice in one interval";
        EXPECT_EQ(e.bytes, plan.sample_bytes(e.obj));
        EXPECT_EQ(e.gap, plan.gap_of(e.obj));
      }
    }
  }
  EXPECT_EQ(logged, oal);
  EXPECT_GT(sampled.size(), 0u);
  EXPECT_LT(sampled.size(), home.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BookFuzz, ::testing::Values(5, 23, 777, 90210, 31337));

}  // namespace
}  // namespace djvm
