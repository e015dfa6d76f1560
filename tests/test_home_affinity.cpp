// Home-effect-aware planning: the thread-home affinity matrix and the
// home-aware migration planner (paper Section VI future work).
#include <gtest/gtest.h>

#include "balance/load_balancer.hpp"

#include "ingest_helpers.hpp"

namespace djvm {
namespace {

class HomeAffinityTest : public ::testing::Test {
 protected:
  HomeAffinityTest() : heap(reg, 4) {
    klass = reg.register_class("X", 100);
  }

  OalArena rec(ThreadId t, std::vector<OalEntry> entries) {
    return interval_log(t, std::move(entries), kInvalidNode, next_++);
  }

  KlassRegistry reg;
  Heap heap;
  ClassId klass;
  IntervalId next_ = 0;
};

TEST_F(HomeAffinityTest, AttributesBytesToHomeNode) {
  const ObjectId a = heap.alloc(klass, 2);
  std::vector<OalArena> rs;
  rs.push_back(rec(0, {{a, klass, 100, 1}}));
  const ThreadHomeAffinity m = build_home_affinity(rs, heap, 4, 4);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 100.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
  EXPECT_EQ(m.best_node(0), 2);
}

TEST_F(HomeAffinityTest, HtWeightingApplied) {
  const ObjectId a = heap.alloc(klass, 1);
  std::vector<OalArena> rs;
  rs.push_back(rec(0, {{a, klass, 10, 31}}));
  EXPECT_DOUBLE_EQ(build_home_affinity(rs, heap, 2, 4, true).at(0, 1), 310.0);
  EXPECT_DOUBLE_EQ(build_home_affinity(rs, heap, 2, 4, false).at(0, 1), 10.0);
}

TEST_F(HomeAffinityTest, AtMostOncePerThreadObject) {
  const ObjectId a = heap.alloc(klass, 1);
  std::vector<OalArena> rs;
  rs.push_back(rec(0, {{a, klass, 100, 1}}));
  rs.push_back(rec(0, {{a, klass, 100, 1}}));  // re-logged next interval
  EXPECT_DOUBLE_EQ(build_home_affinity(rs, heap, 2, 4).at(0, 1), 100.0);
}

TEST_F(HomeAffinityTest, ReflectsHomeMigration) {
  const ObjectId a = heap.alloc(klass, 1);
  std::vector<OalArena> rs;
  rs.push_back(rec(0, {{a, klass, 100, 1}}));
  heap.set_home(a, 3);  // home migrated after profiling
  const ThreadHomeAffinity m = build_home_affinity(rs, heap, 2, 4);
  EXPECT_DOUBLE_EQ(m.at(0, 3), 100.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
}

TEST_F(HomeAffinityTest, RemoteVolume) {
  ThreadHomeAffinity m(2, 4);
  m.at(0, 0) = 10.0;
  m.at(0, 1) = 20.0;
  m.at(0, 3) = 30.0;
  EXPECT_DOUBLE_EQ(m.remote_volume(0, 0), 50.0);
  EXPECT_DOUBLE_EQ(m.remote_volume(0, 3), 30.0);
}

TEST_F(HomeAffinityTest, ThirdNodeHomeCase) {
  // The paper's tricky case: threads 0 and 1 share objects homed at node 2,
  // where neither runs.  The plain planner sees only pair affinity and would
  // merge them on node 0 or 1; the home-aware planner sends both to node 2.
  std::vector<ObjectId> shared;
  for (int i = 0; i < 50; ++i) shared.push_back(heap.alloc(klass, 2));
  std::vector<OalArena> rs;
  for (ThreadId t = 0; t < 2; ++t) {
    std::vector<OalEntry> entries;
    for (ObjectId o : shared) entries.push_back({o, klass, 100, 1});
    rs.push_back(rec(t, std::move(entries)));
  }
  const ThreadHomeAffinity home = build_home_affinity(rs, heap, 4, 4);

  SquareMatrix tcm(4);
  tcm.add_symmetric(0, 1, 50 * 100.0);
  Placement cur;
  cur.node_of_thread = {0, 1, 2, 3};
  MigrationCostModel model(heap, SimCosts{});
  std::vector<ClassFootprint> fps(4);
  std::vector<std::uint64_t> ctx(4, 512);

  // home_weight > 1: colocating with the peer does not help while the data
  // stays remote, so data gravity must dominate the pair term.
  const auto aware = plan_migrations_home_aware(
      tcm, home, cur, fps, ctx, model, 4, SimCosts{}.bytes_per_ns, 1, 2.0);
  ASSERT_FALSE(aware.empty());
  // Every suggestion for threads 0/1 must target node 2 (the data's home).
  for (const auto& s : aware) {
    if (s.thread <= 1) {
      EXPECT_EQ(s.to, 2) << "thread " << s.thread;
    }
  }
}

TEST_F(HomeAffinityTest, ZeroHomeWeightDegeneratesToPairPlanner) {
  const ObjectId a = heap.alloc(klass, 2);
  std::vector<OalArena> rs;
  rs.push_back(rec(0, {{a, klass, 100, 1}}));
  const ThreadHomeAffinity home = build_home_affinity(rs, heap, 4, 4);

  SquareMatrix tcm(4);
  tcm.add_symmetric(0, 3, 1e7);
  Placement cur;
  cur.node_of_thread = {0, 1, 2, 3};
  MigrationCostModel model(heap, SimCosts{});
  std::vector<ClassFootprint> fps(4);
  std::vector<std::uint64_t> ctx(4, 512);

  const auto plain =
      plan_migrations(tcm, cur, fps, ctx, model, 4, SimCosts{}.bytes_per_ns, 1);
  const auto aware = plan_migrations_home_aware(
      tcm, home, cur, fps, ctx, model, 4, SimCosts{}.bytes_per_ns, 1, 0.0);
  ASSERT_EQ(plain.size(), aware.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].thread, aware[i].thread);
    EXPECT_EQ(plain[i].to, aware[i].to);
  }
}

TEST_F(HomeAffinityTest, OutOfRangeEntriesIgnored) {
  std::vector<OalArena> rs;
  rs.push_back(rec(9, {{0, klass, 100, 1}}));        // thread out of range
  const ObjectId a = heap.alloc(klass, 1);
  rs.push_back(rec(0, {{a + 100, klass, 50, 1}}));   // object out of range
  const ThreadHomeAffinity m = build_home_affinity(rs, heap, 2, 4);
  for (ThreadId t = 0; t < 2; ++t) {
    for (NodeId n = 0; n < 4; ++n) EXPECT_DOUBLE_EQ(m.at(t, n), 0.0);
  }
}

}  // namespace
}  // namespace djvm
