// Sticky-set footprinting and resolution: the >= 2-tick criterion, per-class
// budgets, landmark-guided pruning.
#include <gtest/gtest.h>

#include "sticky/footprint.hpp"
#include "sticky/resolution.hpp"

namespace djvm {
namespace {

class StickyTest : public ::testing::Test {
 protected:
  StickyTest() : heap(reg, 1), plan(heap) {
    klass = reg.register_class("Node", 64, 4);
    other = reg.register_class("Other", 128, 0);
  }

  ObjectId make(ClassId c = kInvalidClass) {
    const ObjectId o = heap.alloc(c == kInvalidClass ? klass : c, 0);
    plan.on_alloc(o);
    return o;
  }

  KlassRegistry reg;
  Heap heap;
  SamplingPlan plan;
  ClassId klass = kInvalidClass;
  ClassId other = kInvalidClass;
};

TEST_F(StickyTest, SingleTouchIsNotSticky) {
  FootprintTracker tracker(heap, plan);
  const ObjectId a = make();
  std::vector<FootprintTouch> touches{{a, 1}};
  tracker.on_interval_close(0, touches);
  EXPECT_DOUBLE_EQ(tracker.footprint(0).total(), 0.0);
}

TEST_F(StickyTest, TwoTicksMakeSticky) {
  FootprintTracker tracker(heap, plan);
  const ObjectId a = make();
  std::vector<FootprintTouch> touches{{a, 2}};
  tracker.on_interval_close(0, touches);
  EXPECT_DOUBLE_EQ(tracker.footprint(0).of(klass), 64.0);
  EXPECT_DOUBLE_EQ(tracker.footprint(0).total(), 64.0);
}

TEST_F(StickyTest, Fig4Scenario) {
  // Fig. 4: A accessed at several instants within the interval, B once.
  // Only A contributes to the migration cost.  A is a `Node`, B an `Other`,
  // so the footprint's classes name which of them was sticky.
  FootprintTracker tracker(heap, plan);
  const ObjectId A = make();
  const ObjectId B = make(other);
  std::vector<FootprintTouch> touches{{A, 3}, {B, 1}};
  tracker.on_interval_close(0, touches);
  const ClassFootprint fp = tracker.footprint(0);
  EXPECT_DOUBLE_EQ(fp.of(klass), 64.0);
  EXPECT_DOUBLE_EQ(fp.of(other), 0.0);
}

TEST_F(StickyTest, FootprintAveragesAcrossIntervals) {
  FootprintTracker tracker(heap, plan);
  const ObjectId a = make();
  const ObjectId b = make();
  std::vector<FootprintTouch> i1{{a, 2}};
  std::vector<FootprintTouch> i2{{a, 2}, {b, 2}};
  tracker.on_interval_close(0, i1);
  tracker.on_interval_close(0, i2);
  // (64 + 128) / 2 intervals: both intervals count toward the average.
  EXPECT_DOUBLE_EQ(tracker.footprint(0).of(klass), 96.0);
}

TEST_F(StickyTest, EmptyIntervalsDoNotDiluteAverage) {
  FootprintTracker tracker(heap, plan);
  const ObjectId a = make();
  std::vector<FootprintTouch> i1{{a, 2}};
  tracker.on_interval_close(0, i1);
  tracker.on_interval_close(0, {});  // quiet interval: ignored
  EXPECT_DOUBLE_EQ(tracker.footprint(0).of(klass), 64.0);
}

TEST_F(StickyTest, FootprintUsesHtScaledBytes) {
  plan.set_nominal_gap(klass, 4);  // real gap 5 (nearest prime to 4 is 5? no: 3 and 5 tie -> 5)
  const std::uint32_t gap = plan.real_gap(klass);
  FootprintTracker tracker(heap, plan);
  // Find a sampled object.
  ObjectId sampled = kInvalidObject;
  for (int i = 0; i < 20; ++i) {
    const ObjectId o = make();
    if (plan.is_sampled(o)) {
      sampled = o;
      break;
    }
  }
  ASSERT_NE(sampled, kInvalidObject);
  std::vector<FootprintTouch> touches{{sampled, 2}};
  tracker.on_interval_close(0, touches);
  EXPECT_DOUBLE_EQ(tracker.footprint(0).of(klass), 64.0 * gap);
}

TEST_F(StickyTest, PerThreadIsolation) {
  FootprintTracker tracker(heap, plan);
  const ObjectId a = make();
  std::vector<FootprintTouch> touches{{a, 2}};
  tracker.on_interval_close(3, touches);
  EXPECT_DOUBLE_EQ(tracker.footprint(0).total(), 0.0);
  EXPECT_GT(tracker.footprint(3).total(), 0.0);
}

TEST_F(StickyTest, FreshTrackerStartsEmpty) {
  const ObjectId a = make();
  std::vector<FootprintTouch> touches{{a, 2}};
  FootprintTracker used(heap, plan);
  used.on_interval_close(0, touches);
  ASSERT_GT(used.footprint(0).total(), 0.0);
  // Starting over is a fresh tracker over the same heap and plan.
  FootprintTracker fresh(heap, plan);
  EXPECT_DOUBLE_EQ(fresh.footprint(0).total(), 0.0);
}

// --- resolution ---------------------------------------------------------------

TEST_F(StickyTest, ResolutionFollowsChainUpToBudget) {
  // root -> n1 -> n2 -> n3 -> n4, budget for 3 objects of 64 B.
  std::vector<ObjectId> chain;
  for (int i = 0; i < 5; ++i) chain.push_back(make());
  for (int i = 0; i < 4; ++i) heap.add_ref(chain[static_cast<std::size_t>(i)], chain[static_cast<std::size_t>(i) + 1]);
  ClassFootprint budget;
  budget.bytes[klass] = 3 * 64.0;
  const auto res = resolve_sticky_set(heap, plan, std::vector<ObjectId>{chain[0]},
                                      budget, 2.0);
  EXPECT_EQ(res.prefetch.size(), 3u);
  EXPECT_EQ(res.bytes, 3u * 64u);
}

TEST_F(StickyTest, ResolutionEmptyWithoutBudgetOrRoots) {
  const ObjectId root = make();
  ClassFootprint budget;
  EXPECT_TRUE(resolve_sticky_set(heap, plan, std::vector<ObjectId>{root}, budget, 2.0)
                  .prefetch.empty());
  budget.bytes[klass] = 100.0;
  EXPECT_TRUE(resolve_sticky_set(heap, plan, {}, budget, 2.0).prefetch.empty());
}

TEST_F(StickyTest, ResolutionIsPerClass) {
  // Budget only for `klass`; `other` objects are traversed but not selected.
  const ObjectId root = make();
  const ObjectId o1 = make(other);
  const ObjectId n1 = make();
  heap.add_ref(root, o1);
  heap.add_ref(o1, n1);
  ClassFootprint budget;
  budget.bytes[klass] = 1000.0;
  const auto res = resolve_sticky_set(heap, plan, std::vector<ObjectId>{root},
                                      budget, 10.0);
  EXPECT_NE(std::find(res.prefetch.begin(), res.prefetch.end(), n1), res.prefetch.end());
  EXPECT_EQ(std::find(res.prefetch.begin(), res.prefetch.end(), o1), res.prefetch.end());
}

TEST_F(StickyTest, MultipleRootsUsedWhenFirstExhausts) {
  const ObjectId rootA = make();
  const ObjectId rootB = make();
  const ObjectId leafB = make();
  heap.add_ref(rootB, leafB);
  ClassFootprint budget;
  budget.bytes[klass] = 3 * 64.0;
  const auto res = resolve_sticky_set(
      heap, plan, std::vector<ObjectId>{rootA, rootB}, budget, 2.0);
  EXPECT_EQ(res.stats.roots_used, 2u);
  EXPECT_EQ(res.prefetch.size(), 3u);
}

TEST_F(StickyTest, LandmarkPruningStopsWrongDirections) {
  // All objects unsampled (huge gap) except none: with tolerance t and gap g,
  // a path longer than t*g gets pruned.
  plan.set_nominal_gap(klass, 4);
  plan.resample_all();
  const std::uint32_t gap = plan.real_gap(klass);
  // Build a long chain of deliberately unsampled objects: allocate and keep
  // only unsampled ones linked together.
  std::vector<ObjectId> chain;
  while (chain.size() < static_cast<std::size_t>(gap * 4)) {
    const ObjectId o = make();
    if (!plan.is_sampled(o)) chain.push_back(o);
  }
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) heap.add_ref(chain[i], chain[i + 1]);
  ClassFootprint budget;
  budget.bytes[klass] = 1e9;  // budget never binds
  const double tolerance = 2.0;
  const auto res = resolve_sticky_set(heap, plan, std::vector<ObjectId>{chain[0]},
                                      budget, tolerance);
  EXPECT_GT(res.stats.paths_pruned, 0u);
  // Visited is bounded by roughly tolerance * gap + 1, far below chain size.
  EXPECT_LT(res.stats.objects_visited, chain.size());
}

TEST_F(StickyTest, LandmarksResetPruningCounter) {
  // A chain that passes through sampled objects periodically is followed to
  // the end even when longer than tolerance * gap.
  plan.set_nominal_gap(klass, 4);
  plan.resample_all();
  const std::uint32_t gap = plan.real_gap(klass);
  std::vector<ObjectId> chain;
  for (std::size_t i = 0; i < static_cast<std::size_t>(gap) * 6; ++i) chain.push_back(make());
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) heap.add_ref(chain[i], chain[i + 1]);
  ClassFootprint budget;
  budget.bytes[klass] = 1e9;
  const auto res = resolve_sticky_set(heap, plan, std::vector<ObjectId>{chain[0]},
                                      budget, 2.0);
  // Sequence numbers are consecutive, so a landmark appears every `gap`
  // objects along the chain — the walk never starves.
  EXPECT_EQ(res.stats.objects_visited, chain.size());
  EXPECT_GT(res.stats.landmarks_met, 0u);
}

TEST_F(StickyTest, ToleranceParameterSweep) {
  plan.set_nominal_gap(klass, 8);
  plan.resample_all();
  const std::uint32_t gap = plan.real_gap(klass);
  std::vector<ObjectId> chain;
  while (chain.size() < static_cast<std::size_t>(gap * 10)) {
    const ObjectId o = make();
    if (!plan.is_sampled(o)) chain.push_back(o);
  }
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) heap.add_ref(chain[i], chain[i + 1]);
  ClassFootprint budget;
  budget.bytes[klass] = 1e9;
  std::size_t prev = 0;
  for (double tol : {1.5, 3.0, 6.0}) {
    const auto res = resolve_sticky_set(heap, plan, std::vector<ObjectId>{chain[0]},
                                        budget, tol);
    EXPECT_GE(res.stats.objects_visited, prev);  // larger tolerance digs deeper
    prev = res.stats.objects_visited;
  }
}

TEST_F(StickyTest, ResolutionIgnoresInvalidRefs) {
  const ObjectId root = make();
  heap.meta(root).refs.push_back(kInvalidObject);
  ClassFootprint budget;
  budget.bytes[klass] = 1000.0;
  const auto res = resolve_sticky_set(heap, plan, std::vector<ObjectId>{root},
                                      budget, 2.0);
  EXPECT_EQ(res.prefetch.size(), 1u);
}

TEST_F(StickyTest, CyclicGraphTerminates) {
  const ObjectId a = make();
  const ObjectId b = make();
  heap.add_ref(a, b);
  heap.add_ref(b, a);
  ClassFootprint budget;
  budget.bytes[klass] = 1e9;
  const auto res = resolve_sticky_set(heap, plan, std::vector<ObjectId>{a}, budget, 2.0);
  EXPECT_EQ(res.prefetch.size(), 2u);
}

}  // namespace
}  // namespace djvm
