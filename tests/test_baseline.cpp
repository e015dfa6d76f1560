// Page-grain baseline: induced correlation and the false-sharing distortion.
#include <gtest/gtest.h>

#include "baseline/page_dsm.hpp"

namespace djvm {
namespace {

class PageBaselineTest : public ::testing::Test {
 protected:
  PageBaselineTest() : heap(reg, 2) {
    small = reg.register_class("Small", 64);
    big = reg.register_array_class("Big[]", 8);
  }
  KlassRegistry reg;
  Heap heap;
  ClassId small, big;
};

TEST_F(PageBaselineTest, ObjectsOnSamePageInduceCorrelation) {
  // Two distinct 64-byte objects share a 4 KB page; threads touching
  // *different* objects look correlated to a page-grain tracker.
  const ObjectId a = heap.alloc(small, 0);
  const ObjectId b = heap.alloc(small, 0);
  ASSERT_EQ(heap.meta(a).vaddr / 4096, heap.meta(b).vaddr / 4096);
  PageCorrelationTracker tracker(heap, 2);
  tracker.on_access(0, a);
  tracker.on_access(1, b);
  tracker.on_interval_close(0);
  tracker.on_interval_close(1);
  const SquareMatrix induced = tracker.build_tcm();
  EXPECT_DOUBLE_EQ(induced.at(0, 1), 4096.0);  // false sharing!
}

TEST_F(PageBaselineTest, DistantObjectsNoCorrelation) {
  const ObjectId a = heap.alloc(small, 0);
  heap.alloc_array(big, 0, 4096);  // spacer pushing next object to a new page
  const ObjectId b = heap.alloc(small, 0);
  ASSERT_NE(heap.meta(a).vaddr / 4096, heap.meta(b).vaddr / 4096);
  PageCorrelationTracker tracker(heap, 2);
  tracker.on_access(0, a);
  tracker.on_access(1, b);
  tracker.on_interval_close(0);
  tracker.on_interval_close(1);
  EXPECT_DOUBLE_EQ(tracker.build_tcm().total(), 0.0);
}

TEST_F(PageBaselineTest, LargeObjectSpansMultiplePages) {
  const ObjectId arr = heap.alloc_array(big, 0, 2048);  // 16 KB = 4+ pages
  PageCorrelationTracker tracker(heap, 2);
  tracker.on_access(0, arr);
  tracker.on_interval_close(0);
  EXPECT_GE(tracker.pages_tracked(), 4u);
}

TEST_F(PageBaselineTest, AtMostOncePerIntervalPerPage) {
  const ObjectId a = heap.alloc(small, 0);
  PageCorrelationTracker tracker(heap, 2);
  for (int i = 0; i < 100; ++i) tracker.on_access(0, a);
  tracker.on_interval_close(0);
  EXPECT_EQ(tracker.pages_tracked(), 1u);
}

TEST_F(PageBaselineTest, SharedPageAccumulatesBothThreads) {
  const ObjectId a = heap.alloc(small, 0);
  PageCorrelationTracker tracker(heap, 2);
  tracker.on_access(0, a);
  tracker.on_interval_close(0);
  tracker.on_access(1, a);
  tracker.on_interval_close(1);
  EXPECT_DOUBLE_EQ(tracker.build_tcm().at(0, 1), 4096.0);
}

TEST_F(PageBaselineTest, FreshTrackerStartsEmpty) {
  const ObjectId a = heap.alloc(small, 0);
  PageCorrelationTracker used(heap, 2);
  used.on_access(0, a);
  used.on_interval_close(0);
  ASSERT_EQ(used.pages_tracked(), 1u);
  // Starting over is a fresh tracker over the same heap.
  PageCorrelationTracker fresh(heap, 2);
  EXPECT_EQ(fresh.pages_tracked(), 0u);
  EXPECT_DOUBLE_EQ(fresh.build_tcm().total(), 0.0);
}

TEST_F(PageBaselineTest, NodesHaveDisjointPages) {
  const ObjectId a = heap.alloc(small, 0);
  const ObjectId b = heap.alloc(small, 1);
  PageCorrelationTracker tracker(heap, 2);
  tracker.on_access(0, a);
  tracker.on_access(1, b);
  tracker.on_interval_close(0);
  tracker.on_interval_close(1);
  EXPECT_DOUBLE_EQ(tracker.build_tcm().total(), 0.0);
  EXPECT_EQ(tracker.pages_tracked(), 2u);
}

}  // namespace
}  // namespace djvm
