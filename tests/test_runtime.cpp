// Mini-JVM object model: class registry, per-class sequence numbers,
// allocation, homes, virtual addresses, and the object graph.
#include <gtest/gtest.h>

#include "runtime/heap.hpp"
#include "runtime/klass.hpp"

namespace djvm {
namespace {

class RuntimeTest : public ::testing::Test {
 protected:
  KlassRegistry reg;
  Heap heap{reg, 4};
};

TEST_F(RuntimeTest, RegisterScalarClass) {
  const ClassId c = reg.register_class("Body", 88, 2);
  EXPECT_EQ(reg.at(c).name, "Body");
  EXPECT_EQ(reg.at(c).instance_size, 88u);
  EXPECT_EQ(reg.at(c).ref_fields, 2u);
  EXPECT_FALSE(reg.at(c).is_array);
  EXPECT_EQ(reg.size(), 1u);
}

TEST_F(RuntimeTest, RegisterArrayClass) {
  const ClassId c = reg.register_array_class("double[]", 8);
  EXPECT_TRUE(reg.at(c).is_array);
  EXPECT_EQ(reg.at(c).instance_size, 8u);
}

TEST_F(RuntimeTest, FindByName) {
  const ClassId c = reg.register_class("Vect3", 24);
  EXPECT_EQ(reg.find("Vect3"), std::optional<ClassId>(c));
  EXPECT_FALSE(reg.find("Missing").has_value());
}

TEST_F(RuntimeTest, SequenceNumbersStartAtOneAndAreDense) {
  const ClassId c = reg.register_class("X", 16);
  const ObjectId a = heap.alloc(c, 0);
  const ObjectId b = heap.alloc(c, 1);
  EXPECT_EQ(heap.meta(a).start_seq, 1u);
  EXPECT_EQ(heap.meta(b).start_seq, 2u);
}

TEST_F(RuntimeTest, ArrayConsumesOneSequencePerElement) {
  const ClassId c = reg.register_array_class("double[]", 8);
  const ObjectId a = heap.alloc_array(c, 0, 10);
  const ObjectId b = heap.alloc_array(c, 0, 3);
  EXPECT_EQ(heap.meta(a).start_seq, 1u);
  EXPECT_EQ(heap.meta(b).start_seq, 11u);
  EXPECT_EQ(heap.meta(b).length, 3u);
}

TEST_F(RuntimeTest, SequenceCountersAreIndependentPerClass) {
  const ClassId x = reg.register_class("X", 8);
  const ClassId y = reg.register_class("Y", 8);
  heap.alloc(x, 0);
  heap.alloc(x, 0);
  const ObjectId o = heap.alloc(y, 0);
  EXPECT_EQ(heap.meta(o).start_seq, 1u);
}

TEST_F(RuntimeTest, SizeBytesScalarAndArray) {
  const ClassId s = reg.register_class("S", 40);
  const ClassId a = reg.register_array_class("A[]", 8);
  EXPECT_EQ(heap.meta(heap.alloc(s, 0)).size_bytes, 40u);
  EXPECT_EQ(heap.meta(heap.alloc_array(a, 0, 100)).size_bytes, 800u);
}

TEST_F(RuntimeTest, HomeIsCreatingNode) {
  const ClassId c = reg.register_class("X", 8);
  EXPECT_EQ(heap.meta(heap.alloc(c, 2)).home, 2);
  EXPECT_EQ(heap.meta(heap.alloc(c, 3)).home, 3);
}

TEST_F(RuntimeTest, VirtualAddressesDisjointAcrossNodes) {
  const ClassId c = reg.register_class("X", 64);
  const ObjectId a = heap.alloc(c, 0);
  const ObjectId b = heap.alloc(c, 1);
  // Different nodes live in disjoint 2^40-strided regions.
  EXPECT_NE(heap.meta(a).vaddr >> 40, heap.meta(b).vaddr >> 40);
}

TEST_F(RuntimeTest, VirtualAddressesPackSequentiallyWithinNode) {
  const ClassId c = reg.register_class("X", 64);
  const ObjectId a = heap.alloc(c, 0);
  const ObjectId b = heap.alloc(c, 0);
  EXPECT_EQ(heap.meta(b).vaddr - heap.meta(a).vaddr, 64u);
}

TEST_F(RuntimeTest, VaddrAlignment) {
  const ClassId c = reg.register_class("Odd", 13);
  heap.alloc(c, 0);
  const ObjectId b = heap.alloc(c, 0);
  EXPECT_EQ(heap.meta(b).vaddr % 8, 0u);
}

TEST_F(RuntimeTest, RefGraph) {
  const ClassId c = reg.register_class("Node", 32, 2);
  const ObjectId a = heap.alloc(c, 0);
  const ObjectId b = heap.alloc(c, 0);
  const ObjectId d = heap.alloc(c, 0);
  heap.set_ref(a, 0, b);
  heap.set_ref(a, 1, d);
  ASSERT_EQ(heap.refs(a).size(), 2u);
  EXPECT_EQ(heap.refs(a)[0], b);
  EXPECT_EQ(heap.refs(a)[1], d);
}

TEST_F(RuntimeTest, AddRefAppends) {
  const ClassId c = reg.register_class("List", 16);
  const ObjectId a = heap.alloc(c, 0);
  for (int i = 0; i < 5; ++i) heap.add_ref(a, heap.alloc(c, 0));
  EXPECT_EQ(heap.refs(a).size(), 5u);
}

TEST_F(RuntimeTest, IsValidObject) {
  const ClassId c = reg.register_class("X", 8);
  const ObjectId a = heap.alloc(c, 0);
  EXPECT_TRUE(heap.is_valid_object(a));
  EXPECT_FALSE(heap.is_valid_object(a + 1));
}

TEST_F(RuntimeTest, AllocHomesPayloadAtNode) {
  const ClassId c = reg.register_class("X", 100);
  const ObjectId a = heap.alloc(c, 0);
  const ObjectId b = heap.alloc(c, 1);
  EXPECT_EQ(heap.meta(a).home, 0);
  EXPECT_EQ(heap.meta(b).home, 1);
  EXPECT_EQ(heap.meta(a).size_bytes, 100u);
  EXPECT_EQ(heap.meta(b).size_bytes, 100u);
}

TEST_F(RuntimeTest, SetHome) {
  const ClassId c = reg.register_class("X", 8);
  const ObjectId a = heap.alloc(c, 0);
  heap.set_home(a, 3);
  EXPECT_EQ(heap.meta(a).home, 3);
}

TEST_F(RuntimeTest, InstanceCountsTracked) {
  const ClassId c = reg.register_class("X", 8);
  const ClassId arr = reg.register_array_class("X[]", 8);
  heap.alloc(c, 0);
  heap.alloc(c, 0);
  heap.alloc_array(arr, 0, 50);
  EXPECT_EQ(reg.at(c).instances, 2u);
  EXPECT_EQ(reg.at(arr).instances, 1u);  // arrays count once
}

}  // namespace
}  // namespace djvm
