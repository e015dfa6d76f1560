#include "runtime/heap.hpp"

#include <cassert>

namespace djvm {

Heap::Heap(KlassRegistry& registry, std::uint32_t nodes)
    : registry_(registry), node_cursor_(nodes, 0) {}

ObjectId Heap::push_object(ObjectMeta meta, NodeId node) {
  assert(node < node_cursor_.size());
  registry_.at(meta.klass).bytes_allocated += meta.size_bytes;
  std::uint64_t& cursor = node_cursor_[node];
  meta.vaddr = static_cast<std::uint64_t>(node) * kNodeAddressStride + cursor;
  cursor += (meta.size_bytes + kObjectAlignment - 1) / kObjectAlignment * kObjectAlignment;
  objects_.push_back(std::move(meta));
  return static_cast<ObjectId>(objects_.size() - 1);
}

ObjectId Heap::alloc(ClassId klass, NodeId node) {
  const Klass& k = registry_.at(klass);
  assert(!k.is_array && "use alloc_array for array classes");
  ObjectMeta m;
  m.klass = klass;
  m.home = node;
  m.length = 1;
  m.size_bytes = k.instance_size;
  m.start_seq = registry_.take_sequence(klass, 1);
  return push_object(std::move(m), node);
}

ObjectId Heap::alloc_array(ClassId klass, NodeId node, std::uint32_t length) {
  const Klass& k = registry_.at(klass);
  assert(k.is_array && "use alloc for scalar classes");
  assert(length > 0);
  ObjectMeta m;
  m.klass = klass;
  m.home = node;
  m.length = length;
  m.size_bytes = k.instance_size * length;
  m.start_seq = registry_.take_sequence(klass, length);
  return push_object(std::move(m), node);
}

void Heap::set_ref(ObjectId src, std::size_t slot, ObjectId dst) {
  auto& refs = meta(src).refs;
  if (refs.size() <= slot) refs.resize(slot + 1, kInvalidObject);
  refs[slot] = dst;
}

void Heap::add_ref(ObjectId src, ObjectId dst) { meta(src).refs.push_back(dst); }

}  // namespace djvm
