// Global heap directory.
//
// The simulator is a single process, so the "heap" is a global object table
// indexed by ObjectId; distribution is expressed by each object's home node
// and by per-node cache states kept in the GOS.  Allocation assigns objects
// to their creating node (the paper: "object home copies reside in the nodes
// which are the first to create them") and hands out per-class sequence
// numbers and per-node virtual addresses.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "runtime/klass.hpp"
#include "runtime/object.hpp"

namespace djvm {

/// Object allocation + graph storage for the whole cluster.
class Heap {
 public:
  explicit Heap(KlassRegistry& registry, std::uint32_t nodes);

  /// Allocates a scalar instance of `klass` homed at `node`.
  ObjectId alloc(ClassId klass, NodeId node);

  /// Allocates an array of `length` elements homed at `node`.
  ObjectId alloc_array(ClassId klass, NodeId node, std::uint32_t length);

  [[nodiscard]] const ObjectMeta& meta(ObjectId id) const {
    return objects_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] ObjectMeta& meta(ObjectId id) {
    return objects_[static_cast<std::size_t>(id)];
  }

  [[nodiscard]] std::size_t object_count() const noexcept { return objects_.size(); }

  /// The "GC interface" check the stack sampler uses to validate that a slot
  /// value denotes a live object (paper Section III.B).
  [[nodiscard]] bool is_valid_object(std::uint64_t raw) const noexcept {
    return raw < objects_.size();
  }

  /// Sets reference field `slot` of `src` to `dst` (grows the slot vector).
  void set_ref(ObjectId src, std::size_t slot, ObjectId dst);
  /// Appends a reference edge.
  void add_ref(ObjectId src, ObjectId dst);
  [[nodiscard]] std::span<const ObjectId> refs(ObjectId id) const {
    return objects_[static_cast<std::size_t>(id)].refs;
  }

  /// Moves an object's home (home migration support).
  void set_home(ObjectId id, NodeId node) { meta(id).home = node; }

  [[nodiscard]] const KlassRegistry& registry() const noexcept { return registry_; }
  [[nodiscard]] KlassRegistry& registry() noexcept { return registry_; }

 private:
  ObjectId push_object(ObjectMeta meta, NodeId node);

  KlassRegistry& registry_;
  std::vector<ObjectMeta> objects_;
  /// Per-node bump allocator for virtual addresses (baseline page mapping).
  std::vector<std::uint64_t> node_cursor_;
  static constexpr std::uint64_t kNodeAddressStride = 1ULL << 40;
  static constexpr std::uint64_t kObjectAlignment = 8;
};

}  // namespace djvm
