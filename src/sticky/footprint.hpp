// Sticky-set footprinting (paper Section III.A.1).
//
// The *sticky set* of a would-be migrant thread is the set of objects it
// accessed before the migration point and will access again after it within
// the same HLRC interval — exactly those cause post-migration remote faults.
// Footprinting estimates the set's size and per-class composition: repeated
// (re-armed) object sampling within an interval records which sampled objects
// a thread touches at multiple re-arm ticks; their Horvitz-Thompson-scaled
// bytes, grouped by class, form the *sticky-set footprint* that the load
// balancer weighs against migration gains.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "dsm/gos.hpp"
#include "profiling/sampling.hpp"
#include "runtime/heap.hpp"

namespace djvm {

/// Per-class byte composition of a sticky set estimate.
struct ClassFootprint {
  std::unordered_map<ClassId, double> bytes;

  [[nodiscard]] double total() const noexcept {
    double s = 0.0;
    for (const auto& [c, b] : bytes) s += b;
    return s;
  }
  [[nodiscard]] double of(ClassId c) const noexcept {
    auto it = bytes.find(c);
    return it == bytes.end() ? 0.0 : it->second;
  }
};

/// Aggregates footprint touches per thread across intervals.
class FootprintTracker {
 public:
  FootprintTracker(const Heap& heap, const SamplingPlan& plan)
      : heap_(heap), plan_(plan) {}

  /// Consumes the touches of one closing interval for `t`.  An object is a
  /// sticky candidate when it was touched at >= 2 distinct re-arm ticks
  /// (accessed repeatedly through the interval, Fig. 4's criterion).
  void on_interval_close(ThreadId t, std::span<const FootprintTouch> touches);

  /// Average per-class footprint over all closed intervals of `t` that
  /// produced sticky candidates.
  [[nodiscard]] ClassFootprint footprint(ThreadId t) const;

 private:
  struct PerThread {
    std::unordered_map<ClassId, double> sum_bytes;
    std::size_t intervals = 0;
  };

  const Heap& heap_;
  const SamplingPlan& plan_;
  mutable std::vector<PerThread> threads_;
  void ensure(ThreadId t) const;
};

}  // namespace djvm
