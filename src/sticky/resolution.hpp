// Sticky-set resolution (paper Section III.A.3).
//
// Invoked lazily at thread-migration time: starting from the stack-invariant
// references (topmost first), trace the object graph selecting prefetch
// candidates until the per-class estimated footprint is met.  Sampled objects
// act as *landmarks*: they are scattered uniformly over the true sticky set,
// so a traversal direction that has not met a landmark for t x gap objects of
// a class is probably outside the set and gets pruned (t > 1 is a tolerance
// for imperfect sampling uniformity).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "profiling/sampling.hpp"
#include "runtime/heap.hpp"
#include "sticky/footprint.hpp"

namespace djvm {

/// Statistics of one resolution run (tests assert pruning behaviour).
struct ResolutionStats {
  std::size_t objects_visited = 0;
  std::size_t landmarks_met = 0;
  std::size_t paths_pruned = 0;
  std::size_t roots_used = 0;
};

/// Output of sticky-set resolution: the prefetch candidate set.
struct ResolutionResult {
  std::vector<ObjectId> prefetch;
  std::uint64_t bytes = 0;
  ResolutionStats stats;
};

/// The landmark tolerance `t` every resolution in the system runs with
/// (paper: t > 1).
inline constexpr double kLandmarkTolerance = 2.0;

/// Resolves the sticky set to prefetch for a migrating thread.
///
/// `roots`   — stack-invariant references, topmost first;
/// `budget`  — per-class footprint estimate from FootprintTracker;
/// `tolerance` — the paper's `t` parameter (> 1).
[[nodiscard]] ResolutionResult resolve_sticky_set(const Heap& heap,
                                                  const SamplingPlan& plan,
                                                  std::span<const ObjectId> roots,
                                                  const ClassFootprint& budget,
                                                  double tolerance);

}  // namespace djvm
