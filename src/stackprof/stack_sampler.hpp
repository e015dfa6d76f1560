// Adaptive stack sampling (paper Section III.B, Fig. 7/8).
//
// Periodic snapshots of a thread's Java frames discover *stack-invariant
// references*: slots whose object reference persists across samples.  Those
// are the likely entry points of the thread's sticky set (a linked list's
// head, a tree's root...).  The four optimizations of the paper are all
// implemented:
//   1. timer-based phases       — the caller (GOS timer) decides when to fire;
//   2. two-phase scanning       — top-down to the first visited frame, then
//                                 bottom-up raw-capturing unvisited frames;
//   3. lazy extraction          — first visit stores a raw slot image; slot
//                                 content is extracted only on second visit;
//   4. compare-by-probing       — the shrinking old sample probes the new
//                                 frame, so frequent comparisons get cheaper.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "runtime/heap.hpp"
#include "stack/javastack.hpp"

namespace djvm {

/// Work counters for one `sample()` call; the facade converts these into
/// simulated time and tests assert on them (e.g. lazy mode must extract far
/// fewer frames than it raw-captures on recursion-heavy stacks).
struct StackSampleWork {
  std::uint32_t frames_walked = 0;
  std::uint32_t raw_captures = 0;     ///< frames snapshotted in native form
  std::uint32_t raw_slots_copied = 0;
  std::uint32_t extractions = 0;      ///< raw -> extracted conversions
  std::uint32_t slots_extracted = 0;  ///< slots inspected via the GC interface
  std::uint32_t comparisons = 0;      ///< compare-by-probing invocations
  std::uint32_t slots_probed = 0;
  std::uint32_t slots_removed = 0;    ///< non-invariant slots dropped
  std::uint32_t samples_purged = 0;   ///< stale samples of popped frames
};

/// Lifetime statistics of one thread's sampler.
struct StackSamplerStats {
  std::uint64_t samples = 0;
  std::uint64_t raw_captures = 0;
  std::uint64_t extractions = 0;
  std::uint64_t comparisons = 0;
  std::uint64_t slots_probed = 0;
  std::uint64_t slots_removed = 0;
};

/// Consecutive surviving comparisons before a slot counts as a
/// stack-invariant reference, for the samplers a Djvm runs.
inline constexpr std::uint32_t kInvariantMinRounds = 2;

/// Stack sampler for a single thread.
class StackSampler {
 public:
  StackSampler(const Heap& heap, ExtractionMode mode, std::uint32_t min_rounds)
      : heap_(heap), mode_(mode), min_rounds_(min_rounds) {}

  /// Takes one sample of `stack` (the SAMPLE-STACK algorithm of Fig. 8).
  StackSampleWork sample(JavaStack& stack);

  /// Object references currently considered stack-invariant, ordered
  /// topmost-frame-first (the resolution heuristic starts from the most
  /// recent invariants).  Only slots that survived at least
  /// `min_rounds` comparisons qualify.
  [[nodiscard]] std::vector<ObjectId> invariant_refs(const JavaStack& stack) const;

  [[nodiscard]] const StackSamplerStats& stats() const noexcept { return stats_; }

  /// Number of retained frame samples (for tests).
  [[nodiscard]] std::size_t retained_samples() const noexcept { return samples_.size(); }

 private:
  /// Retained per-frame sample.  Raw samples hold the full slot image;
  /// extracted samples hold only (slot index, value) pairs for slots that
  /// passed the GC-interface object-pointer check.
  struct FrameSampleRec {
    bool raw = false;
    std::uint32_t comparisons = 0;
    std::vector<std::uint64_t> raw_slots;
    std::vector<std::pair<std::uint16_t, std::uint64_t>> slots;
  };

  void extract(FrameSampleRec& rec, StackSampleWork& work);
  void capture(const Frame& frame, StackSampleWork& work);
  void compare_by_probing(FrameSampleRec& rec, const Frame& frame,
                          StackSampleWork& work);
  /// The GC interface: is this bit pattern a valid object pointer?
  [[nodiscard]] bool valid_ref(std::uint64_t raw) const {
    return looks_like_ref(raw) && heap_.is_valid_object(decode_ref(raw));
  }

  const Heap& heap_;
  ExtractionMode mode_;
  std::uint32_t min_rounds_;
  std::unordered_map<FrameId, FrameSampleRec> samples_;
  StackSamplerStats stats_;
};

/// One sampler per thread plus shared configuration.
class StackSamplerManager {
 public:
  StackSamplerManager(const Heap& heap, ExtractionMode mode,
                      std::uint32_t min_rounds)
      : heap_(heap), mode_(mode), min_rounds_(min_rounds) {}

  /// Grows to cover `count` threads.
  void ensure_threads(std::size_t count);

  StackSampleWork sample(ThreadId t, JavaStack& stack);
  [[nodiscard]] std::vector<ObjectId> invariant_refs(ThreadId t,
                                                     const JavaStack& stack) const;
  [[nodiscard]] const StackSamplerStats& stats(ThreadId t) const {
    return samplers_.at(t).stats();
  }
  [[nodiscard]] std::size_t thread_count() const noexcept { return samplers_.size(); }

 private:
  const Heap& heap_;
  ExtractionMode mode_;
  std::uint32_t min_rounds_;
  std::vector<StackSampler> samplers_;
};

}  // namespace djvm
