// Page-grain active correlation tracking — the D-CVM-style baseline.
//
// Page-based DSM systems (Thitikamol & Keleher's active correlation tracking)
// can only observe sharing at page granularity: every object access is
// attributed to the 4 KB page(s) backing the object, and the correlation map
// is built from page-level coincidence.  For fine-grained applications this
// *induces* false sharing — unrelated objects co-located on a page make their
// accessors look correlated — which is exactly the distortion the paper's
// Fig. 1(b) shows and its object-grain technique avoids.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/matrix.hpp"
#include "common/types.hpp"
#include "runtime/heap.hpp"

namespace djvm {

/// Observes the raw access stream and accumulates a page-grain (induced)
/// thread correlation map.  Register it via the facade's access observers.
class PageCorrelationTracker {
 public:
  PageCorrelationTracker(const Heap& heap, std::uint32_t threads,
                         std::uint32_t page_size = 4096)
      : heap_(heap), threads_(threads), page_size_(page_size) {}

  /// Records `thread` touching every page that backs `obj` (at-most-once per
  /// page per interval).
  void on_access(ThreadId thread, ObjectId obj);

  /// Closes `thread`'s interval (its page set is folded into the totals).
  void on_interval_close(ThreadId thread);

  /// Builds the induced TCM: for each page, every thread pair that touched
  /// it in some interval shares the full page size (that is all a page-grain
  /// system can know).
  [[nodiscard]] SquareMatrix build_tcm() const;

  [[nodiscard]] std::uint64_t pages_tracked() const noexcept {
    return page_threads_.size();
  }

 private:
  const Heap& heap_;
  std::uint32_t threads_;
  std::uint32_t page_size_;
  /// Per-thread pages touched in the current interval.
  std::unordered_map<ThreadId, std::unordered_set<std::uint64_t>> live_pages_;
  /// page -> set of threads that ever shared an interval on it.
  std::unordered_map<std::uint64_t, std::unordered_set<ThreadId>> page_threads_;
};

}  // namespace djvm
