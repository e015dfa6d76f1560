#include "sticky/footprint.hpp"

namespace djvm {

void FootprintTracker::ensure(ThreadId t) const {
  if (threads_.size() <= t) threads_.resize(static_cast<std::size_t>(t) + 1);
}

void FootprintTracker::on_interval_close(ThreadId t,
                                         std::span<const FootprintTouch> touches) {
  ensure(t);
  PerThread& pt = threads_[t];
  if (touches.empty()) return;

  std::unordered_map<ClassId, double> interval_bytes;
  for (const FootprintTouch& touch : touches) {
    // Touched at fewer than 2 distinct re-arm ticks: accessed once, will not
    // re-fault after migration (Fig. 4's criterion).
    if (touch.ticks < 2) continue;
    const ObjectMeta& m = heap_.meta(touch.obj);
    interval_bytes[m.klass] +=
        static_cast<double>(plan_.estimated_full_bytes(touch.obj));
  }
  // No sticky candidate: the interval does not dilute the average.
  if (interval_bytes.empty()) return;

  for (const auto& [c, b] : interval_bytes) pt.sum_bytes[c] += b;
  ++pt.intervals;
}

ClassFootprint FootprintTracker::footprint(ThreadId t) const {
  ensure(t);
  const PerThread& pt = threads_[t];
  ClassFootprint fp;
  if (pt.intervals == 0) return fp;
  for (const auto& [c, b] : pt.sum_bytes) {
    fp.bytes[c] = b / static_cast<double>(pt.intervals);
  }
  return fp;
}

}  // namespace djvm
