#include "baseline/page_dsm.hpp"

namespace djvm {

void PageCorrelationTracker::on_access(ThreadId thread, ObjectId obj) {
  const ObjectMeta& m = heap_.meta(obj);
  const std::uint64_t first = m.vaddr / page_size_;
  const std::uint64_t last = (m.vaddr + (m.size_bytes ? m.size_bytes - 1 : 0)) / page_size_;
  auto& pages = live_pages_[thread];
  for (std::uint64_t p = first; p <= last; ++p) pages.insert(p);
}

void PageCorrelationTracker::on_interval_close(ThreadId thread) {
  auto it = live_pages_.find(thread);
  if (it == live_pages_.end()) return;
  for (std::uint64_t p : it->second) page_threads_[p].insert(thread);
  it->second.clear();
}

SquareMatrix PageCorrelationTracker::build_tcm() const {
  SquareMatrix tcm(threads_);
  for (const auto& [page, ts] : page_threads_) {
    (void)page;
    std::vector<ThreadId> v(ts.begin(), ts.end());
    for (std::size_t i = 0; i < v.size(); ++i) {
      for (std::size_t j = i + 1; j < v.size(); ++j) {
        if (v[i] < threads_ && v[j] < threads_) {
          tcm.add_symmetric(v[i], v[j], static_cast<double>(page_size_));
        }
      }
    }
  }
  return tcm;
}

}  // namespace djvm
