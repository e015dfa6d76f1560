#include "balance/home_affinity.hpp"

#include <unordered_set>

namespace djvm {

NodeId ThreadHomeAffinity::best_node(ThreadId t) const {
  NodeId best = 0;
  for (NodeId n = 1; n < nodes_; ++n) {
    if (at(t, n) > at(t, best)) best = n;
  }
  return best;
}

double ThreadHomeAffinity::remote_volume(ThreadId t, NodeId node_of_t) const {
  double remote = 0.0;
  for (NodeId n = 0; n < nodes_; ++n) {
    if (n != node_of_t) remote += at(t, n);
  }
  return remote;
}

ThreadHomeAffinity build_home_affinity(std::span<const OalArena> logs,
                                       const Heap& heap, std::uint32_t threads,
                                       std::uint32_t nodes, bool weighted) {
  ThreadHomeAffinity m(threads, nodes);
  // Per (thread, object) at-most-once across the window, like the TCM's
  // reorganization step.
  std::unordered_set<std::uint64_t> seen;
  for (const OalArena& log : logs) {
    for (const ArenaInterval& iv : log.intervals) {
      if (iv.thread >= threads) continue;
      for (std::uint32_t i = iv.begin; i < iv.end; ++i) {
        const OalEntry& e = log.entries[i];
        if (e.obj >= heap.object_count()) continue;
        const std::uint64_t key =
            (static_cast<std::uint64_t>(iv.thread) << 48) ^ e.obj;
        if (!seen.insert(key).second) continue;
        const NodeId home = heap.meta(e.obj).home;
        if (home >= nodes) continue;
        const double bytes =
            weighted ? static_cast<double>(e.bytes) * e.gap : e.bytes;
        m.at(iv.thread, home) += bytes;
      }
    }
  }
  return m;
}

}  // namespace djvm
