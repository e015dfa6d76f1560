#include "profiling/distributed_tcm.hpp"

#include <algorithm>
#include <thread>

namespace djvm {

std::uint64_t NodeCsrPartial::wire_bytes() const noexcept {
  // 16-byte header, 8 bytes per object id, 12 bytes per (thread, bytes)
  // reader entry.  CSR offsets are implicit in the wire framing
  // (length-prefixed reader runs), so they cost nothing.
  return 16 + arena.objects.size() * 8 + arena.readers.size() * 12;
}

namespace {

/// Per-node bucket accumulator over a small node set: linear scan instead of
/// a hash map (cluster node counts are tens, not thousands, and the scan is
/// one cache line).
template <typename Bucket>
Bucket& node_bucket(std::vector<std::pair<NodeId, Bucket>>& buckets,
                    NodeId node) {
  for (auto& [id, b] : buckets) {
    if (id == node) return b;
  }
  buckets.emplace_back(node, Bucket{});
  return buckets.back().second;
}

}  // namespace

std::vector<NodeCsrPartial> DistributedTcmReducer::local_reduce_csr(
    std::span<const OalArena* const> logs, bool weighted,
    ArenaScratch& scratch) {
  // Bucket interval *slices* per node: one drained arena can mix slices from
  // many threads, and (with thread migration) many nodes.
  std::vector<std::pair<NodeId, std::vector<ArenaSliceRef>>> buckets;
  for (const OalArena* log : logs) {
    for (std::uint32_t s = 0; s < log->intervals.size(); ++s) {
      node_bucket(buckets, log->intervals[s].node)
          .push_back(ArenaSliceRef{log, s});
    }
  }
  std::sort(buckets.begin(), buckets.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<NodeCsrPartial> out;
  out.reserve(buckets.size());
  for (auto& [node, slices] : buckets) {
    NodeCsrPartial p;
    p.node = node;
    p.arena = TcmBuilder::reorganize_arena(
        std::span<const ArenaSliceRef>(slices), weighted, scratch);
    out.push_back(std::move(p));
  }
  return out;
}

void DistributedTcmReducer::merge_csr(NodeCsrPartial& a, const NodeCsrPartial& b,
                                      ArenaScratch& scratch) {
  a.arena = TcmBuilder::merge_arenas(a.arena, b.arena, scratch);
}

NodeCsrPartial DistributedTcmReducer::tree_reduce_csr(
    std::vector<NodeCsrPartial> partials, Network* net, ArenaScratch& scratch,
    std::vector<NodeId>* lost_nodes) {
  if (partials.empty()) return NodeCsrPartial{};
  // Binary tree: in each round, partial i+stride merges into partial i.
  // Each level merges arena-to-arena through the bucket sort, so no level
  // re-hashes.
  for (std::size_t stride = 1; stride < partials.size(); stride *= 2) {
    for (std::size_t i = 0; i + stride < partials.size(); i += 2 * stride) {
      NodeCsrPartial& child = partials[i + stride];
      if (net != nullptr) {
        const SendOutcome o = net->send_reliable(
            {child.node, partials[i].node, MsgCategory::kOal,
             child.wire_bytes(), false});
        if (!o.delivered) {
          // The child's subtree never arrives: the merged map loses that
          // contribution (missing data, not wrong data).
          if (lost_nodes != nullptr) lost_nodes->push_back(child.node);
          child.arena = ReaderArena{};  // undeliverable; free its buffers
          continue;
        }
      }
      merge_csr(partials[i], child, scratch);
      child.arena = ReaderArena{};  // free the consumed child's buffers
    }
  }
  return std::move(partials.front());
}

SquareMatrix DistributedTcmReducer::accrue_parallel(const ReaderArena& arena,
                                                    std::uint32_t threads,
                                                    unsigned threads_hw) {
  if (threads_hw <= 1 || arena.object_count() < 1024) {
    return TcmBuilder::accrue_sparse(arena, threads).densify();
  }
  const unsigned workers = std::min<unsigned>(
      threads_hw, std::max(1u, std::thread::hardware_concurrency()));
  // The CSR offsets give natural object shards: worker w accrues objects
  // [lo, hi) into a private upper-triangular accumulator, and the partials
  // sum cell-wise at the end — disjoint object ranges contribute independent
  // pair updates, so no synchronization inside the loop.
  std::vector<UpperTriangle> partials(workers, UpperTriangle(threads));
  std::vector<std::thread> pool;
  pool.reserve(workers);
  const std::size_t chunk = (arena.object_count() + workers - 1) / workers;
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      const std::size_t lo = w * chunk;
      const std::size_t hi = std::min(arena.object_count(), lo + chunk);
      UpperTriangle& pairs = partials[w];
      for (std::size_t k = lo; k < hi; ++k) {
        const auto r = arena.readers_of(k);
        for (std::size_t i = 0; i < r.size(); ++i) {
          if (r[i].first >= threads) continue;
          for (std::size_t j = i + 1; j < r.size(); ++j) {
            if (r[j].first >= threads) continue;
            pairs.add(r[i].first, r[j].first,
                      std::min(r[i].second, r[j].second));
          }
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  UpperTriangle& merged = partials.front();
  for (unsigned w = 1; w < workers; ++w) {
    merged += partials[w];
  }
  return merged.densify();
}

SquareMatrix DistributedTcmReducer::build(std::span<const OalArena* const> logs,
                                          std::uint32_t threads, bool weighted,
                                          unsigned threads_hw, Network* net,
                                          std::vector<NodeId>* lost_nodes) {
  ArenaScratch scratch;
  std::vector<NodeCsrPartial> partials =
      local_reduce_csr(logs, weighted, scratch);
  NodeCsrPartial merged =
      tree_reduce_csr(std::move(partials), net, scratch, lost_nodes);
  return accrue_parallel(merged.arena, threads, threads_hw);
}

}  // namespace djvm
