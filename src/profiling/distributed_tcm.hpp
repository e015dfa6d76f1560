// Distributed / parallel TCM reduction (the paper's future work: "it is
// desirable to have distributed algorithms for deducing correlation maps in
// a more scalable way", Section VI).
//
// Instead of shipping every OAL to one coordinator that does the whole
// O(MN^2) accrual, each node reduces its *local* interval slices into a
// per-node partial; the partials are then merged pairwise up a reduction
// tree (like an MPI_Reduce over a custom monoid) and the pair accrual runs
// once over the merged partial — optionally sharded across worker threads,
// since distinct objects contribute independent updates.
//
// A partial is a flat CSR `ReaderArena` end-to-end: the local reduce
// bucket-sorts drained log arenas straight into per-node partials, and every
// level of the reduction tree merges CSR-to-CSR through the same bucket-sort
// machinery — no level re-hashes, no per-object vectors anywhere.  The
// result matches the centralized builders within 1e-9 (tests assert this);
// what changes is where the work happens and how it scales.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "net/network.hpp"
#include "profiling/tcm.hpp"

namespace djvm {

/// Per-node partial in flat CSR form (see ReaderArena): the representation
/// the reduction tree carries end-to-end so no level re-hashes.  Byte values
/// inside the arena are already Horvitz-Thompson weighted when requested.
struct NodeCsrPartial {
  NodeId node = kInvalidNode;
  ReaderArena arena;

  /// Wire size when shipped up the reduction tree: a 16-byte header, 8 bytes
  /// per object id and 12 per (thread, bytes) reader entry.
  [[nodiscard]] std::uint64_t wire_bytes() const noexcept;
};

/// Distributed TCM reduction.
class DistributedTcmReducer {
 public:
  /// Phase 1 over drained log arenas: interval slices bucket per node (one
  /// arena may mix slices from many threads and nodes, grouped by
  /// ArenaInterval::node with a linear node scan — no hashing), then each
  /// bucket reorganizes in place — nothing is copied between the producer's
  /// append and the per-node partial.  Partials come back sorted by node id.
  [[nodiscard]] static std::vector<NodeCsrPartial> local_reduce_csr(
      std::span<const OalArena* const> logs, bool weighted,
      ArenaScratch& scratch);

  /// Merges `b` into `a` (the reduction monoid: per-object reader lists
  /// union, byte values combined by max — the same rule the reorganize uses
  /// across intervals).  TcmBuilder::merge_arenas: a bucket sort, not a hash
  /// probe per object.
  static void merge_csr(NodeCsrPartial& a, const NodeCsrPartial& b,
                        ArenaScratch& scratch);

  /// Phase 2: binary reduction tree over the partials; every level merges
  /// arena-to-arena.  When `net` is given, each merge step ships the child
  /// partial over the *reliable* transport (retry/backoff per the network's
  /// fault plan) and accounts its traffic, so the distributed scheme can be
  /// compared against centralized OAL shipping.  A child whose exchange
  /// exhausts its retries (dead node, partition, relentless drops) is
  /// excluded from the merge — the map is then incomplete, not wrong — and
  /// its node id is appended to `lost_nodes` when given.  Returns the fully
  /// merged partial.
  [[nodiscard]] static NodeCsrPartial tree_reduce_csr(
      std::vector<NodeCsrPartial> partials, Network* net,
      ArenaScratch& scratch, std::vector<NodeId>* lost_nodes = nullptr);

  /// Phase 3: pair accrual over the merged arena, sharded over `threads_hw`
  /// worker threads (1 = sequential).  The CSR offsets give natural object
  /// shards — workers accrue disjoint object ranges into private
  /// upper-triangular accumulators that sum at the end, with one densify for
  /// the final map.
  [[nodiscard]] static SquareMatrix accrue_parallel(const ReaderArena& arena,
                                                    std::uint32_t threads,
                                                    unsigned threads_hw);

  /// Full pipeline over drained log arenas:
  /// local_reduce_csr -> tree_reduce_csr -> (parallel) accrual.
  /// `lost_nodes` collects nodes whose partials the reduction tree could not
  /// deliver (see tree_reduce_csr); the returned map omits their
  /// contribution.
  [[nodiscard]] static SquareMatrix build(std::span<const OalArena* const> logs,
                                          std::uint32_t threads, bool weighted,
                                          unsigned threads_hw = 1,
                                          Network* net = nullptr,
                                          std::vector<NodeId>* lost_nodes = nullptr);
};

}  // namespace djvm
