// Distributed TCM reduction: equivalence with the centralized builders,
// merge-monoid properties, traffic accounting, and parallel accrual.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <utility>

#include "common/rng.hpp"
#include "profiling/accuracy.hpp"
#include "profiling/distributed_tcm.hpp"

#include "ingest_helpers.hpp"

namespace djvm {
namespace {

OalArena rec(ThreadId t, NodeId node, std::vector<OalEntry> entries) {
  return interval_log(t, std::move(entries), node);
}

/// Random interval set spread over nodes/threads/objects, one interval per
/// arena.
std::vector<OalArena> random_logs(std::uint64_t seed, std::uint32_t threads,
                                  std::uint32_t nodes, int intervals,
                                  int entries_per_interval,
                                  std::uint64_t objects) {
  SplitMix64 rng(seed);
  std::vector<OalArena> out;
  for (int i = 0; i < intervals; ++i) {
    const auto t = static_cast<ThreadId>(rng.next_below(threads));
    std::vector<OalEntry> entries;
    for (int e = 0; e < entries_per_interval; ++e) {
      OalEntry entry;
      entry.obj = rng.next_below(objects);
      entry.klass = 0;
      entry.bytes = static_cast<std::uint32_t>(8 + rng.next_below(256));
      entry.gap = static_cast<std::uint32_t>(1 + rng.next_below(64));
      entries.push_back(entry);
    }
    out.push_back(interval_log(t, std::move(entries),
                               static_cast<NodeId>(t % nodes),
                               static_cast<IntervalId>(i)));
  }
  return out;
}

SquareMatrix reduce(std::span<const OalArena> logs, std::uint32_t threads,
                    bool weighted, unsigned threads_hw = 1,
                    Network* net = nullptr,
                    std::vector<NodeId>* lost = nullptr) {
  const std::vector<const OalArena*> ptrs = log_ptrs(logs);
  return DistributedTcmReducer::build(ptrs, threads, weighted, threads_hw, net,
                                      lost);
}

/// The reducer's wire price, computed independently of the CSR arena: a
/// 16-byte header, 8 bytes per distinct object, 12 per distinct (object,
/// thread) reader, over the slices logged on any node in `nodes`.
std::uint64_t expected_wire_bytes(std::span<const OalArena> logs,
                                  const std::set<NodeId>& nodes) {
  std::set<ObjectId> objects;
  std::set<std::pair<ObjectId, ThreadId>> readers;
  for (const OalArena& log : logs) {
    for (const ArenaInterval& iv : log.intervals) {
      if (nodes.count(iv.node) == 0) continue;
      for (std::uint32_t i = iv.begin; i < iv.end; ++i) {
        objects.insert(log.entries[i].obj);
        readers.insert({log.entries[i].obj, iv.thread});
      }
    }
  }
  return 16 + 8 * objects.size() + 12 * readers.size();
}

/// The logs' slices logged on `node`, for per-node oracle maps.
std::vector<OalArena> logs_of_node(std::span<const OalArena> logs, NodeId node) {
  std::vector<OalArena> out;
  for (const OalArena& log : logs) {
    for (const ArenaInterval& iv : log.intervals) {
      if (iv.node != node) continue;
      out.emplace_back();
      append_interval(out.back(), iv,
                      {log.entries.data() + iv.begin, iv.end - iv.begin});
    }
  }
  return out;
}

TEST(DistributedTcm, EmptyInput) {
  const SquareMatrix tcm = reduce({}, 4, true);
  EXPECT_DOUBLE_EQ(tcm.total(), 0.0);
}

TEST(DistributedTcm, LocalReduceGroupsByNode) {
  std::vector<OalArena> rs;
  rs.push_back(rec(0, 0, {{1, 0, 10, 1}}));
  rs.push_back(rec(1, 1, {{1, 0, 10, 1}}));
  rs.push_back(rec(2, 0, {{2, 0, 10, 1}}));
  ArenaScratch scratch;
  const auto partials =
      DistributedTcmReducer::local_reduce_csr(log_ptrs(rs), false, scratch);
  ASSERT_EQ(partials.size(), 2u);
  EXPECT_EQ(partials[0].node, 0);
  EXPECT_EQ(partials[1].node, 1);
  EXPECT_EQ(partials[0].arena.object_count(), 2u);  // objects 1 and 2
  EXPECT_EQ(partials[1].arena.object_count(), 1u);
}

TEST(DistributedTcm, MergeUnionsReadersWithMax) {
  std::vector<OalArena> ra;
  ra.push_back(rec(0, 0, {{7, 0, 100, 1}}));
  std::vector<OalArena> rb;
  rb.push_back(rec(0, 1, {{7, 0, 40, 1}}));
  rb.push_back(rec(1, 1, {{7, 0, 60, 1}}));
  rb.push_back(rec(2, 1, {{8, 0, 30, 1}}));
  ArenaScratch scratch;
  auto pa = DistributedTcmReducer::local_reduce_csr(log_ptrs(ra), false, scratch);
  auto pb = DistributedTcmReducer::local_reduce_csr(log_ptrs(rb), false, scratch);
  ASSERT_EQ(pa.size(), 1u);
  ASSERT_EQ(pb.size(), 1u);
  DistributedTcmReducer::merge_csr(pa[0], pb[0], scratch);
  const ReaderArena& m = pa[0].arena;
  ASSERT_EQ(m.object_count(), 2u);  // objects 7 and 8
  EXPECT_EQ(m.objects[0], 7u);
  const auto readers = m.readers_of(0);
  ASSERT_EQ(readers.size(), 2u);
  EXPECT_DOUBLE_EQ(readers[0].second, 100.0);  // max(100, 40)
  EXPECT_DOUBLE_EQ(readers[1].second, 60.0);
  const SquareMatrix tcm = DistributedTcmReducer::accrue_parallel(m, 3, 1);
  EXPECT_DOUBLE_EQ(tcm.at(0, 1), 60.0);  // min(max(100, 40), 60)
  EXPECT_DOUBLE_EQ(tcm.at(0, 2), 0.0);   // object 8 read by thread 2 alone
}

TEST(DistributedTcm, MatchesCentralizedBuildersOnSmallInput) {
  std::vector<OalArena> rs;
  rs.push_back(rec(0, 0, {{1, 0, 64, 2}, {2, 0, 32, 1}}));
  rs.push_back(rec(1, 1, {{1, 0, 64, 2}}));
  rs.push_back(rec(2, 2, {{2, 0, 32, 1}, {1, 0, 16, 4}}));
  const SquareMatrix reference = build_reference(rs, 3, true);
  const SquareMatrix fold = fold_map(rs, 3, true);
  const SquareMatrix dist = reduce(rs, 3, true);
  ASSERT_GT(reference.total(), 0.0);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(dist.at(i, j), reference.at(i, j), 1e-9) << i << "," << j;
      EXPECT_NEAR(fold.at(i, j), reference.at(i, j), 1e-9) << i << "," << j;
    }
  }
}

class DistributedEquivalenceSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, unsigned>> {};

TEST_P(DistributedEquivalenceSweep, RandomizedEquivalence) {
  const auto [seed, workers] = GetParam();
  const auto rs = random_logs(seed, 16, 8, 200, 40, 512);
  const SquareMatrix reference = build_reference(rs, 16, true);
  const SquareMatrix dist = reduce(rs, 16, true, workers);
  ASSERT_GT(reference.total(), 0.0);
  EXPECT_LT(absolute_error(dist, reference), 1e-9) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndWorkers, DistributedEquivalenceSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 42, 1234),
                       ::testing::Values(1u, 2u, 4u)));

TEST(DistributedTcm, TreeReduceAccountsTraffic) {
  std::vector<OalArena> rs;
  for (NodeId n = 0; n < 8; ++n) {
    rs.push_back(rec(static_cast<ThreadId>(n), n,
                     {{static_cast<ObjectId>(n), 0, 64, 1}}));
  }
  Network net(SimCosts{});
  ArenaScratch scratch;
  auto partials =
      DistributedTcmReducer::local_reduce_csr(log_ptrs(rs), false, scratch);
  ASSERT_EQ(partials.size(), 8u);
  (void)DistributedTcmReducer::tree_reduce_csr(std::move(partials), &net,
                                               scratch);
  // Binary tree over 8 partials: 4 + 2 + 1 = 7 merge messages, each paying
  // the transport's message header.  Each child ships its subtree's union:
  // 4 of one object, 2 of two, 1 of four, each object with one reader.
  EXPECT_EQ(net.stats().messages_of(MsgCategory::kOal), 7u);
  EXPECT_EQ(net.stats().bytes_of(MsgCategory::kOal),
            7 * kMessageHeaderBytes + 4 * (16 + 8 + 12) +
                2 * (16 + 2 * (8 + 12)) + (16 + 4 * (8 + 12)));
}

TEST(DistributedTcm, TreeReduceTrafficBeatsCentralShippingForWideClusters) {
  // Each node's partial is deduplicated locally, so shipping partials up a
  // tree moves fewer bytes than shipping every raw OAL to one coordinator
  // when threads re-log the same objects across many intervals.
  const std::uint32_t nodes = 8;
  std::vector<OalArena> rs;
  std::uint64_t raw_bytes = 0;
  for (NodeId n = 0; n < nodes; ++n) {
    for (int interval = 0; interval < 50; ++interval) {
      std::vector<OalEntry> entries;
      for (ObjectId o = 0; o < 20; ++o) {
        entries.push_back({o, 0, 64, 1});  // same 20 objects every interval
      }
      rs.push_back(rec(static_cast<ThreadId>(n), n, std::move(entries)));
      raw_bytes += rs.back().wire_bytes();
    }
  }
  Network net(SimCosts{});
  (void)reduce(rs, nodes, false, 1, &net);
  EXPECT_LT(net.stats().bytes_of(MsgCategory::kOal), raw_bytes / 4);
}

TEST(DistributedTcm, WireBytesArePinned) {
  // 16 + 8 * objects + 12 * readers, for an empty and a populated partial.
  EXPECT_EQ(NodeCsrPartial{}.wire_bytes(), 16u);
  std::vector<OalArena> rs;
  rs.push_back(rec(0, 0, {{1, 0, 10, 1}, {2, 0, 10, 1}}));
  rs.push_back(rec(1, 0, {{1, 0, 10, 1}}));
  ArenaScratch scratch;
  const auto partials =
      DistributedTcmReducer::local_reduce_csr(log_ptrs(rs), false, scratch);
  ASSERT_EQ(partials.size(), 1u);
  EXPECT_EQ(partials[0].wire_bytes(), 16u + 2 * 8 + 3 * 12);
}

TEST(DistributedTcm, ParallelAccrualSmallInputFallsBackToSequential) {
  // Below the parallel threshold the sequential path runs; results match.
  std::vector<OalArena> rs;
  rs.push_back(rec(0, 0, {{1, 0, 10, 1}}));
  rs.push_back(rec(1, 0, {{1, 0, 10, 1}}));
  ArenaScratch scratch;
  const ReaderArena arena = TcmBuilder::reorganize_arena(rs, false, scratch);
  const SquareMatrix seq = TcmBuilder::accrue_sparse(arena, 2).densify();
  const SquareMatrix par = DistributedTcmReducer::accrue_parallel(arena, 2, 8);
  EXPECT_EQ(seq, par);
  EXPECT_DOUBLE_EQ(par.at(0, 1), 10.0);
}

TEST(DistributedTcm, LocalReduceMatchesPerNodeOracleAndWire) {
  const auto rs = random_logs(99, 8, 4, 80, 16, 128);
  ArenaScratch scratch;
  const auto csr =
      DistributedTcmReducer::local_reduce_csr(log_ptrs(rs), true, scratch);
  ASSERT_EQ(csr.size(), 4u);
  for (std::size_t i = 0; i < csr.size(); ++i) {
    const NodeId node = csr[i].node;
    EXPECT_EQ(node, static_cast<NodeId>(i));  // sorted by node id
    EXPECT_EQ(csr[i].wire_bytes(), expected_wire_bytes(rs, {node}))
        << "node " << node;
    // Same per-node map as the oracle over that node's slices alone.
    const SquareMatrix mo = build_reference(logs_of_node(rs, node), 8, true);
    const SquareMatrix mc =
        DistributedTcmReducer::accrue_parallel(csr[i].arena, 8, 1);
    EXPECT_LT(absolute_error(mc, mo), 1e-9) << "node " << node;
  }
}

TEST(DistributedTcm, TreeReduceMatchesOracleResultAndTraffic) {
  const auto rs = random_logs(7, 16, 8, 150, 24, 256);
  ArenaScratch scratch;
  Network net(SimCosts{});
  auto partials =
      DistributedTcmReducer::local_reduce_csr(log_ptrs(rs), true, scratch);
  ASSERT_EQ(partials.size(), 8u);
  const auto merged =
      DistributedTcmReducer::tree_reduce_csr(std::move(partials), &net, scratch);
  // Each merge ships the child subtree's union, priced by the formula over
  // the subtree's nodes: round `stride` merges partial i+stride (covering
  // nodes [i+stride, i+2*stride)) into partial i.
  std::uint64_t expected_bytes = 0;
  std::uint64_t expected_messages = 0;
  for (NodeId stride = 1; stride < 8; stride *= 2) {
    for (NodeId i = 0; i + stride < 8; i += 2 * stride) {
      std::set<NodeId> subtree;
      for (NodeId n = i + stride; n < std::min<NodeId>(8, i + 2 * stride); ++n) {
        subtree.insert(n);
      }
      expected_bytes += kMessageHeaderBytes + expected_wire_bytes(rs, subtree);
      ++expected_messages;
    }
  }
  EXPECT_EQ(net.stats().messages_of(MsgCategory::kOal), expected_messages);
  EXPECT_EQ(net.stats().bytes_of(MsgCategory::kOal), expected_bytes);
  // The merged partial is the whole window's map.
  const SquareMatrix mc =
      DistributedTcmReducer::accrue_parallel(merged.arena, 16, 4);
  EXPECT_LT(absolute_error(mc, build_reference(rs, 16, true)), 1e-9);
}

TEST(DistributedTcm, ArenaBuildMatchesReferenceAcrossSplits) {
  const auto rs = random_logs(21, 12, 6, 120, 20, 200);
  const SquareMatrix reference = build_reference(rs, 12, true);
  // Tight 32-entry arenas force interval splits and multi-node arenas; the
  // slice-level bucketing must still reproduce the unsplit result.
  const std::vector<OalArena> arenas = repack(rs, 32);
  ASSERT_GT(arenas.size(), rs.size() / 2);
  const SquareMatrix from_arenas = reduce(arenas, 12, true, 2);
  ASSERT_GT(reference.total(), 0.0);
  EXPECT_LT(absolute_error(from_arenas, reference), 1e-9);
  EXPECT_LT(absolute_error(fold_map(arenas, 12, true), reference), 1e-9);
}

TEST(DistributedTcm, MigratedThreadLogsMergeAcrossNodes) {
  // A thread whose intervals span two nodes (it migrated) still
  // deduplicates per (thread, object) with max, like the centralized
  // builders.
  std::vector<OalArena> rs;
  rs.push_back(rec(0, 0, {{7, 0, 100, 1}}));
  rs.push_back(rec(0, 1, {{7, 0, 80, 1}}));  // after migration, re-logged
  rs.push_back(rec(1, 2, {{7, 0, 90, 1}}));
  const SquareMatrix reference = build_reference(rs, 2, false);
  const SquareMatrix dist = reduce(rs, 2, false);
  EXPECT_DOUBLE_EQ(reference.at(0, 1), 90.0);  // min(max(100,80), 90)
  EXPECT_DOUBLE_EQ(dist.at(0, 1), 90.0);
}

}  // namespace
}  // namespace djvm
