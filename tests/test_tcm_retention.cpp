// TcmAccumulator long-haul retention: drop/decay correctness against the
// reference pipeline, idempotent compaction, merge-after-compact, and the
// free-list keeping pool growth bounded under object churn.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "profiling/distributed_tcm.hpp"
#include "profiling/tcm.hpp"

#include "ingest_helpers.hpp"

namespace djvm {
namespace {

constexpr std::uint32_t kThreads = 8;

/// Random intervals (one per arena, thread t on node t % 2) over object
/// ids in [base, base + span).
std::vector<OalArena> stream_over(std::uint64_t seed, ObjectId base,
                                  std::uint64_t span, int intervals,
                                  int entries_per_interval) {
  SplitMix64 rng(seed);
  std::vector<OalArena> out;
  for (int i = 0; i < intervals; ++i) {
    const auto t = static_cast<ThreadId>(rng.next_below(kThreads));
    std::vector<OalEntry> entries;
    for (int e = 0; e < entries_per_interval; ++e) {
      OalEntry entry;
      entry.obj = base + rng.next_below(span);
      entry.klass = 0;
      entry.bytes = static_cast<std::uint32_t>(8 + rng.next_below(256));
      entry.gap = static_cast<std::uint32_t>(1 + rng.next_below(16));
      entries.push_back(entry);
    }
    out.push_back(interval_log(t, std::move(entries), static_cast<NodeId>(t % 2),
                               static_cast<IntervalId>(i)));
  }
  return out;
}

void expect_maps_near(const SquareMatrix& a, const SquareMatrix& b,
                      const char* what, double tol = 1e-9) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < a.size(); ++j) {
      EXPECT_NEAR(a.at(i, j), b.at(i, j), tol)
          << what << " cell (" << i << "," << j << ")";
    }
  }
}

TEST(TcmRetention, DropStaleMatchesReferenceOverLiveRecords) {
  // Stale objects [0, 64) folded only at epoch 0; live objects [1000, 1064)
  // re-folded every epoch.  After the stale set ages out, the accumulator
  // must equal a from-scratch reference build over the live records alone.
  const auto stale = stream_over(/*seed=*/1, /*base=*/0, /*span=*/64,
                                 /*intervals=*/40, /*entries=*/12);
  const auto live = stream_over(/*seed=*/2, /*base=*/1000, /*span=*/64,
                                /*intervals=*/40, /*entries=*/12);

  TcmAccumulator acc(kThreads);
  acc.add(stale);
  acc.add(live);
  for (int epoch = 0; epoch < 4; ++epoch) {
    acc.advance_epoch();
    acc.add(live);  // identical records: max-combining leaves values as-is
  }
  const TcmCompactStats stats = acc.compact(/*idle_epochs=*/3, /*decay=*/0.0);
  EXPECT_GT(stats.dropped_objects, 0u);
  EXPECT_EQ(stats.decayed_objects, 0u);
  EXPECT_GT(stats.freed_readers, 0u);

  expect_maps_near(acc.dense(),
                   TcmBuilder::build_reference(live, kThreads),
                   "post-drop map vs live-records reference");
  // Every stale object evicted, every live object kept.
  std::size_t live_objects = 0;
  {
    TcmAccumulator probe(kThreads);
    probe.add(live);
    live_objects = probe.objects_tracked();
  }
  EXPECT_EQ(acc.objects_tracked(), live_objects);
}

TEST(TcmRetention, CompactIsIdempotentWithinAnEpoch) {
  const auto records = stream_over(3, 0, 128, 60, 10);
  for (const double decay : {0.0, 0.5}) {
    TcmAccumulator acc(kThreads);
    acc.add(records);
    for (int i = 0; i < 5; ++i) acc.advance_epoch();
    const TcmCompactStats first = acc.compact(2, decay);
    EXPECT_GT(first.dropped_objects + first.decayed_objects, 0u);
    const SquareMatrix after_first = acc.dense();
    const TcmCompactStats second = acc.compact(2, decay);
    EXPECT_EQ(second.dropped_objects, 0u) << "decay=" << decay;
    EXPECT_EQ(second.decayed_objects, 0u) << "decay=" << decay;
    EXPECT_EQ(second.freed_readers, 0u) << "decay=" << decay;
    expect_maps_near(acc.dense(), after_first, "second compact is a no-op");
  }
}

TEST(TcmRetention, DecayScalesStalePairMassExactly) {
  // One stale object (threads 0/1, 100 bytes each) and one live object
  // (threads 2/3, 80 bytes each), unweighted so the expected cells are
  // plain minima.
  TcmAccumulator acc(kThreads, /*weighted=*/false);
  const std::vector<std::pair<ThreadId, double>> stale_readers = {{0, 100.0},
                                                                  {1, 100.0}};
  const std::vector<std::pair<ThreadId, double>> live_readers = {{2, 80.0},
                                                                 {3, 80.0}};
  acc.add_readers(7, stale_readers, 0);
  acc.add_readers(8, live_readers, 0);
  for (int i = 0; i < 3; ++i) {
    acc.advance_epoch();
    acc.add_readers(8, live_readers, 0);
  }

  TcmCompactStats stats = acc.compact(/*idle_epochs=*/2, /*decay=*/0.5);
  EXPECT_EQ(stats.decayed_objects, 1u);
  EXPECT_EQ(stats.dropped_objects, 0u);
  SquareMatrix m = acc.dense();
  EXPECT_NEAR(m.at(0, 1), 50.0, 1e-9);  // stale pair halved
  EXPECT_NEAR(m.at(2, 3), 80.0, 1e-9);  // live pair untouched

  // Repeated epochs of decay shrink the stale mass geometrically until the
  // dust threshold (decayed max byte value < 1) drops the object outright.
  std::size_t tracked_before = acc.objects_tracked();
  for (int round = 0; round < 16 && acc.objects_tracked() == tracked_before;
       ++round) {
    acc.advance_epoch();
    acc.add_readers(8, live_readers, 0);
    acc.compact(2, 0.5);
  }
  EXPECT_EQ(acc.objects_tracked(), tracked_before - 1);
  m = acc.dense();
  EXPECT_NEAR(m.at(0, 1), 0.0, 1e-9);
  EXPECT_NEAR(m.at(2, 3), 80.0, 1e-9);
}

TEST(TcmRetention, MergeAfterCompactMatchesReference) {
  const auto stale = stream_over(4, 0, 64, 30, 10);
  const auto live = stream_over(5, 500, 64, 30, 10);
  const auto incoming = stream_over(6, 800, 64, 30, 10);

  TcmAccumulator acc(kThreads);
  acc.add(stale);
  acc.add(live);
  for (int i = 0; i < 4; ++i) {
    acc.advance_epoch();
    acc.add(live);
  }
  ASSERT_GT(acc.compact(3, 0.0).dropped_objects, 0u);

  // Merging a fresh partial into a compacted accumulator must behave as if
  // the dropped objects never existed.
  TcmAccumulator partial(kThreads);
  partial.add(incoming);
  acc.merge(partial);

  std::vector<OalArena> surviving = live;
  surviving.insert(surviving.end(), incoming.begin(), incoming.end());
  expect_maps_near(acc.dense(),
                   TcmBuilder::build_reference(surviving, kThreads),
                   "merge-after-compact vs reference");
  // And the distributed reducer over the same surviving logs agrees —
  // compaction composes with the reduction monoid.
  expect_maps_near(acc.dense(),
                   DistributedTcmReducer::build(log_ptrs(surviving), kThreads,
                                                /*weighted=*/true),
                   "merge-after-compact vs distributed reducer");
}

TEST(TcmRetention, FreeListBoundsPoolUnderChurn) {
  // A sliding object population: each epoch folds a fresh window of objects
  // and compaction retires windows older than the idle bound.  The pool and
  // slot arrays must plateau instead of growing with total objects ever seen.
  constexpr std::uint64_t kWindow = 256;
  constexpr int kEpochs = 40;
  TcmAccumulator acc(kThreads);
  std::size_t mem_mid = 0;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    const auto batch =
        stream_over(100 + epoch, static_cast<ObjectId>(epoch) * kWindow,
                    kWindow, 20, 8);
    acc.add(batch);
    acc.advance_epoch();
    acc.compact(/*idle_epochs=*/3, /*decay=*/0.0);
    if (epoch == kEpochs / 2) mem_mid = acc.memory_bytes();
  }
  // Live state covers at most idle_epochs + 1 windows at any point.
  EXPECT_LE(acc.objects_tracked(), (3 + 1) * kWindow);
  // Capacities reached steady state by mid-run: no further growth after.
  EXPECT_GT(mem_mid, 0u);
  EXPECT_LE(acc.memory_bytes(), mem_mid);
}

}  // namespace
}  // namespace djvm
