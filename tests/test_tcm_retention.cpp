// TcmStore long-haul retention: drop/decay correctness against the
// reference pipeline, idempotent compaction, merge-after-compact, and the
// store's capacity plateauing under object churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "common/rng.hpp"
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
  // Stale objects [0, 64) merged only at epoch 0; live objects [1000, 1064)
  // re-merged every epoch.  After the stale set ages out, the store must
  // equal a from-scratch reference build over the live records alone.
  const auto stale = stream_over(/*seed=*/1, /*base=*/0, /*span=*/64,
                                 /*intervals=*/40, /*entries=*/12);
  const auto live = stream_over(/*seed=*/2, /*base=*/1000, /*span=*/64,
                                /*intervals=*/40, /*entries=*/12);

  TcmStore store(kThreads);
  ArenaScratch scratch;
  absorb_logs(store, stale, scratch);
  absorb_logs(store, live, scratch);
  for (int epoch = 0; epoch < 4; ++epoch) {
    store.advance_epoch();
    absorb_logs(store, live, scratch);  // identical records: values as-is
  }
  const TcmCompactStats stats = store.compact(/*idle_epochs=*/3, /*decay=*/0.0);
  EXPECT_GT(stats.dropped_objects, 0u);
  EXPECT_EQ(stats.decayed_objects, 0u);
  EXPECT_GT(stats.dropped_readers, 0u);

  expect_maps_near(store_map(store), build_reference(live, kThreads),
                   "post-drop map vs live-records reference");
  // Every stale object evicted, every live object kept.
  TcmStore probe(kThreads);
  absorb_logs(probe, live, scratch);
  EXPECT_EQ(store.csr().objects, probe.csr().objects);
}

TEST(TcmRetention, CompactIsIdempotentWithinAnEpoch) {
  const auto records = stream_over(3, 0, 128, 60, 10);
  for (const double decay : {0.0, 0.5}) {
    TcmStore store(kThreads);
    ArenaScratch scratch;
    absorb_logs(store, records, scratch);
    for (int i = 0; i < 5; ++i) store.advance_epoch();
    const TcmCompactStats first = store.compact(2, decay);
    EXPECT_GT(first.dropped_objects + first.decayed_objects, 0u);
    const SquareMatrix after_first = store_map(store);
    const TcmCompactStats second = store.compact(2, decay);
    EXPECT_EQ(second.dropped_objects, 0u) << "decay=" << decay;
    EXPECT_EQ(second.decayed_objects, 0u) << "decay=" << decay;
    EXPECT_EQ(second.dropped_readers, 0u) << "decay=" << decay;
    expect_maps_near(store_map(store), after_first, "second compact is a no-op");
  }
}

TEST(TcmRetention, DecayScalesStalePairMassExactly) {
  // One stale object (threads 0/1, 100 bytes each) and one live object
  // (threads 2/3, 80 bytes each), unweighted so the expected cells are
  // plain minima.
  TcmStore store(kThreads);
  ArenaScratch scratch;
  std::vector<OalArena> stale;
  stale.push_back(interval_log(0, {{7, 0, 100, 1}}));
  stale.push_back(interval_log(1, {{7, 0, 100, 1}}));
  std::vector<OalArena> live;
  live.push_back(interval_log(2, {{8, 0, 80, 1}}));
  live.push_back(interval_log(3, {{8, 0, 80, 1}}));
  absorb_logs(store, stale, scratch);
  absorb_logs(store, live, scratch);
  for (int i = 0; i < 3; ++i) {
    store.advance_epoch();
    absorb_logs(store, live, scratch);
  }

  TcmCompactStats stats = store.compact(/*idle_epochs=*/2, /*decay=*/0.5);
  EXPECT_EQ(stats.decayed_objects, 1u);
  EXPECT_EQ(stats.dropped_objects, 0u);
  SquareMatrix m = store_map(store);
  EXPECT_NEAR(m.at(0, 1), 50.0, 1e-9);  // stale pair halved
  EXPECT_NEAR(m.at(2, 3), 80.0, 1e-9);  // live pair untouched

  // Repeated epochs of decay shrink the stale mass geometrically until the
  // dust threshold (decayed max byte value < 1) drops the object outright.
  const std::size_t tracked_before = store.object_count();
  for (int round = 0; round < 16 && store.object_count() == tracked_before;
       ++round) {
    store.advance_epoch();
    absorb_logs(store, live, scratch);
    store.compact(2, 0.5);
  }
  EXPECT_EQ(store.object_count(), tracked_before - 1);
  m = store_map(store);
  EXPECT_NEAR(m.at(0, 1), 0.0, 1e-9);
  EXPECT_NEAR(m.at(2, 3), 80.0, 1e-9);
}

TEST(TcmRetention, MergeAfterCompactMatchesReference) {
  const auto stale = stream_over(4, 0, 64, 30, 10);
  const auto live = stream_over(5, 500, 64, 30, 10);
  const auto incoming = stream_over(6, 800, 64, 30, 10);

  TcmStore store(kThreads);
  ArenaScratch scratch;
  absorb_logs(store, stale, scratch);
  absorb_logs(store, live, scratch);
  for (int i = 0; i < 4; ++i) {
    store.advance_epoch();
    absorb_logs(store, live, scratch);
  }
  ASSERT_GT(store.compact(3, 0.0).dropped_objects, 0u);

  // Merging a fresh window into a compacted store must behave as if the
  // dropped objects never existed.
  absorb_logs(store, incoming, scratch);

  std::vector<OalArena> surviving = live;
  surviving.insert(surviving.end(), incoming.begin(), incoming.end());
  expect_maps_near(store_map(store), build_reference(surviving, kThreads),
                   "merge-after-compact vs reference");
}

TEST(TcmRetention, CapacityPlateausUnderChurn) {
  // A sliding object population: each epoch merges a window of fresh
  // objects and compaction retires windows older than the idle bound.  The
  // store's arrays must plateau instead of growing with total objects ever
  // seen.
  constexpr std::uint64_t kWindow = 256;
  constexpr int kEpochs = 40;
  TcmStore store(kThreads);
  ArenaScratch scratch;
  std::size_t mem_mid = 0;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    const auto batch =
        stream_over(100 + epoch, static_cast<ObjectId>(epoch) * kWindow,
                    kWindow, 20, 8);
    absorb_logs(store, batch, scratch);
    store.advance_epoch();
    store.compact(/*idle_epochs=*/3, /*decay=*/0.0);
    if (epoch == kEpochs / 2) mem_mid = store.memory_bytes();
  }
  // Live state covers at most idle_epochs + 1 windows at any point.
  EXPECT_LE(store.object_count(), (3 + 1) * kWindow);
  // Capacities reached steady state by mid-run: no further growth after.
  EXPECT_GT(mem_mid, 0u);
  EXPECT_LE(store.memory_bytes(), mem_mid);
}

class RetentionSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RetentionSweep, RandomSchedulesMatchTheSurvivorOracle) {
  // Random windows over drifting ids under random retention schedules: the
  // store must equal StoreOracle — the same rules applied to a std::map of
  // max-combined readers — after every epoch, with the same pass counts.
  SplitMix64 rng(GetParam());
  RetentionPolicy policy;
  policy.idle_epochs = static_cast<std::uint32_t>(1 + rng.next_below(5));
  policy.decay = std::array<double, 3>{0.0, 0.5, 0.3}[rng.next_below(3)];
  policy.compact_period = static_cast<std::uint32_t>(1 + rng.next_below(4));
  TcmStore store(kThreads);
  ArenaScratch scratch;
  StoreOracle oracle;
  for (std::uint32_t epoch = 0; epoch < 24; ++epoch) {
    const auto window = repack(
        stream_over(rng.next(), epoch * 16, 48,
                    1 + static_cast<int>(rng.next_below(12)),
                    1 + static_cast<int>(rng.next_below(8))),
        static_cast<std::uint32_t>(1 + rng.next_below(16)));
    absorb_logs(store, window, scratch);
    oracle.absorb(window, kThreads);
    store.advance_epoch();
    const TcmCompactStats want = oracle.retain(policy);
    if (store.epoch() % policy.compact_period == 0) {
      const TcmCompactStats got =
          store.compact(policy.idle_epochs, policy.decay);
      EXPECT_EQ(got.dropped_objects, want.dropped_objects) << "epoch " << epoch;
      EXPECT_EQ(got.decayed_objects, want.decayed_objects) << "epoch " << epoch;
      EXPECT_EQ(got.dropped_readers, want.dropped_readers) << "epoch " << epoch;
    }
    ASSERT_EQ(store.object_count(), oracle.objects.size());
    std::size_t k = 0;
    for (const auto& entry : oracle.objects) {
      ASSERT_EQ(store.csr().objects[k++], entry.first);
    }
    expect_maps_near(store_map(store), oracle.map(kThreads),
                     "retained store vs oracle");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RetentionSweep,
                         ::testing::Values(3, 17, 29, 101, 4242, 90001));

}  // namespace
}  // namespace djvm
