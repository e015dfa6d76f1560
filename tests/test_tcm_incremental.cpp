// Incremental sparse TCM pipeline: equivalence with the dense-from-scratch
// reference over randomized arena streams (arbitrary ingest splits,
// mid-stream resets), arena reorganization, accumulator merges, and the
// daemon's fold-at-ingest path.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "profiling/accuracy.hpp"
#include "profiling/correlation_daemon.hpp"
#include "profiling/tcm.hpp"

#include "ingest_helpers.hpp"

namespace djvm {
namespace {

OalArena rec(ThreadId t, IntervalId i, std::vector<OalEntry> entries) {
  return interval_log(t, std::move(entries), kInvalidNode, i);
}

/// Randomized stream, one interval per arena: repeated (object, thread)
/// sightings across intervals, varying bytes (so max-combining matters) and
/// gaps (so HT weighting matters), objects skewed toward a hot prefix.
std::vector<OalArena> random_stream(std::uint64_t seed, std::uint32_t threads,
                                    std::uint64_t objects, int intervals,
                                    int entries_per_interval) {
  SplitMix64 rng(seed);
  std::vector<OalArena> out;
  for (int i = 0; i < intervals; ++i) {
    const auto t = static_cast<ThreadId>(rng.next_below(threads));
    std::vector<OalEntry> entries;
    for (int e = 0; e < entries_per_interval; ++e) {
      OalEntry entry;
      // Skew: half the entries land on the hottest 10% of objects.
      entry.obj = rng.next() % 2 == 0
                      ? rng.next_below(std::max<std::uint64_t>(1, objects / 10))
                      : rng.next_below(objects);
      entry.klass = 0;
      entry.bytes = static_cast<std::uint32_t>(8 + rng.next_below(256));
      entry.gap = static_cast<std::uint32_t>(1 + rng.next_below(64));
      entries.push_back(entry);
    }
    out.push_back(rec(t, static_cast<IntervalId>(i), std::move(entries)));
  }
  return out;
}

void expect_maps_equal(const SquareMatrix& a, const SquareMatrix& b,
                       const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < a.size(); ++j) {
      EXPECT_NEAR(a.at(i, j), b.at(i, j), 1e-9)
          << what << " cell (" << i << "," << j << ")";
    }
  }
}

// --- arena reorganize ---------------------------------------------------------

TEST(ReaderArena, BucketSortsAndDedupsWithMax) {
  std::vector<OalArena> rs;
  rs.push_back(rec(0, 0, {{7, 0, 100, 1}, {9, 0, 10, 1}, {7, 0, 40, 1}}));
  rs.push_back(rec(1, 1, {{7, 0, 60, 1}}));
  rs.push_back(rec(0, 2, {{7, 0, 120, 1}}));
  ArenaScratch scratch;
  const ReaderArena arena =
      TcmBuilder::reorganize_arena(rs, /*weighted=*/false, scratch);
  ASSERT_EQ(arena.object_count(), 2u);
  EXPECT_EQ(arena.objects[0], 7u);  // first-appearance order
  EXPECT_EQ(arena.objects[1], 9u);
  const auto readers7 = arena.readers_of(0);
  ASSERT_EQ(readers7.size(), 2u);  // threads 0 and 1, deduped
  for (const auto& [t, bytes] : readers7) {
    EXPECT_DOUBLE_EQ(bytes, t == 0 ? 120.0 : 60.0);  // max-combined
  }
  EXPECT_EQ(arena.offsets.front(), 0u);
  EXPECT_EQ(arena.offsets.back(), arena.readers.size());
}

TEST(ReaderArena, SliceReorganizeMatchesArenaReorganize) {
  // The reducer's per-slice reorganize and the fold's per-arena reorganize
  // must carry exactly the same information: packed into 16-entry arenas
  // (intervals split across them), both accrue to the reference map.
  const auto rs = repack(random_stream(7, 8, 64, 50, 12), 16);
  std::vector<ArenaSliceRef> slices;
  for (const OalArena& a : rs) {
    for (std::uint32_t s = 0; s < a.intervals.size(); ++s) {
      slices.push_back({&a, s});
    }
  }
  ArenaScratch scratch;
  const SquareMatrix from_arenas =
      TcmBuilder::accrue_sparse(TcmBuilder::reorganize_arena(rs, true, scratch), 8)
          .densify();
  const SquareMatrix from_slices =
      TcmBuilder::accrue_sparse(
          TcmBuilder::reorganize_arena(std::span<const ArenaSliceRef>(slices),
                                       true, scratch),
          8)
          .densify();
  const SquareMatrix reference = TcmBuilder::build_reference(rs, 8, true);
  expect_maps_equal(from_arenas, reference, "arena reorganize");
  expect_maps_equal(from_slices, reference, "slice reorganize");
}

TEST(ReaderArena, SparseObjectIdsSpillSafely) {
  // Ids far beyond the direct-index cap must not size an allocation.
  std::vector<OalArena> rs;
  const ObjectId huge = ObjectId{1} << 40;
  rs.push_back(rec(0, 0, {{huge, 0, 100, 1}, {3, 0, 50, 1}}));
  rs.push_back(rec(1, 1, {{huge, 0, 80, 1}}));
  const SquareMatrix fast = fold_map(rs, 2, false);
  const SquareMatrix ref = TcmBuilder::build_reference(rs, 2, false);
  expect_maps_equal(fast, ref, "sparse ids");
  EXPECT_DOUBLE_EQ(fast.at(0, 1), 80.0);
}

// --- one-shot build equivalence ----------------------------------------------

TEST(TcmEquivalence, FastBuildMatchesReferenceRandomized) {
  for (const std::uint64_t seed : {1ull, 2ull, 42ull, 999ull}) {
    const auto rs = random_stream(seed, 16, 512, 200, 30);
    const SquareMatrix ref = TcmBuilder::build_reference(rs, 16, true);
    const SquareMatrix fast = fold_map(rs, 16, true);
    ASSERT_GT(ref.total(), 0.0);
    expect_maps_equal(fast, ref, "one-shot build");
  }
}

TEST(TcmEquivalence, UnweightedAndThreadsOutOfRange) {
  std::vector<OalArena> rs;
  rs.push_back(rec(0, 0, {{7, 0, 100, 5}}));
  rs.push_back(rec(9, 1, {{7, 0, 100, 5}}));  // beyond the 2-thread matrix
  rs.push_back(rec(1, 2, {{7, 0, 60, 5}}));
  expect_maps_equal(fold_map(rs, 2, false),
                    TcmBuilder::build_reference(rs, 2, false), "unweighted");
  expect_maps_equal(fold_map(rs, 2, true),
                    TcmBuilder::build_reference(rs, 2, true), "weighted");
}

// --- incremental accumulator --------------------------------------------------

class IncrementalSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalSweep, SplitSubmissionsMatchFromScratch) {
  const std::uint64_t seed = GetParam();
  const auto rs = random_stream(seed, 12, 256, 160, 24);
  const SquareMatrix ref = TcmBuilder::build_reference(rs, 12, true);

  // Fold the same stream in every split the seed dictates: 1 batch, uneven
  // batches, one interval at a time.
  SplitMix64 rng(seed ^ 0xABCD);
  for (int split = 0; split < 3; ++split) {
    TcmAccumulator acc(12, /*weighted=*/true);
    std::size_t pos = 0;
    while (pos < rs.size()) {
      std::size_t take = split == 0   ? rs.size()
                         : split == 1 ? 1 + rng.next_below(40)
                                      : 1;
      take = std::min(take, rs.size() - pos);
      acc.add(std::span<const OalArena>(rs).subspan(pos, take));
      pos += take;
    }
    expect_maps_equal(acc.dense(), ref, "split fold");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalSweep,
                         ::testing::Values(1, 7, 42, 1234, 77777));

TEST(TcmAccumulator, MidStreamResetDropsHistory) {
  const auto a = random_stream(5, 8, 128, 60, 16);
  const auto b = random_stream(6, 8, 128, 60, 16);
  TcmAccumulator acc(8);
  acc.add(a);
  ASSERT_GT(acc.objects_tracked(), 0u);
  acc.reset();
  EXPECT_EQ(acc.objects_tracked(), 0u);
  EXPECT_EQ(acc.reader_entries(), 0u);
  acc.add(b);
  expect_maps_equal(acc.dense(), TcmBuilder::build_reference(b, 8, true),
                    "post-reset fold");
}

TEST(TcmAccumulator, MergeEqualsCombinedStream) {
  const auto a = random_stream(11, 10, 200, 80, 20);
  const auto b = random_stream(12, 10, 200, 80, 20);
  TcmAccumulator acc_a(10), acc_b(10);
  acc_a.add(a);
  acc_b.add(b);
  acc_a.merge(acc_b);

  std::vector<OalArena> both = a;
  both.insert(both.end(), b.begin(), b.end());
  expect_maps_equal(acc_a.dense(), TcmBuilder::build_reference(both, 10, true),
                    "merged partials");
}

TEST(TcmAccumulator, MaxCombiningNeverDoubleCounts) {
  // The same (object, thread) re-logged with rising, falling, and equal
  // byte values must leave pair cells at min(max_i, max_j), exactly once.
  TcmAccumulator acc(2);
  std::vector<OalArena> rs;
  rs.push_back(rec(0, 0, {{7, 0, 50, 1}}));
  rs.push_back(rec(1, 1, {{7, 0, 80, 1}}));
  acc.add(rs);
  EXPECT_DOUBLE_EQ(acc.dense().at(0, 1), 50.0);
  const OalArena more = rec(0, 2, {{7, 0, 70, 1}});  // raises thread 0's max
  acc.add({&more, 1});
  EXPECT_DOUBLE_EQ(acc.dense().at(0, 1), 70.0);
  const OalArena again = rec(0, 3, {{7, 0, 30, 1}});  // below the max: no change
  acc.add({&again, 1});
  EXPECT_DOUBLE_EQ(acc.dense().at(0, 1), 70.0);
}

// --- UpperTriangle ------------------------------------------------------------

TEST(UpperTriangle, IndexingAndDensify) {
  UpperTriangle ut(4);
  EXPECT_EQ(ut.cell_count(), 6u);
  ut.add(2, 0, 5.0);  // unordered pair
  ut.add(0, 2, 1.0);
  ut.add(3, 2, 7.0);
  EXPECT_DOUBLE_EQ(ut.at(0, 2), 6.0);
  const SquareMatrix m = ut.densify();
  EXPECT_DOUBLE_EQ(m.at(0, 2), 6.0);
  EXPECT_DOUBLE_EQ(m.at(2, 0), 6.0);
  EXPECT_DOUBLE_EQ(m.at(2, 3), 7.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);

  UpperTriangle other(4);
  other.add(0, 2, 4.0);
  ut += other;
  EXPECT_DOUBLE_EQ(ut.at(0, 2), 10.0);
  ut.clear();
  EXPECT_DOUBLE_EQ(ut.at(0, 2), 0.0);
  EXPECT_EQ(ut.cell_count(), 6u);
}

// --- daemon fold-at-ingest ----------------------------------------------------

TEST(DaemonIncremental, EpochTcmMatchesReferenceAcrossIngestSplits) {
  KlassRegistry reg;
  Heap heap(reg, 1);
  SamplingPlan plan(heap);
  reg.register_class("X", 64);
  ArenaFeeder feeder;
  CorrelationDaemon daemon(plan, 12);

  const auto rs = random_stream(21, 12, 256, 120, 24);
  const SquareMatrix ref = TcmBuilder::build_reference(rs, 12, true);

  // Deliver in three uneven ingest batches within one epoch.
  const std::size_t cut1 = rs.size() / 5;
  const std::size_t cut2 = rs.size() / 2;
  feeder.feed(daemon, {rs.begin(), rs.begin() + cut1});
  feeder.feed(daemon, {rs.begin() + cut1, rs.begin() + cut2});
  feeder.feed(daemon, {rs.begin() + cut2, rs.end()});
  const EpochResult e = daemon.run_epoch();
  expect_maps_equal(e.tcm, ref, "epoch over split ingests");
  EXPECT_GE(e.build_seconds, e.densify_seconds);

  // The next epoch starts a fresh window (mid-stream reset semantics).
  const auto rs2 = random_stream(22, 12, 256, 60, 24);
  feeder.feed(daemon, rs2);
  const EpochResult e2 = daemon.run_epoch();
  expect_maps_equal(e2.tcm, TcmBuilder::build_reference(rs2, 12, true),
                    "second window");
}

TEST(DaemonIncremental, BuildFullIsIncrementalAcrossCalls) {
  KlassRegistry reg;
  Heap heap(reg, 1);
  SamplingPlan plan(heap);
  reg.register_class("X", 64);
  ArenaFeeder feeder;
  CorrelationDaemon daemon(plan, 8);

  const auto a = random_stream(31, 8, 128, 50, 16);
  const auto b = random_stream(32, 8, 128, 50, 16);
  feeder.feed(daemon, a);
  expect_maps_equal(daemon.build_full(), TcmBuilder::build_reference(a, 8, true),
                    "first build_full");
  feeder.feed(daemon, b);
  std::vector<OalArena> both = a;
  both.insert(both.end(), b.begin(), b.end());
  expect_maps_equal(daemon.build_full(),
                    TcmBuilder::build_reference(both, 8, true),
                    "second build_full folds only the delta");
  // A clear() discards the whole-run accumulator too.
  daemon.clear();
  feeder.feed(daemon, b);
  expect_maps_equal(daemon.build_full(), TcmBuilder::build_reference(b, 8, true),
                    "build_full after clear");
}

TEST(DaemonIncremental, BuildFullConsumesTheWindow) {
  // Pre-incremental semantics: build_full drains the pending window, so an
  // epoch run right after starts from nothing — the governor must not see a
  // map whose entries were already reported by build_full (zero entries
  // against a full map would corrupt its benefit/cost inputs).
  KlassRegistry reg;
  Heap heap(reg, 1);
  SamplingPlan plan(heap);
  reg.register_class("X", 64);
  ArenaFeeder feeder;
  CorrelationDaemon daemon(plan, 8);

  const auto a = random_stream(41, 8, 128, 40, 16);
  feeder.feed(daemon, a);
  (void)daemon.build_full();
  const EpochResult drained = daemon.run_epoch();
  EXPECT_EQ(drained.intervals, 0u);
  EXPECT_DOUBLE_EQ(drained.tcm.total(), 0.0);

  // The next real window is unaffected.
  const auto b = random_stream(42, 8, 128, 40, 16);
  feeder.feed(daemon, b);
  expect_maps_equal(daemon.run_epoch().tcm,
                    TcmBuilder::build_reference(b, 8, true),
                    "window after a build_full");
}

}  // namespace
}  // namespace djvm
