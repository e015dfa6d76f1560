// The CSR TCM pipeline: equivalence with the dense-from-scratch oracle over
// randomized arena streams (arbitrary window splits),
// arena reorganization, the whole-run store's in-place merge, the daemon's
// epoch-close window build, and a seeded property sweep over the whole
// pipeline (retention, out-of-range threads and classes, spill ids).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>

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
  // Thread 0 logs object 7 on node 0, then again on node 2 after migrating:
  // its sightings still max-combine into one reader.
  std::vector<OalArena> rs;
  rs.push_back(interval_log(0, {{7, 0, 100, 1}, {9, 0, 10, 1}, {7, 0, 40, 1}},
                            /*node=*/0, 0));
  rs.push_back(interval_log(1, {{7, 0, 60, 1}}, /*node=*/1, 1));
  rs.push_back(interval_log(0, {{7, 0, 120, 1}}, /*node=*/2, 2));
  ArenaScratch scratch;
  const ReaderArena arena =
      TcmBuilder::reorganize_arena(log_ptrs(rs), /*weighted=*/false, scratch);
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

TEST(ReaderArena, SplitIntervalsReorganizeToReference) {
  // Packed into 16-entry arenas, intervals split across arenas; the
  // reorganize must still accrue to the reference map.
  const auto rs = repack(random_stream(7, 8, 64, 50, 12), 16);
  expect_maps_equal(fold_map(rs, 8, true), build_reference(rs, 8, true),
                    "arena reorganize");
}

TEST(ReaderArena, SparseObjectIdsSpillSafely) {
  // Ids far beyond the direct-index cap must not size an allocation.
  std::vector<OalArena> rs;
  const ObjectId huge = ObjectId{1} << 40;
  rs.push_back(rec(0, 0, {{huge, 0, 100, 1}, {3, 0, 50, 1}}));
  rs.push_back(rec(1, 1, {{huge, 0, 80, 1}}));
  const SquareMatrix fast = fold_map(rs, 2, false);
  const SquareMatrix ref = build_reference(rs, 2, false);
  expect_maps_equal(fast, ref, "sparse ids");
  EXPECT_DOUBLE_EQ(fast.at(0, 1), 80.0);
}

// --- one-shot build equivalence ----------------------------------------------

TEST(TcmEquivalence, FastBuildMatchesReferenceRandomized) {
  for (const std::uint64_t seed : {1ull, 2ull, 42ull, 999ull}) {
    const auto rs = random_stream(seed, 16, 512, 200, 30);
    const SquareMatrix ref = build_reference(rs, 16, true);
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
                    build_reference(rs, 2, false), "unweighted");
  expect_maps_equal(fold_map(rs, 2, true),
                    build_reference(rs, 2, true), "weighted");
}

// --- whole-run store ---------------------------------------------------------

/// Absorbs `logs` into `store` one window per `take()` arenas.
template <typename Take>
void absorb_split(TcmStore& store, std::span<const OalArena> logs, Take take) {
  ArenaScratch scratch;
  std::size_t pos = 0;
  while (pos < logs.size()) {
    const std::size_t n = std::min<std::size_t>(take(), logs.size() - pos);
    absorb_logs(store, logs.subspan(pos, n), scratch);
    pos += n;
  }
}

class IncrementalSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalSweep, SplitSubmissionsMatchFromScratch) {
  const std::uint64_t seed = GetParam();
  const auto rs = random_stream(seed, 12, 256, 160, 24);
  const SquareMatrix ref = build_reference(rs, 12, true);

  // Merge the same stream in every split the seed dictates: 1 window,
  // uneven windows, one interval at a time.
  SplitMix64 rng(seed ^ 0xABCD);
  for (int split = 0; split < 3; ++split) {
    TcmStore store(12);
    absorb_split(store, rs, [&]() -> std::size_t {
      return split == 0 ? rs.size() : split == 1 ? 1 + rng.next_below(40) : 1;
    });
    expect_maps_equal(store_map(store), ref, "split merge");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalSweep,
                         ::testing::Values(1, 7, 42, 1234, 77777));

TEST(TcmStore, TwoWindowsEqualCombinedStream) {
  const auto a = random_stream(11, 10, 200, 80, 20);
  const auto b = random_stream(12, 10, 200, 80, 20);
  TcmStore store(10);
  ArenaScratch scratch;
  absorb_logs(store, a, scratch);
  absorb_logs(store, b, scratch);

  std::vector<OalArena> both = a;
  both.insert(both.end(), b.begin(), b.end());
  expect_maps_equal(store_map(store), build_reference(both, 10, true),
                    "two windows");
}

TEST(TcmStore, MaxCombiningNeverDoubleCounts) {
  // The same (object, thread) re-logged with rising, falling, and equal
  // byte values must leave pair cells at min(max_i, max_j), exactly once.
  TcmStore store(2);
  ArenaScratch scratch;
  std::vector<OalArena> rs;
  rs.push_back(rec(0, 0, {{7, 0, 50, 1}}));
  rs.push_back(rec(1, 1, {{7, 0, 80, 1}}));
  absorb_logs(store, rs, scratch);
  EXPECT_DOUBLE_EQ(store_map(store).at(0, 1), 50.0);
  const OalArena more = rec(0, 2, {{7, 0, 70, 1}});  // raises thread 0's max
  absorb_logs(store, {&more, 1}, scratch);
  EXPECT_DOUBLE_EQ(store_map(store).at(0, 1), 70.0);
  const OalArena again = rec(0, 3, {{7, 0, 30, 1}});  // below the max: no change
  absorb_logs(store, {&again, 1}, scratch);
  EXPECT_DOUBLE_EQ(store_map(store).at(0, 1), 70.0);
  EXPECT_EQ(store.reader_entries(), 2u);
}

TEST(TcmStore, KeepsIdsSortedAcrossInterleavedWindows) {
  // Windows that land below, between and above the held ids, plus spill ids
  // past the direct-index cap, all merge into one strictly increasing run.
  const ObjectId spill = ObjectSlotMap::kDirectCap + 5;
  TcmStore store(3);
  ArenaScratch scratch;
  const std::vector<std::vector<ObjectId>> windows = {
      {50, 10, 30}, {5, 40, spill}, {60, 20, 10, 1}, {spill + 1, 0, 35}};
  for (const auto& ids : windows) {
    std::vector<OalEntry> entries;
    for (const ObjectId id : ids) entries.push_back({id, 0, 16, 1});
    const OalArena log = rec(static_cast<ThreadId>(ids.size() % 3), 0, entries);
    absorb_logs(store, {&log, 1}, scratch);
  }
  const auto& ids = store.csr().objects;
  const std::vector<ObjectId> expected = {0,  1,  5,  10, 20,    30,
                                          35, 40, 50, 60, spill, spill + 1};
  EXPECT_EQ(ids, expected);
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
}

// --- daemon window build -----------------------------------------------------

TEST(DaemonIncremental, EpochTcmMatchesReferenceAcrossIngestSplits) {
  KlassRegistry reg;
  Heap heap(reg, 1);
  SamplingPlan plan(heap);
  reg.register_class("X", 64);
  ArenaFeeder feeder;
  CorrelationDaemon daemon(plan, 12);

  const auto rs = random_stream(21, 12, 256, 120, 24);
  const SquareMatrix ref = build_reference(rs, 12, true);

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
  expect_maps_equal(e2.tcm, build_reference(rs2, 12, true),
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
  expect_maps_equal(daemon.build_full(), build_reference(a, 8, true),
                    "first build_full");
  feeder.feed(daemon, b);
  std::vector<OalArena> both = a;
  both.insert(both.end(), b.begin(), b.end());
  expect_maps_equal(daemon.build_full(),
                    build_reference(both, 8, true),
                    "second build_full merges only the delta");
}

TEST(DaemonIncremental, BuildFullConsumesTheWindow) {
  // build_full drains the pending window, so an
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
                    build_reference(b, 8, true),
                    "window after a build_full");
}

// --- property sweep over the whole pipeline -----------------------------------

/// The store must hold exactly the oracle's objects, in strictly increasing
/// id order, with one reader per thread per object and the oracle's bytes.
void expect_store_matches(const TcmStore& store, const StoreOracle& oracle) {
  const ReaderArena& csr = store.csr();
  ASSERT_EQ(csr.object_count(), oracle.objects.size());
  ASSERT_EQ(csr.offsets.size(), csr.object_count() + 1);
  auto it = oracle.objects.begin();
  for (std::size_t k = 0; k < csr.object_count(); ++k, ++it) {
    if (k > 0) {
      ASSERT_LT(csr.objects[k - 1], csr.objects[k]);
    }
    ASSERT_EQ(csr.objects[k], it->first);
    const auto readers = csr.readers_of(k);
    ASSERT_EQ(readers.size(), it->second.readers.size())
        << "object " << it->first;
    for (const auto& [t, bytes] : readers) {
      const auto want = it->second.readers.find(t);
      ASSERT_NE(want, it->second.readers.end()) << "object " << it->first;
      EXPECT_NEAR(bytes, want->second, 1e-9);
    }
  }
}

/// Dense per-class recomputation of a window's cell attribution: class c's
/// map is the oracle over class c's entries alone, split by placement.
void expect_cells_match(const TcmClassAttribution& cells,
                        std::span<const OalArena> logs, std::uint32_t threads,
                        std::size_t classes, std::span<const NodeId> placement) {
  EXPECT_LE(cells.cut_bytes.size(), classes);  // classes past the registry untag
  const auto at = [](const std::vector<double>& v, std::size_t i) {
    return i < v.size() ? v[i] : 0.0;
  };
  for (std::size_t c = 0; c < classes; ++c) {
    std::vector<OalArena> of_class;
    for (const OalArena& log : logs) {
      for (const ArenaInterval& iv : log.intervals) {
        std::vector<OalEntry> entries;
        for (std::uint32_t i = iv.begin; i < iv.end; ++i) {
          if (log.entries[i].klass == c) entries.push_back(log.entries[i]);
        }
        of_class.push_back(interval_log(iv.thread, std::move(entries)));
      }
    }
    const SquareMatrix m = build_reference(of_class, threads);
    double cut = 0.0, local = 0.0;
    std::vector<double> mass(threads, 0.0);
    for (std::size_t i = 0; i < threads; ++i) {
      for (std::size_t j = i + 1; j < threads; ++j) {
        const bool crosses = i < placement.size() && j < placement.size() &&
                             placement[i] != placement[j];
        (crosses ? cut : local) += m.at(i, j);
        mass[i] += m.at(i, j);
        mass[j] += m.at(i, j);
      }
    }
    EXPECT_NEAR(at(cells.cut_bytes, c), cut, 1e-9) << "class " << c;
    EXPECT_NEAR(at(cells.local_bytes, c), local, 1e-9) << "class " << c;
    for (std::size_t t = 0; t < threads; ++t) {
      const double got =
          c < cells.thread_mass.size() ? at(cells.thread_mass[c], t) : 0.0;
      EXPECT_NEAR(got, mass[t], 1e-9) << "class " << c << " thread " << t;
    }
  }
}

class PipelineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineProperty, WindowsStoreAndCellsMatchOracles) {
  SplitMix64 rng(GetParam());
  const auto threads = static_cast<std::uint32_t>(3 + rng.next_below(10));
  const auto classes = static_cast<std::size_t>(1 + rng.next_below(4));
  RetentionPolicy policy;
  policy.idle_epochs = static_cast<std::uint32_t>(1 + rng.next_below(5));
  policy.decay = std::array<double, 3>{0.0, 0.5, 0.3}[rng.next_below(3)];
  policy.compact_period = static_cast<std::uint32_t>(1 + rng.next_below(4));
  SCOPED_TRACE(testing::Message()
               << "threads " << threads << " classes " << classes << " idle "
               << policy.idle_epochs << " decay " << policy.decay << " period "
               << policy.compact_period);

  KlassRegistry reg;
  Heap heap(reg, 1);
  SamplingPlan plan(heap);
  for (std::size_t c = 0; c < classes; ++c) {
    reg.register_class("C" + std::to_string(c), 64);
  }
  IngestKnobs knobs;
  knobs.arena_entries = static_cast<std::uint32_t>(2 + rng.next_below(40));
  knobs.ring_depth = static_cast<std::uint32_t>(2 + rng.next_below(4));
  ArenaFeeder feeder(knobs);
  CorrelationDaemon daemon(plan, threads);
  daemon.set_retention(policy);
  StoreOracle oracle;

  const int epochs = 6 + static_cast<int>(rng.next_below(8));
  for (int epoch = 0; epoch < epochs; ++epoch) {
    // Object ids drift with the epoch so older ones go idle; a hot prefix,
    // spill ids past the direct-index cap, and far-sparse ids ride along.
    // Threads reach past the map dimension; a class is a function of the
    // object and reaches past the registry.
    std::vector<OalArena> stream;
    const int intervals = 5 + static_cast<int>(rng.next_below(30));
    for (int i = 0; i < intervals; ++i) {
      std::vector<OalEntry> entries;
      const int count = 1 + static_cast<int>(rng.next_below(12));
      for (int e = 0; e < count; ++e) {
        const std::uint64_t pick = rng.next_below(10);
        const ObjectId obj =
            pick < 6   ? static_cast<ObjectId>(epoch) * 30 + rng.next_below(90)
            : pick < 8 ? rng.next_below(16)
            : pick < 9 ? ObjectSlotMap::kDirectCap + rng.next_below(40)
                       : (ObjectId{1} << 40) + rng.next_below(4);
        const ClassId klass = obj % 11 == 3
                                  ? kInvalidClass
                                  : static_cast<ClassId>(obj % (classes + 2));
        entries.push_back({obj, klass,
                           static_cast<std::uint32_t>(8 + rng.next_below(57)),
                           static_cast<std::uint32_t>(1 + rng.next_below(8))});
      }
      stream.push_back(rec(static_cast<ThreadId>(rng.next_below(threads + 3)),
                           static_cast<IntervalId>(epoch * 100 + i),
                           std::move(entries)));
    }

    // Random arena geometry, fed in random ingest batches.
    const auto packed = repack(
        stream, static_cast<std::uint32_t>(1 + rng.next_below(20)));
    std::size_t pos = 0;
    while (pos < packed.size()) {
      const std::size_t take = std::min<std::size_t>(
          packed.size() - pos, 1 + rng.next_below(packed.size()));
      const auto first = packed.begin() + static_cast<std::ptrdiff_t>(pos);
      feeder.feed(daemon, {first, first + static_cast<std::ptrdiff_t>(take)});
      pos += take;
    }
    std::vector<NodeId> placement(threads - rng.next_below(2));
    for (NodeId& n : placement) n = static_cast<NodeId>(rng.next_below(3));
    daemon.set_influence_placement(placement);

    const EpochResult e = daemon.run_epoch();
    expect_maps_equal(e.tcm, build_reference(stream, threads), "epoch window");
    expect_cells_match(e.cells, stream, threads, classes, placement);

    oracle.absorb(stream, threads);
    oracle.retain(policy);
    expect_store_matches(daemon.store(), oracle);
    EXPECT_EQ(e.retained_objects, oracle.objects.size());
    EXPECT_EQ(e.dropped_objects, oracle.dropped);
  }
  expect_maps_equal(daemon.build_full(), oracle.map(threads), "build_full");
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89,
                                           144, 233));

}  // namespace
}  // namespace djvm
