// Seeded mutation fuzzer of the snapshot reader.  Blobs encoded from
// governors in varied states (rated and placeholder gaps, node shifts, copy
// rows, influence, migrations, a lease, each governor mode) are bit-flipped,
// overwritten, truncated and spliced; most mutants are re-sealed with a
// valid CRC32 footer so they reach the field rules instead of the checksum.
// Every mutant must keep the one-reader contract:
//   * no crash and no sanitizer report, in either reader or any exporter;
//   * decode_snapshot accepts exactly when parse_snapshot accepts and the
//     live registry holds the snapshot's classes;
//   * a rejected restore leaves the governor's encoding unchanged;
//   * an accepted restore is idempotent: its re-encoding restores into a
//     fresh identical world and re-encodes to the same bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "balance/balancer_feedback.hpp"
#include "common/rng.hpp"
#include "export/exporter.hpp"
#include "governor/governor.hpp"
#include "governor/snapshot.hpp"

#include "snapshot_helpers.hpp"

namespace djvm {
namespace {

using Blob = std::vector<std::uint8_t>;

/// A registry, heap, plan and governor wired by reference, optionally warmed
/// by restoring `warm` (a blob that does not load leaves the world cold).
/// Two Worlds built from the same arguments are identical.
struct World {
  KlassRegistry reg;
  Heap heap;
  SamplingPlan plan;
  Governor gov;
  SquareMatrix tcm;

  World(std::uint32_t classes, std::uint32_t nodes, const Blob* warm = nullptr)
      : heap(reg, nodes), plan(heap), gov(plan) {
    for (std::uint32_t c = 0; c < classes; ++c) {
      reg.register_class("C" + std::to_string(c), 16u << c);
      for (std::uint32_t i = 0; i < 6; ++i) {
        plan.on_alloc(heap.alloc(c, static_cast<NodeId>(i % nodes)));
      }
    }
    if (warm != nullptr) (void)decode_snapshot(*warm, gov, tcm);
  }
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] Blob encode() const { return encode_snapshot(gov, tcm); }
};

/// Drives `w` into a seed-chosen state; across seeds every snapshot section
/// is filled some of the time.
void drive(World& w, std::uint32_t nodes, SplitMix64& rng) {
  const auto classes = static_cast<ClassId>(w.reg.size());
  for (ClassId c = 0; c < classes; ++c) {
    // Some classes keep their placeholder gaps (unrated on the wire).
    if (rng.next_below(4) != 0) {
      w.plan.set_nominal_gap(c, 1u << rng.next_below(12));
    }
  }
  w.plan.resample_all();

  GovernorConfig cfg;
  cfg.per_node = rng.next_below(2) == 0;
  cfg.node_budget = rng.next_below(2) == 0 ? 0.0 : 0.015;
  cfg.meter_window = 1;
  cfg.scoring = rng.next_below(2) == 0 ? BackoffScoring::kInfluenceWeighted
                                       : BackoffScoring::kBytesPerEntry;
  switch (rng.next_below(3)) {
    case 0:
      break;  // disarmed
    case 1:
      w.gov.arm(GovernorConfig::legacy(0.05));
      break;
    default:
      w.gov.arm(cfg);
  }
  const std::uint64_t epochs = rng.next_below(5);
  for (std::uint64_t e = 0; e < epochs; ++e) {
    w.plan.begin_epoch_stats();
    for (ClassId c = 0; c < classes; ++c) {
      for (std::uint64_t i = 0; i < 1 + rng.next_below(20); ++i) {
        w.plan.note_epoch_entry(c, 16u << c, w.plan.real_gap(c));
      }
    }
    OverheadSample s;
    s.measured = true;
    s.app_seconds = 1.0;
    s.access_check_seconds = rng.uniform(0.0, 0.06);
    const std::optional<double> distance =
        e == 0 ? std::nullopt : std::optional(rng.uniform(0.0, 0.2));
    (void)w.gov.on_epoch(distance, s);
  }

  // Node shifts and copy bookkeeping, set after arming (arm clears them).
  for (std::uint32_t n = 0; n < nodes; ++n) {
    for (ClassId c = 0; c < classes; ++c) {
      if (rng.next_below(4) == 0) {
        w.plan.set_node_gap_shift(static_cast<NodeId>(n), c,
                                  1 + static_cast<std::uint32_t>(rng.next_below(4)));
      }
    }
  }
  for (std::uint64_t i = rng.next_below(6); i > 0; --i) {
    w.plan.note_copy_registered(static_cast<NodeId>(rng.next_below(nodes)),
                                static_cast<ObjectId>(
                                    rng.next_below(w.heap.object_count())));
  }

  if (rng.next_below(2) == 0 && classes > 0) {
    BalancerFeedback fb;
    for (ClassId c = 0; c < classes; ++c) {
      fb.mass.push_back(1.0);
      fb.influence.push_back(rng.next_below(3) == 0 ? 0.0 : rng.next_double());
    }
    fb.total_mass = static_cast<double>(classes);
    fb.valid = true;
    w.gov.observe_balancer_feedback(fb);
  }

  for (std::uint64_t i = rng.next_below(4); i > 0; --i) {
    Governor::ExecutedMigration m;
    m.epoch = w.gov.epochs_seen();
    m.thread = static_cast<ThreadId>(rng.next_below(16));
    m.from = static_cast<NodeId>(rng.next_below(nodes));
    m.to = static_cast<NodeId>((m.from + 1 + rng.next_below(nodes - 1)) % nodes);
    m.gain_bytes = rng.uniform(1.0, 4096.0);
    m.sim_cost_seconds = rng.uniform(0.0, 1e-3);
    m.prefetched_bytes = rng.next_below(1 << 16);
    w.gov.record_migration(m);
  }

  if (rng.next_below(2) == 0) {
    Governor::TenantLease lease;
    lease.tenant = static_cast<TenantId>(rng.next_below(8));
    lease.tier = static_cast<std::uint32_t>(rng.next_below(3));
    lease.weight = rng.uniform(0.5, 4.0);
    lease.granted_budget = rng.uniform(0.005, 0.03);
    lease.fair_share = rng.uniform(0.005, 0.03);
    lease.floor = lease.granted_budget * rng.next_double();
    lease.borrowed_epochs = rng.next_below(10);
    lease.lent_epochs = rng.next_below(10);
    w.gov.adopt_lease(lease);
  }

  w.tcm = SquareMatrix(static_cast<std::size_t>(rng.next_below(5)));
  for (double& v : w.tcm.raw()) {
    if (rng.next_below(2) == 0) v = rng.uniform(0.0, 1e4);
  }
}

/// One to three edits of a corpus blob, then (seven times in eight) a fresh
/// CRC footer.
Blob mutate(const std::vector<Blob>& corpus, SplitMix64& rng) {
  Blob m = corpus[rng.next_below(corpus.size())];
  static constexpr std::uint32_t kSmall[] = {
      0, 1, 2, 3, 7, 31, 32, 255, 256, 65535, 65536, 0x7FFFFFFFu, 0xFFFFFFFFu};
  for (std::uint64_t e = 1 + rng.next_below(3); e > 0 && !m.empty(); --e) {
    const std::size_t at = rng.next_below(m.size());
    switch (rng.next_below(5)) {
      case 0:  // bit flip
        m[at] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
        break;
      case 1:  // byte overwrite
        m[at] = static_cast<std::uint8_t>(rng.next());
        break;
      case 2: {  // small-count overwrite
        const std::uint32_t v = kSmall[rng.next_below(std::size(kSmall))];
        const std::size_t n = std::min(sizeof v, m.size() - at);
        std::memcpy(m.data() + at, &v, n);
        break;
      }
      case 3:  // truncation
        m.resize(at);
        break;
      default: {  // splice: a prefix of this blob, a suffix of another
        const Blob& other = corpus[rng.next_below(corpus.size())];
        const std::size_t from = rng.next_below(other.size() + 1);
        m.resize(at);
        m.insert(m.end(), other.begin() + static_cast<std::ptrdiff_t>(from),
                 other.end());
      }
    }
  }
  return rng.next_below(8) != 0 ? resealed(std::move(m)) : m;
}

class SnapshotFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SnapshotFuzz, OneReaderContractHoldsForEveryMutant) {
  SplitMix64 rng(GetParam());
  const std::vector<std::string> names = {"Hot", "", "Bulky"};

  // Corpus: encodings of governors in varied states and registry shapes.
  std::vector<Blob> corpus;
  for (int i = 0; i < 12; ++i) {
    const auto classes = static_cast<std::uint32_t>(1 + rng.next_below(4));
    const auto nodes = static_cast<std::uint32_t>(2 + rng.next_below(2));
    World w(classes, nodes);
    drive(w, nodes, rng);
    corpus.push_back(w.encode());
    // Every corpus blob is itself valid and restores bit-exactly.
    World fresh(classes, nodes);
    ASSERT_TRUE(decode_snapshot(corpus.back(), fresh.gov, fresh.tcm)) << i;
    ASSERT_EQ(fresh.encode(), corpus.back()) << i;
  }

  constexpr int kMutants = 2500;
  int accepted = 0, parsed_only = 0;
  for (int i = 0; i < kMutants; ++i) {
    const Blob m = mutate(corpus, rng);
    SnapshotInfo info;
    const bool parsed = parse_snapshot(m, info);

    // The restore target is warmed from a corpus blob; its registry may be
    // smaller or larger than the mutant's source registry.
    const auto classes = static_cast<std::uint32_t>(rng.next_below(5));
    const auto nodes = static_cast<std::uint32_t>(2 + rng.next_below(2));
    const Blob& warm = corpus[rng.next_below(corpus.size())];
    World target(classes, nodes, &warm);
    const Blob before = target.encode();
    const bool decoded = decode_snapshot(m, target.gov, target.tcm);
    const bool fits = parsed && info.classes.size() <= target.reg.size();
    ASSERT_EQ(decoded, fits) << "seed " << GetParam() << " mutant " << i
                             << ": parse " << parsed;
    if (!decoded) {
      ASSERT_EQ(target.encode(), before)
          << "seed " << GetParam() << " mutant " << i;
      if (parsed) ++parsed_only;
    } else {
      ++accepted;
      const Blob once = target.encode();
      World again(classes, nodes, &warm);
      ASSERT_TRUE(decode_snapshot(once, again.gov, again.tcm))
          << "seed " << GetParam() << " mutant " << i;
      ASSERT_EQ(again.encode(), once)
          << "seed " << GetParam() << " mutant " << i;
    }

    if (parsed) {
      (void)export_pprof(info, names);
      (void)export_collapsed(info, names);
      (void)export_snapshot_json(info, names);
    }
  }
  // The properties above are only as strong as the paths they reach: some
  // mutants must restore, and some must parse into a registry too small.
  EXPECT_GT(accepted, kMutants / 100) << "seed " << GetParam();
  EXPECT_GT(parsed_only, 0) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotFuzz,
                         ::testing::Values(1, 7, 42, 99, 777, 2026, 31337,
                                           80186));

}  // namespace
}  // namespace djvm
