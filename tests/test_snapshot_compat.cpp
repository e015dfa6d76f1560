// Snapshot format contract: hand-built v7 fixtures (from the layout
// documented in snapshot.hpp) load, new snapshots carry the tenant lease
// section and a CRC32 integrity footer, both readers reject every other
// version and every blob the encoder never writes, a warm start resamples
// only what actually changed — no full resample storm — and the
// crash-recovery helpers skip corrupt snapshots and tolerate a torn final
// timeline line.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "balance/balancer_feedback.hpp"
#include "common/crc32.hpp"
#include "governor/governor.hpp"
#include "governor/snapshot.hpp"

#include "sampling_helpers.hpp"
#include "snapshot_helpers.hpp"
#include "temp_dir.hpp"

namespace djvm {
namespace {

class SnapshotCompatTest : public ::testing::Test {
 protected:
  SnapshotCompatTest() : heap(reg, 2), plan(heap) {
    hot = reg.register_class("Hot", 16);
    bulky = reg.register_class("Bulky", 1024);
    for (int i = 0; i < 64; ++i) plan.on_alloc(heap.alloc(hot, 1));
    for (int i = 0; i < 64; ++i) plan.on_alloc(heap.alloc(bulky, 0));
  }

  struct FixtureSpec {
    std::uint32_t version = kSnapshotVersion;
    GovernorMode mode = GovernorMode::kClosedLoop;
    GovernorState state = GovernorState::kSentinel;
    bool per_node = true;
    std::uint32_t max_nominal_gap = 1u << 16;
    // {nominal, real} per class, in registry order; converged = 0.
    std::uint32_t hot_nominal = 16, hot_real = 17;
    std::uint32_t bulky_id = 1;  // class entry 1 must carry id 1
    std::uint32_t bulky_nominal = 128, bulky_real = 127;
    // Shift on (node 1, hot); 0 = no shift table rows.
    std::uint8_t hot_shift_node1 = 0;
    // Copy summary rows {registrations, resample_visits} from node 0.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> copy_rows;
    // Scoring mode + influence table ({class, value} when seen).
    std::uint8_t scoring = 1;  // kInfluenceWeighted
    std::uint8_t influence_seen = 0;
    std::uint16_t influence_reserved = 0;
    double influence_decay = 0.5;
    std::vector<std::pair<std::uint32_t, double>> influence;
    // Executed-migration history (epochs fixture field is 7, so entry
    // epochs must be <= 7 and non-decreasing).
    struct FixtureMigration {
      std::uint64_t epoch = 1;
      std::uint32_t thread = 0;
      std::uint16_t from = 0, to = 1;
      double gain_bytes = 1.0, sim_cost_seconds = 0.0;
      std::uint64_t prefetched_bytes = 0;
    };
    std::uint64_t migrations_executed = 0;
    std::vector<FixtureMigration> migrations;
    // Tenant budget lease (has_lease = 0 -> no lease payload).
    std::uint8_t has_lease = 0;
    std::uint32_t lease_tenant = 3, lease_tier = 1;
    double lease_weight = 2.0, lease_granted = 0.015;
    double lease_fair = 0.01, lease_floor = 0.0025;
    std::uint64_t lease_borrowed = 4, lease_lent = 2;
  };

  /// Hand-builds a snapshot from the documented v7 layout, whatever
  /// `spec.version` says, sealed with a valid CRC32 footer.
  static std::vector<std::uint8_t> build_fixture(const FixtureSpec& spec) {
    std::vector<std::uint8_t> bytes;
    const auto put = [&bytes](const auto& v) {
      const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
      bytes.insert(bytes.end(), p, p + sizeof(v));
    };
    put(kSnapshotMagic);
    put(spec.version);
    bytes.push_back(static_cast<std::uint8_t>(spec.mode));
    bytes.push_back(static_cast<std::uint8_t>(spec.state));
    bytes.push_back(spec.per_node ? 1 : 0);
    bytes.push_back(0);
    put(0.02);   // overhead_budget
    put(0.05);   // distance_threshold
    put(0.25);   // hysteresis
    put(3.0);    // phase_spike_factor
    put(0.015);  // node_budget
    put(std::uint32_t{2});        // sentinel_coarsen_shifts
    put(spec.max_nominal_gap);
    put(std::uint64_t{7});        // epochs
    put(std::uint64_t{1});        // rearms
    put(std::uint32_t{2});        // class_count
    put(std::uint32_t{0});
    put(spec.hot_nominal);
    put(spec.hot_real);
    put(std::uint32_t{0});  put(std::uint32_t{1});  // hot: rated
    put(spec.bulky_id);
    put(spec.bulky_nominal);
    put(spec.bulky_real);
    put(std::uint32_t{0});  put(std::uint32_t{1});  // bulky: rated
    if (spec.hot_shift_node1 != 0) {
      put(std::uint32_t{2});          // shift_node_count
      bytes.push_back(0);             // node 0: hot, bulky
      bytes.push_back(0);
      bytes.push_back(spec.hot_shift_node1);  // node 1: hot
      bytes.push_back(0);                     // node 1: bulky
    } else {
      put(std::uint32_t{0});
    }
    put(static_cast<std::uint32_t>(spec.copy_rows.size()));
    for (const auto& [regs, visits] : spec.copy_rows) {
      put(regs);
      put(visits);
    }
    bytes.push_back(spec.scoring);
    bytes.push_back(spec.influence_seen);
    put(spec.influence_reserved);
    put(spec.influence_decay);
    put(static_cast<std::uint32_t>(spec.influence.size()));
    for (const auto& [id, value] : spec.influence) {
      put(id);
      put(value);
    }
    put(spec.migrations_executed);
    put(static_cast<std::uint32_t>(spec.migrations.size()));
    for (const auto& m : spec.migrations) {
      put(m.epoch);
      put(m.thread);
      put(m.from);
      put(m.to);
      put(m.gain_bytes);
      put(m.sim_cost_seconds);
      put(m.prefetched_bytes);
    }
    bytes.push_back(spec.has_lease);
    if (spec.has_lease != 0) {
      put(spec.lease_tenant);
      put(spec.lease_tier);
      put(spec.lease_weight);
      put(spec.lease_granted);
      put(spec.lease_fair);
      put(spec.lease_floor);
      put(spec.lease_borrowed);
      put(spec.lease_lent);
    }
    put(std::uint64_t{2});  // tcm dimension
    for (int i = 0; i < 4; ++i) put(double{0.5});
    put(crc32(bytes.data(), bytes.size()));  // integrity footer
    return bytes;
  }

  KlassRegistry reg;
  Heap heap;
  SamplingPlan plan;
  ClassId hot = kInvalidClass;
  ClassId bulky = kInvalidClass;
};

TEST_F(SnapshotCompatTest, FixtureShiftLoadsIntoCachedCopyPlan) {
  FixtureSpec spec;
  spec.hot_shift_node1 = 3;
  const std::vector<std::uint8_t> fixture = build_fixture(spec);
  Governor gov(plan);
  SquareMatrix tcm;
  ASSERT_TRUE(decode_snapshot(fixture, gov, tcm));
  EXPECT_EQ(plan.nominal_gap(hot), 16u);
  EXPECT_EQ(plan.node_gap_shift(1, hot), 3u);
  EXPECT_EQ(plan.effective_nominal_gap(1, hot), 16u << 3);
  EXPECT_TRUE(gov.config().per_node);
  EXPECT_DOUBLE_EQ(gov.config().node_budget, 0.015);
  // The restored shift immediately drives the cached-copy plan: node 1
  // samples coarser than the cluster view.
  EXPECT_LT(count_sampled(plan, 1), count_sampled(plan));
  // The fixture's copy summary is empty: bookkeeping restarts at zero.
  EXPECT_EQ(plan.copy_registrations(0), 0u);
  EXPECT_EQ(plan.resample_visits(1), 0u);

  // The hand-built layout is exactly what the encoder writes for the
  // restored state...
  const std::vector<std::uint8_t> out = encode_snapshot(gov, tcm);
  EXPECT_EQ(out, fixture);
  // ...and those bytes round-trip bit-exactly through a fresh world.
  KlassRegistry reg2;
  Heap heap2(reg2, 2);
  reg2.register_class("Hot", 16);
  reg2.register_class("Bulky", 1024);
  SamplingPlan plan2(heap2);
  Governor gov2(plan2);
  SquareMatrix tcm2;
  ASSERT_TRUE(decode_snapshot(out, gov2, tcm2));
  EXPECT_EQ(encode_snapshot(gov2, tcm2), out);
}

TEST_F(SnapshotCompatTest, WarmStartResamplesNothingWhenNothingChanged) {
  // Prime the live plan to exactly the fixture's rates.
  plan.set_nominal_gap(hot, 16);
  plan.set_nominal_gap(bulky, 128);
  plan.resample_all();
  ASSERT_EQ(plan.real_gap(hot), 17u);
  ASSERT_EQ(plan.real_gap(bulky), 127u);
  (void)plan.drain_resampled_by_node();

  Governor gov(plan);
  SquareMatrix tcm;
  ASSERT_TRUE(decode_snapshot(build_fixture(FixtureSpec{}), gov, tcm));
  // The governor is warm-started and driving, but no class's gap or shift
  // moved: the load pays zero resampling visits (the old decoder re-walked
  // the whole heap on every load — a resample storm billed to epoch one).
  const std::vector<std::uint64_t> billed = plan.drain_resampled_by_node();
  std::uint64_t total = 0;
  for (std::uint64_t v : billed) total += v;
  EXPECT_EQ(total, 0u);
  EXPECT_EQ(gov.state(), GovernorState::kSentinel);
  EXPECT_TRUE(gov.converged());
}

TEST_F(SnapshotCompatTest, WarmStartResamplesOnlyChangedClasses) {
  plan.set_nominal_gap(hot, 16);
  plan.set_nominal_gap(bulky, 128);
  plan.resample_all();
  (void)plan.drain_resampled_by_node();

  // The fixture disagrees on `hot` only: exactly hot's 64 objects are
  // re-walked (each visit billed to the caching node — its home here, with
  // no copy view registered), bulky's 64 are left alone.
  FixtureSpec spec;
  spec.hot_nominal = 32;
  spec.hot_real = 31;
  Governor gov(plan);
  SquareMatrix tcm;
  ASSERT_TRUE(decode_snapshot(build_fixture(spec), gov, tcm));
  EXPECT_EQ(plan.nominal_gap(hot), 32u);
  const std::vector<std::uint64_t> billed = plan.drain_resampled_by_node();
  std::uint64_t total = 0;
  for (std::uint64_t v : billed) total += v;
  EXPECT_EQ(total, 64u);         // hot only
  ASSERT_GE(billed.size(), 2u);
  EXPECT_EQ(billed[1], 64u);     // hot is homed at node 1
}

TEST_F(SnapshotCompatTest, V3RoundTripRestoresCopyBookkeeping) {
  plan.set_nominal_gap(hot, 16);
  plan.resample_all();
  plan.note_copy_registered(0, 0);
  plan.note_copy_registered(1, 1);
  plan.note_copy_registered(1, 2);
  const std::uint64_t regs0 = plan.copy_registrations(0);
  const std::uint64_t regs1 = plan.copy_registrations(1);
  const std::uint64_t visits1 = plan.resample_visits(1);
  ASSERT_GT(visits1, 0u);  // resample_all billed node 1's homed objects

  Governor gov(plan);
  GovernorConfig cfg;
  cfg.per_node = true;
  gov.arm(cfg);
  SquareMatrix tcm(2);
  tcm.at(0, 1) = 4.25;
  const std::vector<std::uint8_t> bytes = encode_snapshot(gov, tcm);

  KlassRegistry reg2;
  Heap heap2(reg2, 2);
  reg2.register_class("Hot", 16);
  reg2.register_class("Bulky", 1024);
  SamplingPlan plan2(heap2);
  Governor gov2(plan2);
  SquareMatrix tcm2;
  ASSERT_TRUE(decode_snapshot(bytes, gov2, tcm2));
  // The copy summary carries the attribution history into the warm start.
  EXPECT_EQ(plan2.copy_registrations(0), regs0);
  EXPECT_EQ(plan2.copy_registrations(1), regs1);
  EXPECT_EQ(plan2.resample_visits(1), visits1);
  EXPECT_EQ(encode_snapshot(gov2, tcm2), bytes);  // bit-exact
}

TEST_F(SnapshotCompatTest, FixtureRestoresInfluenceTable) {
  FixtureSpec spec;
  spec.influence_seen = 1;
  spec.influence = {{0, 0.75}};  // hot carries influence, bulky trimmed
  Governor gov(plan);
  SquareMatrix tcm;
  ASSERT_TRUE(decode_snapshot(build_fixture(spec), gov, tcm));
  EXPECT_TRUE(gov.influence_seen());
  EXPECT_DOUBLE_EQ(gov.influence_share(hot), 0.75);
  EXPECT_DOUBLE_EQ(gov.influence_share(bulky), 0.0);
  EXPECT_EQ(gov.config().scoring, BackoffScoring::kInfluenceWeighted);
  EXPECT_DOUBLE_EQ(gov.config().influence_decay, 0.5);
  // The fixture's migration history is empty, and so is the restored one.
  EXPECT_EQ(gov.migrations_executed(), 0u);
  EXPECT_TRUE(gov.migration_history().empty());
}

TEST_F(SnapshotCompatTest, FixtureRestoresMigrationHistory) {
  FixtureSpec spec;
  spec.influence_seen = 1;
  spec.influence = {{0, 0.75}};
  spec.migrations_executed = 9;  // counter may exceed retained history
  FixtureSpec::FixtureMigration a;
  a.epoch = 2;
  a.thread = 1;
  a.from = 0;
  a.to = 1;
  a.gain_bytes = 2048.0;
  a.prefetched_bytes = 512;
  FixtureSpec::FixtureMigration b;
  b.epoch = 6;
  b.thread = 3;
  b.from = 1;
  b.to = 0;
  b.gain_bytes = 128.0;
  spec.migrations = {a, b};
  Governor gov(plan);
  SquareMatrix tcm;
  ASSERT_TRUE(decode_snapshot(build_fixture(spec), gov, tcm));
  EXPECT_EQ(gov.migrations_executed(), 9u);
  ASSERT_EQ(gov.migration_history().size(), 2u);
  EXPECT_EQ(gov.migration_history()[0].thread, 1u);
  EXPECT_EQ(gov.migration_history()[1].epoch, 6u);
  EXPECT_DOUBLE_EQ(gov.migration_history()[0].gain_bytes, 2048.0);
  // Thread 3 migrated at epoch 6 of 7: still inside a 4-epoch cooldown;
  // thread 1 (epoch 2) is not.
  EXPECT_TRUE(gov.in_cooldown(3, 4));
  EXPECT_FALSE(gov.in_cooldown(1, 4));
}

TEST_F(SnapshotCompatTest, CorruptV5MigrationSectionIsRejected) {
  Governor gov(plan);
  SquareMatrix tcm;

  // Counter lower than the retained entries.
  FixtureSpec bad;
  bad.migrations_executed = 0;
  bad.migrations = {{}};
  EXPECT_TRUE(both_readers_reject(build_fixture(bad), gov));

  // Self-move.
  bad = FixtureSpec{};
  bad.migrations_executed = 1;
  bad.migrations = {{}};
  bad.migrations[0].to = bad.migrations[0].from;
  EXPECT_TRUE(both_readers_reject(build_fixture(bad), gov));

  // Epochs out of order / past the governor's epoch count.
  bad = FixtureSpec{};
  bad.migrations_executed = 2;
  bad.migrations = {{}, {}};
  bad.migrations[0].epoch = 5;
  bad.migrations[1].epoch = 2;
  EXPECT_TRUE(both_readers_reject(build_fixture(bad), gov));
  bad.migrations[0].epoch = 2;
  bad.migrations[1].epoch = 8;  // fixture writes epochs_seen = 7
  EXPECT_TRUE(both_readers_reject(build_fixture(bad), gov));

  // Non-positive gain.
  bad = FixtureSpec{};
  bad.migrations_executed = 1;
  bad.migrations = {{}};
  bad.migrations[0].gain_bytes = 0.0;
  EXPECT_TRUE(both_readers_reject(build_fixture(bad), gov));

  // The matching well-formed fixture still loads.
  FixtureSpec good;
  good.migrations_executed = 1;
  good.migrations = {{}};
  SnapshotInfo info;
  EXPECT_TRUE(parse_snapshot(build_fixture(good), info));
  EXPECT_TRUE(decode_snapshot(build_fixture(good), gov, tcm));
}

TEST_F(SnapshotCompatTest, CorruptV4InfluenceSectionIsRejected) {
  Governor gov(plan);
  SquareMatrix tcm;

  FixtureSpec bad;
  bad.scoring = 2;  // beyond kInfluenceWeighted
  EXPECT_TRUE(both_readers_reject(build_fixture(bad), gov));

  bad = FixtureSpec{};
  bad.influence_reserved = 0xBEEF;
  EXPECT_TRUE(both_readers_reject(build_fixture(bad), gov));

  bad = FixtureSpec{};
  bad.influence_decay = 1.5;  // outside [0, 1]
  EXPECT_TRUE(both_readers_reject(build_fixture(bad), gov));

  // Influence entries without the seen flag cannot re-encode bit-exactly.
  bad = FixtureSpec{};
  bad.influence = {{0, 0.5}};
  EXPECT_TRUE(both_readers_reject(build_fixture(bad), gov));

  // Class past the class count, zero (= padded) value, out-of-order ids:
  // all corruption.
  bad = FixtureSpec{};
  bad.influence_seen = 1;
  bad.influence = {{7, 0.5}};
  EXPECT_TRUE(both_readers_reject(build_fixture(bad), gov));
  bad.influence = {{2, 0.5}};  // the fixture has classes 0 and 1
  EXPECT_TRUE(both_readers_reject(build_fixture(bad), gov));
  bad.influence = {{0, 0.0}};
  EXPECT_TRUE(both_readers_reject(build_fixture(bad), gov));
  bad.influence = {{1, 0.5}, {0, 0.5}};
  EXPECT_TRUE(both_readers_reject(build_fixture(bad), gov));

  // The matching well-formed fixture still loads (the rejections above are
  // the corruption, not the section).
  FixtureSpec good;
  good.influence_seen = 1;
  good.influence = {{0, 0.5}, {1, 0.25}};
  SnapshotInfo info;
  EXPECT_TRUE(parse_snapshot(build_fixture(good), info));
  EXPECT_TRUE(decode_snapshot(build_fixture(good), gov, tcm));
}

TEST_F(SnapshotCompatTest, CorruptCopySummaryIsRejected) {
  plan.note_copy_registered(0, 0);
  Governor gov(plan);
  SquareMatrix tcm(2);
  const std::vector<std::uint8_t> bytes = encode_snapshot(gov, tcm);

  // The copy summary sits after the class table (2 x 20 bytes) and the
  // shift-node count: find it by value and corrupt the node count.
  // Header: 8 (magic+version) + 4 (mode/state/flags/pad) + 40 (5 doubles)
  // + 8 (2 u32) + 16 (2 u64) + 4 (class_count) + 40 (classes) + 4
  // (shift_node_count = 0) = 124; copy_node_count lives at offset 124.
  // Re-sealed, so the count reaches its bound instead of the checksum.
  std::vector<std::uint8_t> bad = bytes;
  for (std::size_t i = 124; i < 128; ++i) bad[i] = 0xFF;
  Governor gov2(plan);
  SquareMatrix out;
  EXPECT_TRUE(both_readers_reject(resealed(bad), gov2));
  EXPECT_TRUE(decode_snapshot(bytes, gov2, out));
}

TEST_F(SnapshotCompatTest, V7RoundTripCarriesValidCrcFooter) {
  Governor gov(plan);
  SquareMatrix tcm(2);
  tcm.at(0, 1) = 42.0;
  const std::vector<std::uint8_t> bytes = encode_snapshot(gov, tcm);

  // The footer is the CRC32 of every preceding byte.
  ASSERT_GT(bytes.size(), 4u);
  std::uint32_t stored = 0;
  std::memcpy(&stored, bytes.data() + bytes.size() - 4, sizeof(stored));
  EXPECT_EQ(stored, crc32(bytes.data(), bytes.size() - 4));

  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  EXPECT_EQ(version, kSnapshotVersion);

  Governor gov2(plan);
  SquareMatrix out;
  EXPECT_TRUE(decode_snapshot(bytes, gov2, out));
  EXPECT_DOUBLE_EQ(out.at(0, 1), 42.0);
  SnapshotInfo info;
  EXPECT_TRUE(parse_snapshot(bytes, info));
  EXPECT_EQ(info.version, kSnapshotVersion);
}

TEST_F(SnapshotCompatTest, NonFiniteMapCellIsRejectedByBothReaders) {
  // A blob whose checksum is valid but whose stored map holds a NaN or inf
  // cell must not warm-start anything: parse_snapshot and decode_snapshot
  // apply the same finiteness rule.
  Governor gov(plan);
  SquareMatrix tcm(2);
  tcm.at(0, 1) = 42.0;
  tcm.at(1, 0) = 42.0;
  const std::vector<std::uint8_t> bytes = encode_snapshot(gov, tcm);
  // Layout tail: ... n*n map doubles (row-major), 4-byte CRC32 footer.
  ASSERT_GT(bytes.size(), 4 + 4 * sizeof(double));
  const std::size_t cell01 = bytes.size() - 4 - 3 * sizeof(double);
  const auto with_cell = [&](double v) {
    std::vector<std::uint8_t> out = bytes;
    std::memcpy(out.data() + cell01, &v, sizeof(v));
    const std::uint32_t crc = crc32(out.data(), out.size() - 4);
    std::memcpy(out.data() + out.size() - 4, &crc, sizeof(crc));
    return out;
  };

  // Control: a finite rewrite with a recomputed footer loads, and the cell
  // lands where the offset says — the probe edits the map, nothing else.
  {
    Governor g(plan);
    SquareMatrix out;
    SnapshotInfo info;
    const std::vector<std::uint8_t> finite = with_cell(7.0);
    EXPECT_TRUE(parse_snapshot(finite, info));
    ASSERT_TRUE(decode_snapshot(finite, g, out));
    EXPECT_DOUBLE_EQ(out.at(0, 1), 7.0);
  }
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    const std::vector<std::uint8_t> blob = with_cell(bad);
    SnapshotInfo info;
    EXPECT_FALSE(parse_snapshot(blob, info)) << bad;
    Governor g(plan);
    SquareMatrix out;
    EXPECT_FALSE(decode_snapshot(blob, g, out)) << bad;
    EXPECT_EQ(out.size(), 0u) << "rejected blob must not touch the map";
  }
}

TEST_F(SnapshotCompatTest, V7LeaseRoundTripsAndRestoresTheGrant) {
  Governor gov(plan);
  Governor::TenantLease lease;
  lease.tenant = 5;
  lease.tier = 2;
  lease.weight = 3.0;
  lease.granted_budget = 0.012;
  lease.fair_share = 0.01;
  lease.floor = 0.0025;
  lease.borrowed_epochs = 9;
  lease.lent_epochs = 1;
  gov.adopt_lease(lease);
  SquareMatrix tcm(2);
  const std::vector<std::uint8_t> bytes = encode_snapshot(gov, tcm);

  Governor gov2(plan);
  SquareMatrix out;
  ASSERT_TRUE(decode_snapshot(bytes, gov2, out));
  ASSERT_TRUE(gov2.lease().has_value());
  const Governor::TenantLease& back = *gov2.lease();
  EXPECT_EQ(back.tenant, 5u);
  EXPECT_EQ(back.tier, 2u);
  EXPECT_DOUBLE_EQ(back.weight, 3.0);
  EXPECT_DOUBLE_EQ(back.granted_budget, 0.012);
  EXPECT_DOUBLE_EQ(back.fair_share, 0.01);
  EXPECT_DOUBLE_EQ(back.floor, 0.0025);
  EXPECT_EQ(back.borrowed_epochs, 9u);
  EXPECT_EQ(back.lent_epochs, 1u);
  // The grant is live again: the recovered tenant resumes under its lease,
  // not the static config budget.
  EXPECT_DOUBLE_EQ(gov2.config().overhead_budget, 0.012);
  // ...and re-encoding is bit-exact.
  EXPECT_EQ(encode_snapshot(gov2, out), bytes);
}

TEST_F(SnapshotCompatTest, CorruptV7LeaseSectionIsRejected) {
  Governor gov(plan);
  SquareMatrix tcm;

  FixtureSpec bad;
  bad.has_lease = 2;  // flag must be 0/1
  EXPECT_TRUE(both_readers_reject(build_fixture(bad), gov));

  bad = FixtureSpec{};
  bad.has_lease = 1;
  bad.lease_weight = 0.0;  // non-positive weight wedges arbitration
  EXPECT_TRUE(both_readers_reject(build_fixture(bad), gov));

  bad = FixtureSpec{};
  bad.has_lease = 1;
  bad.lease_floor = 0.02;  // floor above the grant: never emitted
  bad.lease_granted = 0.01;
  EXPECT_TRUE(both_readers_reject(build_fixture(bad), gov));

  // The matching well-formed lease fixture still loads.
  FixtureSpec good;
  good.has_lease = 1;
  EXPECT_TRUE(decode_snapshot(build_fixture(good), gov, tcm));
  ASSERT_TRUE(gov.lease().has_value());
  EXPECT_EQ(gov.lease()->tenant, 3u);
  EXPECT_DOUBLE_EQ(gov.lease()->granted_budget, 0.015);
}

TEST_F(SnapshotCompatTest, BothReadersRejectUnwrittenValuesAndOtherVersions) {
  // Every blob here carries a valid CRC32 footer, so each reaches the rule
  // it names.  The first eight rules were once decode_snapshot's alone: the
  // offline parser accepted these blobs while restore refused them.
  const std::vector<std::pair<const char*, std::function<void(FixtureSpec&)>>>
      cases = {
          {"max_nominal_gap == 0",
           [](FixtureSpec& s) { s.max_nominal_gap = 0; }},
          {"closed loop in kConverged",
           [](FixtureSpec& s) { s.state = GovernorState::kConverged; }},
          {"legacy one-way in kSentinel",
           [](FixtureSpec& s) { s.mode = GovernorMode::kLegacyOneWay; }},
          {"rated class with a zero gap",
           [](FixtureSpec& s) { s.hot_nominal = 0; }},
          {"copy table padded with an all-zero last row",
           [](FixtureSpec& s) { s.copy_rows = {{5, 9}, {0, 0}}; }},
          {"influence entries without the seen flag",
           [](FixtureSpec& s) { s.influence = {{0, 0.5}}; }},
          {"migration thread >= 2^20",
           [](FixtureSpec& s) {
             s.migrations_executed = 1;
             s.migrations = {{}};
             s.migrations[0].thread = 1u << 20;
           }},
          {"lease floor above its grant",
           [](FixtureSpec& s) {
             s.has_lease = 1;
             s.lease_floor = 0.02;
             s.lease_granted = 0.01;
           }},
      };
  for (const auto& [name, edit] : cases) {
    FixtureSpec spec;
    edit(spec);
    Governor gov(plan);
    EXPECT_TRUE(both_readers_reject(build_fixture(spec), gov)) << name;
  }
  // v7 is the only format: every other version cold-starts.
  for (const std::uint32_t version : {1u, 2u, 3u, 4u, 5u, 6u, 8u}) {
    FixtureSpec spec;
    spec.version = version;
    Governor gov(plan);
    EXPECT_TRUE(both_readers_reject(build_fixture(spec), gov))
        << "version " << version;
  }

  // Controls: the unedited fixture, and each rule's nearest legal value,
  // load under both readers.
  const std::vector<std::function<void(FixtureSpec&)>> controls = {
      [](FixtureSpec&) {},
      [](FixtureSpec& s) { s.max_nominal_gap = 1; },
      [](FixtureSpec& s) { s.state = GovernorState::kAdapting; },
      [](FixtureSpec& s) {
        s.mode = GovernorMode::kLegacyOneWay;
        s.state = GovernorState::kConverged;
      },
      [](FixtureSpec& s) { s.copy_rows = {{5, 9}, {0, 1}}; },
      [](FixtureSpec& s) {
        s.influence_seen = 1;
        s.influence = {{0, 0.5}};
      },
      [](FixtureSpec& s) {
        s.migrations_executed = 1;
        s.migrations = {{}};
        s.migrations[0].thread = (1u << 20) - 1;
      },
      [](FixtureSpec& s) {
        s.has_lease = 1;
        s.lease_floor = 0.01;
        s.lease_granted = 0.01;
      },
  };
  for (std::size_t i = 0; i < controls.size(); ++i) {
    FixtureSpec spec;
    controls[i](spec);
    const std::vector<std::uint8_t> blob = build_fixture(spec);
    SnapshotInfo info;
    EXPECT_TRUE(parse_snapshot(blob, info)) << "control " << i;
    Governor gov(plan);
    SquareMatrix tcm;
    EXPECT_TRUE(decode_snapshot(blob, gov, tcm)) << "control " << i;
  }
}

TEST_F(SnapshotCompatTest, ClassEntriesMustCarryDenseIds) {
  // register_class assigns id = size(), and the encoder writes the registry
  // in id order: entry i names class i, or the blob is corrupt.
  for (const std::uint32_t id : {0u, 2u, 0xFFFFFFFFu}) {
    FixtureSpec spec;
    spec.bulky_id = id;
    Governor gov(plan);
    EXPECT_TRUE(both_readers_reject(build_fixture(spec), gov)) << id;
  }
}

TEST_F(SnapshotCompatTest, RegistryTooSmallIsRejectedByRestoreOnly) {
  // The one registry check restore adds: a snapshot of two classes parses
  // anywhere, but does not load into a world that registered only one,
  // and the refused load leaves that world's governor untouched.
  const std::vector<std::uint8_t> blob = build_fixture(FixtureSpec{});
  SnapshotInfo info;
  ASSERT_TRUE(parse_snapshot(blob, info));
  ASSERT_EQ(info.classes.size(), 2u);

  KlassRegistry reg1;
  Heap heap1(reg1, 2);
  reg1.register_class("Hot", 16);
  SamplingPlan plan1(heap1);
  Governor gov1(plan1);
  gov1.arm(GovernorConfig{});
  SquareMatrix tcm1(3);
  const std::vector<std::uint8_t> before = encode_snapshot(gov1, tcm1);
  EXPECT_FALSE(decode_snapshot(blob, gov1, tcm1));
  EXPECT_EQ(encode_snapshot(gov1, tcm1), before);
}

TEST_F(SnapshotCompatTest, TruncatedOrBitFlippedV6IsRejected) {
  Governor gov(plan);
  SquareMatrix tcm(2);
  const std::vector<std::uint8_t> bytes = encode_snapshot(gov, tcm);
  SnapshotInfo info;

  // Truncation anywhere (even mid-footer) fails the checksum or the size
  // floor before any structural read.
  for (const std::size_t keep : {bytes.size() - 1, bytes.size() - 4,
                                 bytes.size() / 2, std::size_t{9}}) {
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + keep);
    Governor g(plan);
    SquareMatrix out;
    EXPECT_FALSE(decode_snapshot(cut, g, out)) << "kept " << keep;
    EXPECT_FALSE(parse_snapshot(cut, info)) << "kept " << keep;
  }

  // A single flipped bit anywhere in the payload fails the footer check —
  // including in fields a structural parse would happily accept.
  for (const std::size_t at : {std::size_t{12}, bytes.size() / 2, bytes.size() - 5}) {
    std::vector<std::uint8_t> flipped = bytes;
    flipped[at] ^= 0x01;
    Governor g(plan);
    SquareMatrix out;
    EXPECT_FALSE(decode_snapshot(flipped, g, out)) << "flipped byte " << at;
    EXPECT_FALSE(parse_snapshot(flipped, info)) << "flipped byte " << at;
  }
}

TEST_F(SnapshotCompatTest, RecoverSnapshotSkipsCorruptCandidates) {
  const TempDir dir("djvm_recover_");
  const std::string good = dir.file("good.snap");
  const std::string bad_path = dir.file("bad.snap");
  const std::string v6_path = dir.file("v6.snap");
  Governor gov(plan);
  SquareMatrix tcm(2);
  tcm.at(0, 1) = 7.0;
  ASSERT_TRUE(save_snapshot(good, gov, tcm));

  // A corrupt "newest" snapshot: the good bytes with one bit flipped.
  std::vector<std::uint8_t> bad = encode_snapshot(gov, tcm);
  bad[bad.size() / 2] ^= 0x40;
  {
    std::ofstream f(bad_path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(bad.data()),
            static_cast<std::streamsize>(bad.size()));
  }

  // A well-sealed file of another version: v7 is the only format, so it is
  // skipped like any corrupt candidate.
  std::vector<std::uint8_t> v6 = encode_snapshot(gov, tcm);
  const std::uint32_t six = 6;
  std::memcpy(v6.data() + 4, &six, sizeof(six));
  {
    std::ofstream f(v6_path, std::ios::binary);
    const std::vector<std::uint8_t> sealed = resealed(v6);
    f.write(reinterpret_cast<const char*>(sealed.data()),
            static_cast<std::streamsize>(sealed.size()));
  }

  // Recovery walks newest-first: the torn file and the v6 file are
  // skipped, the older valid one loads, and the chosen index is reported.
  Governor gov2(plan);
  SquareMatrix out;
  const auto picked = recover_snapshot(
      {dir.file("missing.snap"), bad_path, v6_path, good}, gov2, out);
  ASSERT_TRUE(picked.has_value());
  EXPECT_EQ(*picked, 3u);
  EXPECT_DOUBLE_EQ(out.at(0, 1), 7.0);

  // No valid candidate at all: recovery reports failure, state untouched.
  Governor gov3(plan);
  SquareMatrix out3;
  EXPECT_FALSE(recover_snapshot({bad_path}, gov3, out3).has_value());
}

TEST_F(SnapshotCompatTest, RecoverTimelineDropsTornFinalLine) {
  const TempDir dir("djvm_recover_");
  const std::string path = dir.file("timeline.jsonl");
  {
    std::ofstream f(path, std::ios::trunc);
    f << "{\"epoch\":0}\n{\"epoch\":1}\n{\"epoch\":2,\"trunc";  // torn tail
  }
  bool torn = false;
  std::vector<std::string> lines = recover_timeline(path, &torn);
  EXPECT_TRUE(torn);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "{\"epoch\":0}");
  EXPECT_EQ(lines[1], "{\"epoch\":1}");

  {
    std::ofstream f(path, std::ios::trunc);
    f << "{\"epoch\":0}\n{\"epoch\":1}\n";
  }
  torn = true;
  lines = recover_timeline(path, &torn);
  EXPECT_FALSE(torn);
  EXPECT_EQ(lines.size(), 2u);
}

}  // namespace
}  // namespace djvm
