// Closed-loop profiling governor: overhead metering, budget-exceeded
// backoff, under-budget tightening, sentinel phase detection, snapshot
// round-trips, plan resampling when gaps flip between full and coarse, and
// how the Djvm pump prices each epoch's sample from its counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "balance/balancer_feedback.hpp"
#include "core/djvm.hpp"
#include "governor/governor.hpp"
#include "governor/snapshot.hpp"
#include "profiling/correlation_daemon.hpp"

#include "ingest_helpers.hpp"
#include "sampling_helpers.hpp"
#include "snapshot_helpers.hpp"

namespace djvm {
namespace {

class GovernorTest : public ::testing::Test {
 protected:
  GovernorTest() : heap(reg, 1), plan(heap) {
    // Two classes: `hot` logs many small entries (poor benefit/cost),
    // `bulky` logs few large ones (good benefit/cost).
    hot = reg.register_class("Hot", 16);
    bulky = reg.register_class("Bulky", 1024);
    for (int i = 0; i < 128; ++i) plan.on_alloc(heap.alloc(hot, 0));
    for (int i = 0; i < 128; ++i) plan.on_alloc(heap.alloc(bulky, 0));
  }

  /// Epoch stats: `hot` contributes many cheap entries, `bulky` few rich
  /// ones, matching what the daemon would accumulate from OAL records.
  void fill_epoch_stats() {
    plan.begin_epoch_stats();
    for (int i = 0; i < 100; ++i) {
      plan.note_epoch_entry(hot, 16, plan.real_gap(hot));
    }
    for (int i = 0; i < 10; ++i) {
      plan.note_epoch_entry(bulky, 1024, plan.real_gap(bulky));
    }
  }

  static OverheadSample sample_with_fraction(double fraction) {
    OverheadSample s;
    s.measured = true;
    s.app_seconds = 1.0;
    s.access_check_seconds = fraction;  // pure CPU cost: fraction == overhead
    return s;
  }

  static GovernorConfig config() {
    GovernorConfig cfg;
    cfg.overhead_budget = 0.02;
    cfg.distance_threshold = 0.05;
    cfg.meter_window = 1;  // react to the current epoch alone in unit tests
    return cfg;
  }

  KlassRegistry reg;
  Heap heap;
  SamplingPlan plan;
  ClassId hot = kInvalidClass;
  ClassId bulky = kInvalidClass;
};

TEST(OverheadMeter, RollingFractionAveragesWindow) {
  OverheadMeter meter({}, 2);
  OverheadSample a;
  a.app_seconds = 1.0;
  a.access_check_seconds = 0.01;
  OverheadSample b;
  b.app_seconds = 1.0;
  b.access_check_seconds = 0.03;
  meter.record(a);
  EXPECT_DOUBLE_EQ(meter.rolling_fraction(), 0.01);
  meter.record(b);
  EXPECT_DOUBLE_EQ(meter.rolling_fraction(), 0.02);
  EXPECT_DOUBLE_EQ(meter.epoch_fraction(), 0.03);
  // Window of 2: a third sample evicts the first.
  meter.record(b);
  EXPECT_DOUBLE_EQ(meter.rolling_fraction(), 0.03);
}

TEST(OverheadMeter, CostModelConvertsCountsToSeconds) {
  OverheadCosts costs;
  costs.seconds_per_resampled_object = 1e-6;
  OverheadMeter meter(costs, 4);
  OverheadSample s;
  s.resampled_objects = 500;
  s.build_seconds = 0.25;  // host-timed coordinator work is never budgeted
  EXPECT_DOUBLE_EQ(meter.profiling_seconds(s), 0.0005);
}

TEST(OverheadMeter, NoAppProgressIsNoSignal) {
  // Cost observed against zero application progress used to read as an
  // infinite fraction; it now carries no signal at all — neither the idle
  // epoch nor its cost may steer the controller.
  OverheadMeter meter({}, 4);
  OverheadSample s;
  s.access_check_seconds = 0.5;
  meter.record(s);
  EXPECT_DOUBLE_EQ(meter.rolling_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(meter.epoch_fraction(), 0.0);

  // A later real epoch is measured on its own, undiluted by the idle one.
  OverheadSample real;
  real.app_seconds = 1.0;
  real.access_check_seconds = 0.02;
  meter.record(real);
  EXPECT_DOUBLE_EQ(meter.rolling_fraction(), 0.02);
}

TEST(OverheadMeter, IdleNodeWithResampleCostIsNotWorstOffender) {
  // Regression: a node with zero app seconds but nonzero profiling cost
  // (e.g. the resampling transient of a backoff it was just handed) used to
  // report +inf and win worst_node(), so the governor backed off a node
  // that ran nothing that epoch.
  OverheadMeter meter({}, 2);
  OverheadSample s;
  s.measured = true;
  s.app_seconds = 1.0;
  s.access_check_seconds = 0.01;
  s.nodes.push_back({0, 1.0, 0.01, 0.0, 0});
  s.nodes.push_back({1, 0.0, 0.0, 0.0, 5000});  // idle, but billed a pass
  meter.record(s);
  EXPECT_DOUBLE_EQ(meter.node_rolling_fraction(1), 0.0);
  EXPECT_DOUBLE_EQ(meter.node_epoch_fraction(1), 0.0);
  ASSERT_TRUE(meter.worst_node().has_value());
  EXPECT_EQ(*meter.worst_node(), 0u);
}

TEST_F(GovernorTest, BudgetExceededBacksOffWorstBenefitCostClass) {
  plan.set_nominal_gap(hot, 8);
  plan.set_nominal_gap(bulky, 8);
  Governor gov(plan);
  gov.arm(config());
  fill_epoch_stats();

  // 10% measured overhead against a 2% budget: shrink to ~1/5 of the entry
  // cost.  `hot` (16 B/entry) coarsens before `bulky` (1 KB/entry).
  const auto out = gov.on_epoch(std::nullopt, sample_with_fraction(0.10));
  EXPECT_EQ(out.action, GovernorAction::kBackOff);
  EXPECT_TRUE(out.rate_changed);
  EXPECT_GT(out.resampled_objects, 0u);
  EXPECT_EQ(plan.nominal_gap(hot), 16u);
  // hot alone halves 100 of 110 entries -> 60 > 110/5 = 22, so bulky
  // doubles too; what matters is the ordering by score held.
  EXPECT_LE(plan.nominal_gap(bulky), 16u);
}

TEST_F(GovernorTest, BackoffPrefersLowInformationEntries) {
  plan.set_nominal_gap(hot, 8);
  plan.set_nominal_gap(bulky, 8);
  Governor gov(plan);
  gov.arm(config());
  fill_epoch_stats();

  // Mild overshoot: only ~27% of entry cost must go; hot's doubling alone
  // (projected -50 of 110 entries) covers it, bulky stays untouched.
  const auto out = gov.on_epoch(std::nullopt, sample_with_fraction(0.0275));
  EXPECT_EQ(out.action, GovernorAction::kBackOff);
  EXPECT_EQ(plan.nominal_gap(hot), 16u);
  EXPECT_EQ(plan.nominal_gap(bulky), 8u);
}

/// Feedback whose share(id) reports exactly the listed values (mass 1).
BalancerFeedback feedback_with_shares(
    std::initializer_list<std::pair<ClassId, double>> shares) {
  BalancerFeedback fb;
  for (const auto& [id, share] : shares) {
    const auto i = static_cast<std::size_t>(id);
    if (fb.influence.size() <= i) {
      fb.influence.resize(i + 1, 0.0);
      fb.mass.resize(i + 1, 0.0);
    }
    fb.influence[i] = share;
    fb.mass[i] = 1.0;
    fb.total_mass += 1.0;
  }
  fb.valid = true;
  return fb;
}

TEST_F(GovernorTest, InfluenceWeightedBackoffShedsWhatTheBalancerIgnores) {
  plan.set_nominal_gap(hot, 8);
  plan.set_nominal_gap(bulky, 8);
  Governor gov(plan);
  gov.arm(config());  // scoring defaults to kInfluenceWeighted

  // Equal entry counts: bytes-per-entry alone would coarsen `hot`
  // (16 B/entry) long before `bulky` (1 KB/entry).  The balancer reports the
  // opposite influence — every hot cell sits on the partition cut, no bulky
  // cell does — so influence weighting inverts the order and sheds exactly
  // the cells the balancer ignores.
  gov.observe_balancer_feedback(
      feedback_with_shares({{hot, 1.0}, {bulky, 0.0}}));
  ASSERT_TRUE(gov.influence_seen());
  EXPECT_DOUBLE_EQ(gov.influence_share(hot), 1.0);

  plan.begin_epoch_stats();
  for (int i = 0; i < 60; ++i) plan.note_epoch_entry(hot, 16, plan.real_gap(hot));
  for (int i = 0; i < 60; ++i) {
    plan.note_epoch_entry(bulky, 1024, plan.real_gap(bulky));
  }
  // Mild overshoot (shrink to ~77% of 120 entries): the first candidate's
  // doubling alone (-30) covers the target.
  const auto out = gov.on_epoch(std::nullopt, sample_with_fraction(0.026));
  EXPECT_EQ(out.action, GovernorAction::kBackOff);
  EXPECT_EQ(plan.nominal_gap(bulky), 16u);  // zero influence: coarsened
  EXPECT_EQ(plan.nominal_gap(hot), 8u);     // on the cut: protected
}

TEST_F(GovernorTest, InfluenceScoringFallsBackToBytesPerEntryBeforeFeedback) {
  plan.set_nominal_gap(hot, 8);
  plan.set_nominal_gap(bulky, 8);
  Governor gov(plan);
  gov.arm(config());
  ASSERT_FALSE(gov.influence_seen());
  fill_epoch_stats();
  const auto out = gov.on_epoch(std::nullopt, sample_with_fraction(0.0275));
  EXPECT_EQ(out.action, GovernorAction::kBackOff);
  EXPECT_EQ(plan.nominal_gap(hot), 16u);   // plain bytes-per-entry order
  EXPECT_EQ(plan.nominal_gap(bulky), 8u);
}

TEST_F(GovernorTest, BytesPerEntryScoringSelectableForAblation) {
  plan.set_nominal_gap(hot, 8);
  plan.set_nominal_gap(bulky, 8);
  Governor gov(plan);
  GovernorConfig cfg = config();
  cfg.scoring = BackoffScoring::kBytesPerEntry;
  gov.arm(cfg);
  // Feedback arrives but the legacy scoring must ignore it.
  gov.observe_balancer_feedback(
      feedback_with_shares({{hot, 1.0}, {bulky, 0.0}}));
  fill_epoch_stats();
  const auto out = gov.on_epoch(std::nullopt, sample_with_fraction(0.0275));
  EXPECT_EQ(out.action, GovernorAction::kBackOff);
  EXPECT_EQ(plan.nominal_gap(hot), 16u);
  EXPECT_EQ(plan.nominal_gap(bulky), 8u);
}

TEST_F(GovernorTest, InfluenceDecayRemembersAcrossEpochs) {
  Governor gov(plan);
  GovernorConfig cfg = config();
  cfg.influence_decay = 0.5;
  gov.arm(cfg);

  // First observation seeds the table outright (no halving against a zero
  // prior); later ones fold in under the decay.
  gov.observe_balancer_feedback(feedback_with_shares({{hot, 1.0}}));
  EXPECT_DOUBLE_EQ(gov.influence_share(hot), 1.0);
  gov.observe_balancer_feedback(feedback_with_shares({{hot, 0.0}}));
  EXPECT_DOUBLE_EQ(gov.influence_share(hot), 0.5);
  gov.observe_balancer_feedback(feedback_with_shares({{hot, 0.0}}));
  EXPECT_DOUBLE_EQ(gov.influence_share(hot), 0.25);

  // An invalid (empty) epoch is no evidence: the table must not decay.
  gov.observe_balancer_feedback(BalancerFeedback{});
  EXPECT_DOUBLE_EQ(gov.influence_share(hot), 0.25);

  // A feedback epoch that no longer covers the class decays it toward zero.
  gov.observe_balancer_feedback(feedback_with_shares({{bulky, 1.0}}));
  EXPECT_DOUBLE_EQ(gov.influence_share(hot), 0.125);

  // Re-arming wipes the learned influence with the rest of the progress.
  gov.arm(cfg);
  EXPECT_FALSE(gov.influence_seen());
  EXPECT_DOUBLE_EQ(gov.influence_share(hot), 0.0);
}

TEST_F(GovernorTest, SnapshotV4RoundTripsInfluenceTable) {
  plan.set_nominal_gap(hot, 16);
  plan.set_nominal_gap(bulky, 128);
  plan.resample_all();
  Governor gov(plan);
  gov.arm(config());
  gov.observe_balancer_feedback(
      feedback_with_shares({{hot, 0.75}, {bulky, 0.0}}));

  SquareMatrix tcm(2);
  tcm.at(0, 1) = 1.5;
  const std::vector<std::uint8_t> bytes = encode_snapshot(gov, tcm);

  KlassRegistry reg2;
  Heap heap2(reg2, 1);
  reg2.register_class("Hot", 16);
  reg2.register_class("Bulky", 1024);
  for (int i = 0; i < 8; ++i) heap2.alloc(0, 0);
  SamplingPlan plan2(heap2);
  Governor gov2(plan2);
  SquareMatrix tcm2;
  ASSERT_TRUE(decode_snapshot(bytes, gov2, tcm2));
  EXPECT_TRUE(gov2.influence_seen());
  EXPECT_DOUBLE_EQ(gov2.influence_share(hot), 0.75);
  EXPECT_DOUBLE_EQ(gov2.influence_share(bulky), 0.0);  // trimmed, restored 0
  EXPECT_EQ(gov2.config().scoring, BackoffScoring::kInfluenceWeighted);
  EXPECT_EQ(encode_snapshot(gov2, tcm2), bytes);  // bit-exact
}

// --- migration execution history --------------------------------------------

TEST_F(GovernorTest, RecordMigrationTracksHistoryAndCounter) {
  Governor gov(plan);
  for (std::uint64_t i = 0; i < Governor::kMigrationHistoryCap + 10; ++i) {
    Governor::ExecutedMigration m;
    m.thread = static_cast<ThreadId>(i % 7);
    m.from = 0;
    m.to = 1;
    m.gain_bytes = static_cast<double>(i + 1);
    gov.record_migration(m);
  }
  EXPECT_EQ(gov.migrations_executed(), Governor::kMigrationHistoryCap + 10);
  ASSERT_EQ(gov.migration_history().size(), Governor::kMigrationHistoryCap);
  // Oldest entries aged out; the newest survive.
  EXPECT_DOUBLE_EQ(gov.migration_history().front().gain_bytes, 11.0);
  EXPECT_DOUBLE_EQ(gov.migration_history().back().gain_bytes,
                   static_cast<double>(Governor::kMigrationHistoryCap + 10));
}

TEST_F(GovernorTest, CooldownTracksGovernorEpochs) {
  Governor gov(plan);
  gov.arm(config());
  fill_epoch_stats();
  gov.on_epoch(std::nullopt, sample_with_fraction(0.001));  // epochs_seen 1
  Governor::ExecutedMigration m;
  m.epoch = 1;
  m.thread = 0;
  m.from = 0;
  m.to = 1;
  m.gain_bytes = 1.0;
  gov.record_migration(m);
  EXPECT_TRUE(gov.in_cooldown(0, 2));
  EXPECT_FALSE(gov.in_cooldown(0, 0));  // cooldown disabled
  EXPECT_FALSE(gov.in_cooldown(1, 2));  // never migrated
  fill_epoch_stats();
  gov.on_epoch(0.5, sample_with_fraction(0.001));  // epochs_seen 2
  EXPECT_TRUE(gov.in_cooldown(0, 2));
  fill_epoch_stats();
  gov.on_epoch(0.5, sample_with_fraction(0.001));  // epochs_seen 3: 3-1 >= 2
  EXPECT_FALSE(gov.in_cooldown(0, 2));
}

TEST_F(GovernorTest, AllowMigrationWorkFollowsBackoffBand) {
  Governor gov(plan);
  EXPECT_TRUE(gov.allow_migration_work());  // disarmed never vetoes
  gov.arm(config());  // budget 2%, hysteresis 25% -> band top 2.5%
  fill_epoch_stats();
  gov.on_epoch(std::nullopt, sample_with_fraction(0.001));
  EXPECT_TRUE(gov.allow_migration_work());
  fill_epoch_stats();
  gov.on_epoch(0.5, sample_with_fraction(0.10));  // far over the band
  EXPECT_FALSE(gov.allow_migration_work());
  fill_epoch_stats();
  gov.on_epoch(0.5, sample_with_fraction(0.001));  // recovered
  EXPECT_TRUE(gov.allow_migration_work());
}

TEST_F(GovernorTest, SnapshotV5RoundTripsMigrationHistory) {
  plan.set_nominal_gap(hot, 16);
  plan.resample_all();
  Governor gov(plan);
  gov.arm(config());
  fill_epoch_stats();
  gov.on_epoch(std::nullopt, sample_with_fraction(0.001));
  fill_epoch_stats();
  gov.on_epoch(0.5, sample_with_fraction(0.001));  // epochs_seen == 2
  Governor::ExecutedMigration m;
  m.epoch = 1;
  m.thread = 3;
  m.from = 0;
  m.to = 1;
  m.gain_bytes = 4096.0;
  m.sim_cost_seconds = 1e-4;
  m.prefetched_bytes = 2048;
  gov.record_migration(m);
  Governor::ExecutedMigration m2 = m;
  m2.epoch = 2;
  m2.thread = 5;
  m2.to = 2;
  m2.gain_bytes = 512.0;
  gov.record_migration(m2);

  SquareMatrix tcm(2);
  tcm.at(0, 1) = 1.5;
  const std::vector<std::uint8_t> bytes = encode_snapshot(gov, tcm);

  KlassRegistry reg2;
  Heap heap2(reg2, 1);
  reg2.register_class("Hot", 16);
  reg2.register_class("Bulky", 1024);
  SamplingPlan plan2(heap2);
  Governor gov2(plan2);
  SquareMatrix tcm2;
  ASSERT_TRUE(decode_snapshot(bytes, gov2, tcm2));
  EXPECT_EQ(gov2.migrations_executed(), 2u);
  ASSERT_EQ(gov2.migration_history().size(), 2u);
  EXPECT_EQ(gov2.migration_history()[0].thread, 3u);
  EXPECT_EQ(gov2.migration_history()[0].from, 0);
  EXPECT_EQ(gov2.migration_history()[0].to, 1);
  EXPECT_DOUBLE_EQ(gov2.migration_history()[0].gain_bytes, 4096.0);
  EXPECT_EQ(gov2.migration_history()[1].epoch, 2u);
  EXPECT_EQ(gov2.migration_history()[1].prefetched_bytes, 2048u);
  // Cooldown stamps rebuilt from the history on load.
  EXPECT_TRUE(gov2.in_cooldown(5, 4));
  EXPECT_TRUE(gov2.in_cooldown(3, 4));
  EXPECT_FALSE(gov2.in_cooldown(4, 4));
  EXPECT_EQ(encode_snapshot(gov2, tcm2), bytes);  // bit-exact
}

TEST_F(GovernorTest, SnapshotV5RejectsCorruptMigrationSection) {
  Governor gov(plan);
  gov.arm(config());
  fill_epoch_stats();
  gov.on_epoch(std::nullopt, sample_with_fraction(0.001));
  Governor::ExecutedMigration m;
  m.epoch = 1;
  m.thread = 2;
  m.from = 0;
  m.to = 1;
  m.gain_bytes = 123456789.0;  // unique, locatable byte pattern
  gov.record_migration(m);
  SquareMatrix tcm(2);
  const std::vector<std::uint8_t> good = encode_snapshot(gov, tcm);

  // Locate the entry via its gain field; the fixed layout before it is
  // u64 epoch + u32 thread + u16 from + u16 to = 16 bytes.
  std::uint8_t pat[8];
  std::memcpy(pat, &m.gain_bytes, sizeof pat);
  const auto it = std::search(good.begin(), good.end(), pat, pat + 8);
  ASSERT_NE(it, good.end());
  const auto gain_pos = static_cast<std::size_t>(it - good.begin());
  ASSERT_GE(gain_pos, 20u);
  const std::size_t entry = gain_pos - 16;

  const auto rejects = [&](const std::vector<std::uint8_t>& bytes) {
    KlassRegistry r2;
    Heap h2(r2, 1);
    r2.register_class("Hot", 16);
    r2.register_class("Bulky", 1024);
    SamplingPlan p2(h2);
    Governor g2(p2);
    return both_readers_reject(bytes, g2);
  };

  // Field rules: each mutant is re-sealed, so it reaches the rule it names
  // instead of failing the checksum.
  {
    std::vector<std::uint8_t> bad = good;  // self-move: to := from
    std::memcpy(&bad[entry + 14], &bad[entry + 12], 2);
    EXPECT_TRUE(rejects(resealed(bad)));
  }
  {
    std::vector<std::uint8_t> bad = good;  // non-positive gain
    const double neg = -1.0;
    std::memcpy(&bad[gain_pos], &neg, sizeof neg);
    EXPECT_TRUE(rejects(resealed(bad)));
  }
  {
    std::vector<std::uint8_t> bad = good;  // count field past the cap
    const std::uint32_t huge = 0xFFFFFFFFu;
    std::memcpy(&bad[entry - 4], &huge, sizeof huge);
    EXPECT_TRUE(rejects(resealed(bad)));
  }
  {
    std::vector<std::uint8_t> bad = good;  // truncated mid-entry: checksum
    bad.resize(entry + 8);
    EXPECT_TRUE(rejects(bad));
  }
  // The uncorrupted bytes still decode (the helpers above really exercised
  // the validation, not some earlier section).
  KlassRegistry r2;
  Heap h2(r2, 1);
  r2.register_class("Hot", 16);
  r2.register_class("Bulky", 1024);
  SamplingPlan p2(h2);
  Governor g2(p2);
  SquareMatrix t2;
  EXPECT_TRUE(decode_snapshot(good, g2, t2));
}

TEST_F(GovernorTest, FixedCostsDoNotDriveRunawayBackoff) {
  plan.set_nominal_gap(hot, 8);
  plan.set_nominal_gap(bulky, 8);
  Governor gov(plan);
  gov.arm(config());
  fill_epoch_stats();

  // 10% overhead, but almost all of it rate-independent (stack-sampling
  // timers): coarsening cannot restore the budget, so the governor must
  // not chase it by destroying the sampling rates.
  OverheadSample s;
  s.measured = true;
  s.app_seconds = 1.0;
  s.fixed_seconds = 0.10;
  s.access_check_seconds = 0.001;  // reducible share under the 10%-of-budget floor
  const auto out = gov.on_epoch(std::nullopt, s);
  EXPECT_NE(out.action, GovernorAction::kBackOff);
  EXPECT_EQ(plan.nominal_gap(hot), 8u);
  EXPECT_EQ(plan.nominal_gap(bulky), 8u);
}

TEST_F(GovernorTest, UnderBudgetAndMovingMapTightens) {
  plan.set_nominal_gap(hot, 64);
  plan.set_nominal_gap(bulky, 64);
  Governor gov(plan);
  gov.arm(config());
  fill_epoch_stats();

  const auto out = gov.on_epoch(0.50, sample_with_fraction(0.001));
  EXPECT_EQ(out.action, GovernorAction::kTighten);
  EXPECT_TRUE(out.rate_changed);
  EXPECT_EQ(plan.nominal_gap(hot), 32u);
  EXPECT_EQ(plan.nominal_gap(bulky), 32u);
  EXPECT_FALSE(gov.converged());
}

TEST_F(GovernorTest, InsideDeadBandHoldsRates) {
  plan.set_nominal_gap(hot, 64);
  Governor gov(plan);
  gov.arm(config());  // budget 2%, hysteresis 25% -> dead band [1.5%, 2.5%]
  fill_epoch_stats();

  const auto out = gov.on_epoch(0.50, sample_with_fraction(0.02));
  EXPECT_EQ(out.action, GovernorAction::kNone);
  EXPECT_EQ(plan.nominal_gap(hot), 64u);
}

TEST_F(GovernorTest, UnmeasuredSampleSuspendsBudgetEnforcement) {
  plan.set_nominal_gap(hot, 64);
  plan.set_nominal_gap(bulky, 64);
  Governor gov(plan);
  gov.arm(config());
  fill_epoch_stats();

  // Standalone daemon use: no pump hook measured app time.  The meter
  // reads +inf, but the budget must not drive a runaway back-off; the
  // distance-driven loop proceeds as if under budget.
  OverheadSample s;  // measured = false
  const auto out = gov.on_epoch(0.50, s);
  EXPECT_EQ(out.action, GovernorAction::kTighten);
  EXPECT_EQ(plan.nominal_gap(hot), 32u);
}

TEST_F(GovernorTest, TransientSpikeBacksOffOnlyOnce) {
  plan.set_nominal_gap(hot, 8);
  plan.set_nominal_gap(bulky, 8);
  Governor gov(plan);
  GovernorConfig cfg = config();
  cfg.meter_window = 4;  // rolling window lags the spike by 3 epochs
  gov.arm(cfg);

  fill_epoch_stats();
  auto out = gov.on_epoch(0.50, sample_with_fraction(1.0));  // the spike
  EXPECT_EQ(out.action, GovernorAction::kBackOff);
  const std::uint32_t hot_after_spike = plan.nominal_gap(hot);

  // Cheap epochs that keep the *rolling* fraction above the bound because
  // the spike is still in the window: no repeated back-off.
  for (int i = 0; i < 3; ++i) {
    fill_epoch_stats();
    out = gov.on_epoch(0.50, sample_with_fraction(0.001));
    EXPECT_NE(out.action, GovernorAction::kBackOff) << "epoch " << i;
  }
  EXPECT_EQ(plan.nominal_gap(hot), hot_after_spike);
}

TEST_F(GovernorTest, ConvergenceEntersSentinelAtCoarserRate) {
  plan.set_nominal_gap(hot, 16);
  plan.set_nominal_gap(bulky, 16);
  Governor gov(plan);
  gov.arm(config());
  fill_epoch_stats();

  // A class registered but never rated/allocated must be left alone: its
  // first allocation still inherits the cluster default rate.
  const ClassId lazy = reg.register_class("Lazy", 32);

  const auto out = gov.on_epoch(0.01, sample_with_fraction(0.001));
  EXPECT_EQ(out.action, GovernorAction::kConverge);
  EXPECT_EQ(gov.state(), GovernorState::kSentinel);
  EXPECT_TRUE(gov.converged());
  // Sentinel coarsens by 2 doublings (4x) but remembers the converged gaps.
  EXPECT_EQ(plan.nominal_gap(hot), 64u);
  EXPECT_EQ(gov.converged_gaps()[hot], 16u);
  EXPECT_FALSE(reg.at(lazy).sampling.initialized);
  EXPECT_EQ(gov.converged_gaps()[lazy], 0u);  // 0 = not captured
}

TEST_F(GovernorTest, PhaseChangeSpikeRearmsAfterConvergence) {
  plan.set_nominal_gap(hot, 16);
  plan.set_nominal_gap(bulky, 16);
  Governor gov(plan);
  gov.arm(config());
  fill_epoch_stats();

  gov.on_epoch(0.01, sample_with_fraction(0.001));  // converge -> sentinel
  ASSERT_EQ(gov.state(), GovernorState::kSentinel);

  // Grace epoch: the sentinel's own rate change moves the map once; that
  // must not read as a phase change.
  auto out = gov.on_epoch(1.0, sample_with_fraction(0.001));
  EXPECT_EQ(out.action, GovernorAction::kNone);
  EXPECT_EQ(gov.state(), GovernorState::kSentinel);

  // Small drift stays in sentinel (spike threshold is 3 x 0.05).
  out = gov.on_epoch(0.10, sample_with_fraction(0.001));
  EXPECT_EQ(out.action, GovernorAction::kNone);

  // A real spike restores the converged gaps and re-arms adaptation.
  out = gov.on_epoch(0.60, sample_with_fraction(0.001));
  EXPECT_EQ(out.action, GovernorAction::kRearm);
  EXPECT_EQ(gov.state(), GovernorState::kAdapting);
  EXPECT_FALSE(gov.converged());
  EXPECT_EQ(gov.rearms(), 1u);
  EXPECT_EQ(plan.nominal_gap(hot), 16u);
  EXPECT_EQ(plan.nominal_gap(bulky), 16u);
}

TEST_F(GovernorTest, LegacyModeMatchesSeedOneWayLoop) {
  plan.set_nominal_gap(hot, 64);
  plan.set_nominal_gap(bulky, 64);
  Governor gov(plan);
  gov.arm(djvm::GovernorConfig::legacy(0.05));

  // Above threshold: tighten everything, regardless of overhead.
  auto out = gov.on_epoch(0.50, sample_with_fraction(10.0));
  EXPECT_EQ(out.action, GovernorAction::kTighten);
  EXPECT_EQ(plan.nominal_gap(hot), 32u);
  EXPECT_FALSE(gov.converged());

  // Below threshold: freeze forever (the bug the closed loop fixes).
  out = gov.on_epoch(0.01, sample_with_fraction(10.0));
  EXPECT_EQ(out.action, GovernorAction::kConverge);
  EXPECT_EQ(gov.state(), GovernorState::kConverged);
  out = gov.on_epoch(0.90, sample_with_fraction(10.0));  // phase change...
  EXPECT_EQ(out.action, GovernorAction::kNone);          // ...ignored
  EXPECT_EQ(plan.nominal_gap(hot), 32u);
}

TEST_F(GovernorTest, SamplingPlanResamplesOnFullToCoarseFlip) {
  plan.set_nominal_gap(hot, 1);
  plan.resample_all();
  const std::uint64_t full_count = count_sampled(plan);

  // Flip hot from full sampling to a coarse gap, as a backoff would.
  plan.set_nominal_gap(hot, 32);
  const std::size_t visited = plan.resample_classes({hot});
  EXPECT_EQ(visited, 128u);  // every hot object re-evaluated
  const std::uint64_t coarse_count = count_sampled(plan);
  EXPECT_LT(coarse_count, full_count);

  // And back to full sampling: every object sampled again.
  plan.set_nominal_gap(hot, 1);
  plan.resample_classes({hot});
  EXPECT_EQ(count_sampled(plan), full_count);
}

TEST_F(GovernorTest, SnapshotRoundTripsBitExactly) {
  plan.set_nominal_gap(hot, 16);
  plan.set_nominal_gap(bulky, 128);
  Governor gov(plan);
  gov.arm(config());
  fill_epoch_stats();
  gov.on_epoch(0.01, sample_with_fraction(0.001));  // converge -> sentinel
  ASSERT_TRUE(gov.converged());

  SquareMatrix tcm(4);
  tcm.at(0, 1) = 123.456;
  tcm.at(1, 0) = 123.456;
  tcm.at(2, 3) = 0.125;
  const std::vector<std::uint8_t> bytes = encode_snapshot(gov, tcm);

  // Fresh world: same registry shape, cold gaps, cold governor.
  KlassRegistry reg2;
  Heap heap2(reg2, 1);
  const ClassId hot2 = reg2.register_class("Hot", 16);
  const ClassId bulky2 = reg2.register_class("Bulky", 1024);
  SamplingPlan plan2(heap2);
  Governor gov2(plan2);
  SquareMatrix tcm2;
  ASSERT_TRUE(decode_snapshot(bytes, gov2, tcm2));

  EXPECT_EQ(plan2.nominal_gap(hot2), plan.nominal_gap(hot));
  EXPECT_EQ(plan2.nominal_gap(bulky2), plan.nominal_gap(bulky));
  EXPECT_EQ(plan2.real_gap(hot2), plan.real_gap(hot));
  EXPECT_EQ(plan2.real_gap(bulky2), plan.real_gap(bulky));
  EXPECT_EQ(gov2.state(), gov.state());
  EXPECT_EQ(gov2.converged(), gov.converged());
  EXPECT_EQ(gov2.converged_gaps(), gov.converged_gaps());
  EXPECT_EQ(tcm2, tcm);

  // Bit-exact: re-encoding the restored state reproduces the same bytes.
  EXPECT_EQ(encode_snapshot(gov2, tcm2), bytes);
}

TEST_F(GovernorTest, SnapshotRejectsCorruptInput) {
  Governor gov(plan);
  gov.arm(config());  // mode kClosedLoop, state kAdapting
  SquareMatrix tcm(2);
  std::vector<std::uint8_t> bytes = encode_snapshot(gov, tcm);

  Governor gov2(plan);
  SquareMatrix out;
  std::vector<std::uint8_t> bad = bytes;
  bad[0] ^= 0xFF;  // magic
  EXPECT_TRUE(both_readers_reject(bad, gov2));
  bad = bytes;
  bad.resize(bytes.size() - 1);  // truncation: fails the checksum
  EXPECT_TRUE(both_readers_reject(bad, gov2));
  bad = bytes;
  bad.push_back(0);  // trailing garbage: fails the checksum
  EXPECT_TRUE(both_readers_reject(bad, gov2));

  // Field rules: each mutant below is re-sealed, so it reaches the rule it
  // names instead of failing the checksum.
  bad = bytes;
  // Corrupt class_count (offset 76: magic+version+mode/state/flags/pad
  // +5 doubles+2 u32 counters+2 u64 counters) to a huge value: must be
  // rejected before it sizes an allocation.
  for (std::size_t i = 76; i < 80; ++i) bad[i] = 0xFF;
  EXPECT_TRUE(both_readers_reject(resealed(bad), gov2));
  bad = bytes;
  // Corrupt the overhead budget (offset 12, first config double) into a
  // NaN: config corruption must be rejected, not installed.
  for (std::size_t i = 12; i < 20; ++i) bad[i] = 0xFF;
  EXPECT_TRUE(both_readers_reject(resealed(bad), gov2));
  bad = bytes;
  // Inconsistent mode/state pair: closed loop never produces kConverged
  // (state byte is offset 9, after magic+version+mode).
  bad[9] = static_cast<std::uint8_t>(GovernorState::kConverged);
  EXPECT_TRUE(both_readers_reject(resealed(bad), gov2));
  bad = bytes;
  // Unknown per-node flag bits (offset 10) are corruption, not features.
  bad[10] = 0xF0;
  EXPECT_TRUE(both_readers_reject(resealed(bad), gov2));
  bad = bytes;
  // Corrupt the shift-node count (offset 80 after the class_count u32, plus
  // 2 classes x 20 bytes = 120) to a huge value: must be rejected before it
  // sizes the shift table.
  for (std::size_t i = 120; i < 124; ++i) bad[i] = 0xFF;
  EXPECT_TRUE(both_readers_reject(resealed(bad), gov2));
  EXPECT_TRUE(decode_snapshot(bytes, gov2, out));
}

TEST_F(GovernorTest, SnapshotFileRoundTrip) {
  plan.set_nominal_gap(hot, 16);
  Governor gov(plan);
  gov.arm(config());
  SquareMatrix tcm(2);
  tcm.at(0, 1) = 42.0;

  const std::string path = ::testing::TempDir() + "governor_snapshot.bin";
  ASSERT_TRUE(save_snapshot(path, gov, tcm));
  Governor gov2(plan);
  SquareMatrix tcm2;
  ASSERT_TRUE(load_snapshot(path, gov2, tcm2));
  EXPECT_EQ(tcm2, tcm);
  EXPECT_EQ(gov2.state(), gov.state());
  std::remove(path.c_str());
}

TEST_F(GovernorTest, DaemonDelegatesToGovernorAndWarmStarts) {
  plan.set_nominal_gap(hot, 16);
  plan.set_nominal_gap(bulky, 16);
  ArenaFeeder feeder;
  CorrelationDaemon daemon(plan, 2);
  GovernorConfig cfg = config();
  daemon.governor().arm(cfg);

  auto rec = [&](ThreadId t, ObjectId o) {
    return interval_log(t, {{o, hot, 16, plan.real_gap(hot)}});
  };
  // Two identical epochs with app progress: distance 0 -> converge.
  for (int epoch = 0; epoch < 2; ++epoch) {
    std::vector<OalArena> rs;
    rs.push_back(rec(0, 1));
    rs.push_back(rec(1, 1));
    feeder.feed(daemon, std::move(rs));
    OverheadSample s;
    s.measured = true;
    s.app_seconds = 1.0;
    const EpochResult e = daemon.run_epoch(s);
    EXPECT_DOUBLE_EQ(e.overhead_fraction,
                     daemon.governor().meter().rolling_fraction());
  }
  EXPECT_TRUE(daemon.converged());
  EXPECT_EQ(daemon.governor().state(), GovernorState::kSentinel);

  // Snapshot, then warm-start a fresh daemon: it resumes in sentinel with
  // the converged map seeded, skipping the convergence ramp entirely.
  const std::vector<std::uint8_t> bytes =
      encode_snapshot(daemon.governor(), daemon.latest());
  CorrelationDaemon daemon2(plan, 2);
  SquareMatrix warm_tcm;
  ASSERT_TRUE(decode_snapshot(bytes, daemon2.governor(), warm_tcm));
  ASSERT_TRUE(daemon2.seed_latest(warm_tcm));
  EXPECT_TRUE(daemon2.converged());
  EXPECT_EQ(daemon2.latest(), daemon.latest());

  // A daemon of a different cluster size must reject the warm-start map
  // instead of comparing against a mismatched matrix later.
  CorrelationDaemon daemon3(plan, 4);
  EXPECT_FALSE(daemon3.seed_latest(warm_tcm));
}

// --- per-node overhead budgets ------------------------------------------------

TEST(OverheadMeterPerNode, TracksPerNodeWindowsAndWorstOffender) {
  OverheadMeter meter({}, 2);
  OverheadSample s;
  s.measured = true;
  s.app_seconds = 2.0;
  s.access_check_seconds = 0.05;
  s.nodes.push_back({0, 1.0, 0.001, 0.0, 0});
  s.nodes.push_back({1, 1.0, 0.10, 0.0, 0});
  meter.record(s);
  EXPECT_EQ(meter.node_count(), 2u);
  EXPECT_DOUBLE_EQ(meter.node_rolling_fraction(0), 0.001);
  EXPECT_DOUBLE_EQ(meter.node_rolling_fraction(1), 0.10);
  ASSERT_TRUE(meter.worst_node().has_value());
  EXPECT_EQ(*meter.worst_node(), 1u);

  // A node absent from the next sample contributes a zero slot, keeping the
  // windows epoch-aligned (its rolling fraction halves, not sticks).
  OverheadSample s2;
  s2.measured = true;
  s2.app_seconds = 1.0;
  s2.nodes.push_back({0, 1.0, 0.003, 0.0, 0});
  meter.record(s2);
  EXPECT_DOUBLE_EQ(meter.node_rolling_fraction(0), 0.004 / 2.0);
  EXPECT_DOUBLE_EQ(meter.node_epoch_fraction(1), 0.0);
  EXPECT_DOUBLE_EQ(meter.node_rolling_fraction(1), 0.10 / 1.0);

  // Unknown nodes in the meter read as zero overhead, not UB.
  EXPECT_DOUBLE_EQ(meter.node_rolling_fraction(7), 0.0);
}

/// Two worker nodes; the hot class lives on node 1, the bulky class on
/// node 0, so per-node decisions are observable through home attribution.
class PerNodeGovernorTest : public ::testing::Test {
 protected:
  PerNodeGovernorTest() : heap(reg, 2), plan(heap) {
    hot = reg.register_class("Hot", 16);
    bulky = reg.register_class("Bulky", 1024);
    for (int i = 0; i < 128; ++i) plan.on_alloc(heap.alloc(hot, 1));
    for (int i = 0; i < 128; ++i) plan.on_alloc(heap.alloc(bulky, 0));
  }

  /// Node 1 logs many cheap hot entries, node 0 a few rich bulky ones.
  void fill_epoch_stats() {
    plan.begin_epoch_stats();
    for (int i = 0; i < 100; ++i) {
      plan.note_epoch_entry(hot, 16, plan.effective_real_gap(1, hot));
      plan.note_epoch_node_entry(1, hot, 16, plan.effective_real_gap(1, hot));
    }
    for (int i = 0; i < 10; ++i) {
      plan.note_epoch_entry(bulky, 1024, plan.effective_real_gap(0, bulky));
      plan.note_epoch_node_entry(0, bulky, 1024, plan.effective_real_gap(0, bulky));
    }
  }

  /// Cluster aggregate diluted by node 0's app time: node 1 runs at
  /// `hot_fraction` while the cluster average stays low.
  static OverheadSample skewed_sample(double hot_fraction) {
    OverheadSample s;
    s.measured = true;
    s.app_seconds = 11.0;
    s.access_check_seconds = 0.001 + hot_fraction;
    s.nodes.push_back({0, 10.0, 0.001, 0.0, 0});
    s.nodes.push_back({1, 1.0, hot_fraction, 0.0, 0});
    return s;
  }

  static GovernorConfig config(bool per_node) {
    GovernorConfig cfg;
    cfg.overhead_budget = 0.02;
    cfg.distance_threshold = 0.05;
    cfg.meter_window = 1;
    cfg.per_node = per_node;
    return cfg;
  }

  KlassRegistry reg;
  Heap heap;
  SamplingPlan plan;
  ClassId hot = kInvalidClass;
  ClassId bulky = kInvalidClass;
};

TEST_F(PerNodeGovernorTest, EffectiveGapsFollowNodeShift) {
  plan.set_nominal_gap(hot, 8);
  plan.resample_all();
  const std::uint64_t before = count_sampled(plan);

  plan.set_node_gap_shift(1, hot, 2);  // node 1: 8 << 2 = 32, prime 31
  EXPECT_EQ(plan.effective_nominal_gap(1, hot), 32u);
  EXPECT_EQ(plan.effective_real_gap(1, hot), 31u);
  EXPECT_EQ(plan.effective_nominal_gap(0, hot), 8u);   // other node untouched
  EXPECT_EQ(plan.nominal_gap(hot), 8u);                // cluster view untouched

  // No copy view registered: the walk degenerates to node 1's homed objects.
  const std::size_t visited = plan.resample_classes_on_node(1, {hot});
  EXPECT_EQ(visited, 128u);  // only node 1's copies re-evaluated
  // The shift coarsens node 1's *own* copies; the cluster view (what every
  // unshifted node samples under) is untouched.
  EXPECT_LT(count_sampled(plan, 1), before);
  EXPECT_EQ(count_sampled(plan), before);
  EXPECT_EQ(count_sampled(plan, 0), before);

  // Base-gap changes propagate through the shift.
  plan.set_nominal_gap(hot, 16);
  EXPECT_EQ(plan.effective_nominal_gap(1, hot), 64u);
  EXPECT_EQ(plan.effective_real_gap(1, hot), 67u);

  plan.set_node_gap_shift(1, hot, 0);
  EXPECT_EQ(plan.effective_real_gap(1, hot), plan.real_gap(hot));
}

TEST_F(PerNodeGovernorTest, WorstNodeBackoffHitsOnlyThatNodesClasses) {
  plan.set_nominal_gap(hot, 8);
  plan.set_nominal_gap(bulky, 8);
  Governor gov(plan);
  gov.arm(config(/*per_node=*/true));
  fill_epoch_stats();

  // Node 1 at 10% of its own app time; the cluster aggregate (~0.9%) is
  // under the band, so the PR 1 policy would do nothing here.
  const auto out = gov.on_epoch(std::nullopt, skewed_sample(0.10));
  EXPECT_EQ(out.action, GovernorAction::kBackOff);
  EXPECT_TRUE(out.rate_changed);
  ASSERT_TRUE(out.offender.has_value());
  EXPECT_EQ(*out.offender, 1u);
  EXPECT_GE(plan.node_gap_shift(1, hot), 1u);
  EXPECT_EQ(plan.node_gap_shift(0, hot), 0u);
  EXPECT_EQ(plan.node_gap_shift(0, bulky), 0u);
  EXPECT_EQ(plan.nominal_gap(hot), 8u);    // cluster base gaps untouched
  EXPECT_EQ(plan.nominal_gap(bulky), 8u);
}

TEST_F(PerNodeGovernorTest, ClusterPolicyIgnoresHiddenHotNode) {
  plan.set_nominal_gap(hot, 8);
  plan.set_nominal_gap(bulky, 8);
  Governor gov(plan);
  gov.arm(config(/*per_node=*/false));
  fill_epoch_stats();

  // Same skew: the cluster-aggregate policy sees ~0.9% < budget and holds,
  // leaving node 1 at 10x its budget — the exact gap this PR closes.
  const auto out = gov.on_epoch(std::nullopt, skewed_sample(0.10));
  EXPECT_EQ(out.action, GovernorAction::kNone);
  EXPECT_EQ(plan.node_gap_shift(1, hot), 0u);
  ASSERT_TRUE(out.offender.has_value());  // ...but the offender stays visible
  EXPECT_EQ(*out.offender, 1u);
  EXPECT_GT(out.offender_fraction, 0.05);
}

TEST_F(PerNodeGovernorTest, BackoffSettlesOneEpochBeforeReacting) {
  plan.set_nominal_gap(hot, 8);
  plan.set_nominal_gap(bulky, 8);
  Governor gov(plan);
  gov.arm(config(/*per_node=*/true));

  fill_epoch_stats();
  auto out = gov.on_epoch(std::nullopt, skewed_sample(0.10));
  ASSERT_EQ(out.action, GovernorAction::kBackOff);
  const std::uint32_t shift_after_first = plan.node_gap_shift(1, hot);

  // The epoch right after a per-node backoff carries the resampling
  // transient; the controller must not actuate against its own transition
  // cost.
  fill_epoch_stats();
  out = gov.on_epoch(std::nullopt, skewed_sample(0.10));
  EXPECT_NE(out.action, GovernorAction::kBackOff);
  EXPECT_EQ(plan.node_gap_shift(1, hot), shift_after_first);

  // Still hot one epoch later: actuate again.
  fill_epoch_stats();
  out = gov.on_epoch(std::nullopt, skewed_sample(0.10));
  EXPECT_EQ(out.action, GovernorAction::kBackOff);
  EXPECT_GT(plan.node_gap_shift(1, hot), shift_after_first);
}

TEST_F(PerNodeGovernorTest, TightenRequiresEveryNodeUnderBudget) {
  plan.set_nominal_gap(hot, 64);
  plan.set_nominal_gap(bulky, 64);
  Governor gov(plan);
  GovernorConfig cfg = config(/*per_node=*/true);
  gov.arm(cfg);
  fill_epoch_stats();

  // Map still moving, cluster fraction well under the band — but node 1
  // sits above the node budget (2.4%), so cluster-wide tightening (which
  // would double node 1's cost too) must hold.
  auto out = gov.on_epoch(0.50, skewed_sample(0.024));
  EXPECT_EQ(out.action, GovernorAction::kNone);
  EXPECT_EQ(plan.nominal_gap(hot), 64u);

  // Every node under its band: the paper's convergence loop resumes.
  fill_epoch_stats();
  out = gov.on_epoch(0.50, skewed_sample(0.001));
  EXPECT_EQ(out.action, GovernorAction::kTighten);
  EXPECT_EQ(plan.nominal_gap(hot), 32u);
}

TEST_F(PerNodeGovernorTest, CooledNodeShiftsDecayBackToClusterView) {
  plan.set_nominal_gap(hot, 8);
  plan.set_nominal_gap(bulky, 8);
  Governor gov(plan);
  gov.arm(config(/*per_node=*/true));
  fill_epoch_stats();
  auto out = gov.on_epoch(std::nullopt, skewed_sample(0.10));
  ASSERT_EQ(out.action, GovernorAction::kBackOff);
  ASSERT_GE(plan.node_gap_shift(1, hot), 1u);
  const std::uint32_t shift = plan.node_gap_shift(1, hot);

  // The node cools far under the budget (even doubled cost would fit):
  // shifts decay one step per epoch, restoring the cluster rates.
  fill_epoch_stats();
  out = gov.on_epoch(0.01, skewed_sample(0.001));
  EXPECT_EQ(out.action, GovernorAction::kTighten);
  EXPECT_TRUE(out.rate_changed);
  EXPECT_EQ(plan.node_gap_shift(1, hot), shift - 1);

  // ...but a node merely inside the dead band does NOT relax (the doubled
  // cost would cross the budget again: no ping-pong).
  plan.set_node_gap_shift(1, hot, 1);
  fill_epoch_stats();
  out = gov.on_epoch(0.01, skewed_sample(0.015));
  EXPECT_EQ(plan.node_gap_shift(1, hot), 1u);
}

TEST_F(PerNodeGovernorTest, RearmDropsNodeShiftsAndResamples) {
  plan.set_nominal_gap(hot, 8);
  plan.resample_all();
  const std::uint64_t base_count = count_sampled(plan);
  plan.set_node_gap_shift(1, hot, 3);
  plan.resample_classes_on_node(1, {hot});
  ASSERT_LT(count_sampled(plan, 1), base_count);

  // Arming a mode that can never relax shifts (legacy) must not leave the
  // previously hot node silently under-sampled: shifts drop with the rest
  // of the controller state and the affected copies read the restored
  // cluster view again.
  Governor gov(plan);
  gov.arm(djvm::GovernorConfig::legacy(0.05));
  EXPECT_FALSE(plan.has_node_gap_shifts());
  EXPECT_EQ(count_sampled(plan, 1), base_count);
  EXPECT_EQ(count_sampled(plan), base_count);
}

TEST_F(PerNodeGovernorTest, SnapshotV2RoundTripsPerNodeState) {
  plan.set_nominal_gap(hot, 16);
  plan.set_nominal_gap(bulky, 128);
  Governor gov(plan);
  GovernorConfig cfg = config(/*per_node=*/true);
  cfg.node_budget = 0.015;
  gov.arm(cfg);
  // Shifts set after arming (arm clears per-node state with the rest of the
  // controller's progress).
  plan.set_node_gap_shift(1, hot, 3);
  plan.resample_all();
  fill_epoch_stats();
  gov.on_epoch(0.01, skewed_sample(0.001));  // relax or converge: state moves

  SquareMatrix tcm(2);
  tcm.at(0, 1) = 7.5;
  const std::vector<std::uint8_t> bytes = encode_snapshot(gov, tcm);

  // Fresh world, same registry shape and node count.
  KlassRegistry reg2;
  Heap heap2(reg2, 2);
  const ClassId hot2 = reg2.register_class("Hot", 16);
  reg2.register_class("Bulky", 1024);
  SamplingPlan plan2(heap2);
  Governor gov2(plan2);
  SquareMatrix tcm2;
  ASSERT_TRUE(decode_snapshot(bytes, gov2, tcm2));

  EXPECT_TRUE(gov2.config().per_node);
  EXPECT_DOUBLE_EQ(gov2.config().node_budget, 0.015);
  // The converge epoch may have relaxed the cooled node's shift first:
  // compare against the writer's live state, whatever it settled at.
  EXPECT_GE(plan.node_gap_shift(1, hot), 1u);
  EXPECT_EQ(plan2.node_gap_shift(1, hot2), plan.node_gap_shift(1, hot));
  EXPECT_EQ(plan2.node_gap_shift(0, hot2), 0u);
  EXPECT_EQ(plan2.effective_real_gap(1, hot2), plan.effective_real_gap(1, hot));
  EXPECT_EQ(encode_snapshot(gov2, tcm2), bytes);  // bit-exact
}

TEST_F(PerNodeGovernorTest, DaemonAttributesEpochStatsAndResamplesPerNode) {
  plan.set_nominal_gap(hot, 8);
  plan.set_nominal_gap(bulky, 8);
  ArenaFeeder feeder;
  CorrelationDaemon daemon(plan, 2);
  daemon.governor().arm(config(/*per_node=*/true));

  std::vector<OalArena> rs;
  rs.push_back(
      interval_log(0, {{1, bulky, 1024, plan.real_gap(bulky)}}, /*node=*/0));
  std::vector<OalEntry> hot_entries;
  for (int i = 0; i < 50; ++i) {
    hot_entries.push_back(
        {static_cast<ObjectId>(i), hot, 16, plan.real_gap(hot)});
  }
  rs.push_back(interval_log(1, std::move(hot_entries), /*node=*/1));
  feeder.feed(daemon, std::move(rs));
  daemon.run_epoch(skewed_sample(0.10));

  const auto& by_node = plan.node_epoch_stats();
  ASSERT_GE(by_node.size(), 2u);
  EXPECT_EQ(by_node[1][hot].entries, 50u);
  EXPECT_EQ(by_node[0][bulky].entries, 1u);
  EXPECT_EQ(by_node[0][hot].entries, 0u);
  // The skewed sample pushed node 1 over budget: only its hot objects were
  // backed off and resampled.
  EXPECT_GE(plan.node_gap_shift(1, hot), 1u);
  EXPECT_EQ(plan.node_gap_shift(0, bulky), 0u);
}

// --- the pump's counter read (Djvm::run_epoch) --------------------------------

/// A governed 4-thread run whose OALs ship over the network, with stack
/// sampling and footprinting on: every epoch prices log service, footprint
/// touches, send time and sampler timers together.
class PumpTest : public ::testing::Test {
 protected:
  static Config pump_config(std::uint32_t nodes) {
    Config cfg;
    cfg.nodes = nodes;
    cfg.threads = 4;
    cfg.oal_transfer = OalTransfer::kSend;
    cfg.stack_sampling = true;
    cfg.stack_sampling_gap = sim_us(20);
    cfg.footprinting = true;
    cfg.governor.enabled = true;
    return cfg;
  }

  void build(Djvm& djvm) {
    djvm.spawn_threads_round_robin(djvm.config().threads);
    const ClassId k = djvm.registry().register_class("Shared", 64);
    for (std::uint32_t i = 0; i < 64; ++i) {
      objs.push_back(djvm.gos().alloc(
          k, static_cast<NodeId>(i % djvm.config().nodes)));
    }
    djvm.plan().set_rate_all(djvm.config().sampling_rate_x);
  }

  /// `rounds` barrier rounds over a window of shared objects that drifts
  /// with `salt`.
  void drive(Djvm& djvm, std::uint32_t rounds, std::uint32_t salt) {
    for (std::uint32_t r = 0; r < rounds; ++r) {
      for (ThreadId t = 0; t < djvm.thread_count(); ++t) {
        for (std::uint32_t o = 0; o < 8; ++o) {
          djvm.read(t, objs[(3 * t + o + r + salt) % objs.size()]);
        }
        djvm.write(t, objs[(t + r + salt) % objs.size()]);
      }
      djvm.barrier_all();
    }
  }

  std::vector<ObjectId> objs;
};

TEST_F(PumpTest, OneNodeSliceEqualsClusterSlice) {
  // With one node the node slice and the cluster slice price the same
  // counters, so they must agree bit for bit: one pricing expression.
  Djvm djvm(pump_config(1));
  build(djvm);
  bool priced_send = false, priced_fixed = false;
  for (std::uint32_t e = 0; e < 40; ++e) {
    drive(djvm, 2 + e % 5, 3 * e);
    const EpochResult r = djvm.run_epoch();
    ASSERT_EQ(r.ring_backpressure, 0u);
    ASSERT_EQ(r.sample.nodes.size(), 1u);
    const NodeOverheadSample& n0 = r.sample.nodes[0];
    EXPECT_EQ(n0.access_check_seconds, r.sample.access_check_seconds)
        << "epoch " << e;
    EXPECT_EQ(n0.fixed_seconds, r.sample.fixed_seconds) << "epoch " << e;
    EXPECT_EQ(n0.app_seconds, r.sample.app_seconds) << "epoch " << e;
    priced_send = priced_send || r.traffic_bytes[static_cast<std::size_t>(
                                     MsgCategory::kOal)] > 0;
    priced_fixed = priced_fixed || r.sample.fixed_seconds > 0.0;
  }
  EXPECT_TRUE(priced_send);
  EXPECT_TRUE(priced_fixed);
}

TEST_F(PumpTest, StatsResetBetweenEpochsReadsAsRestartedGrowth) {
  // A Gos/Network stats reset between two epochs restarts the counters
  // below the previous read: the restarted values are that epoch's growth,
  // never an unsigned wrap.
  Djvm djvm(pump_config(2));
  build(djvm);
  drive(djvm, 4, 0);
  djvm.run_epoch();
  const ProtocolStats ps_before = djvm.gos().stats();
  const TrafficStats ts_before = djvm.net().stats();

  djvm.gos().reset_stats();
  djvm.net().reset_stats();
  drive(djvm, 1, 7);
  const ProtocolStats& ps = djvm.gos().stats();
  const TrafficStats& ts = djvm.net().stats();
  ASSERT_GT(ps.oal_entries, 0u);
  ASSERT_LT(ps.oal_entries, ps_before.oal_entries);
  ASSERT_LT(ps.oal_send_ns, ps_before.oal_send_ns);
  ASSERT_LT(ts.total_bytes(), ts_before.total_bytes());

  const EpochResult r = djvm.run_epoch();
  EXPECT_EQ(r.traffic_bytes, ts.bytes);
  EXPECT_EQ(r.dropped_msgs, ts.dropped);
  EXPECT_EQ(r.retries, ts.retries);
  const auto worker = [](std::uint64_t entries, std::uint64_t touches,
                         std::uint64_t send_ns) {
    return (static_cast<double>(entries) * static_cast<double>(kLogServiceCost) +
            static_cast<double>(touches) *
                static_cast<double>(kFootprintServiceCost)) *
               1e-9 +
           static_cast<double>(send_ns) * 1e-9;
  };
  EXPECT_DOUBLE_EQ(r.sample.access_check_seconds,
                   worker(ps.oal_entries, ps.footprint_touches, ps.oal_send_ns));
  ASSERT_EQ(r.sample.nodes.size(), 2u);
  const auto kOal = static_cast<std::size_t>(MsgCategory::kOal);
  for (NodeId n = 0; n < 2; ++n) {
    const NodeProfilingStats& nps = djvm.gos().node_stats(n);
    EXPECT_DOUBLE_EQ(r.sample.nodes[n].access_check_seconds,
                     worker(nps.oal_entries, nps.footprint_touches,
                            djvm.net().node_traffic(n).send_ns[kOal]))
        << "node " << n;
  }
  EXPECT_GT(r.sample.app_seconds, 0.0);
  EXPECT_LT(r.sample.access_check_seconds, r.sample.app_seconds);
}

}  // namespace
}  // namespace djvm
