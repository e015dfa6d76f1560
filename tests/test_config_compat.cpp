// Config knob consolidation, final act: the flat pre-nesting names
// (governor_*, retention_*, snapshot_path, timeline_*) lived for one release
// as [[deprecated]] reference aliases into the nested sub-structs.  That
// release is over — this file is now the *removal* contract: the aliases are
// gone from Config entirely (asserted via member-detection traits below),
// Config is a plain copyable aggregate again, and the nested knobs are the
// only spelling.  Knobs no caller ever set are gone too: each is a named
// constant at its one reader, and the detectors below keep them from
// returning as fields.
#include <gtest/gtest.h>

#include <type_traits>

#include "common/config.hpp"
#include "core/djvm.hpp"

namespace djvm {
namespace {

// Member-detection idiom: HAS_MEMBER(name) yields a trait that is true iff
// a type still has a data member (field or alias) called `name`.
#define HAS_MEMBER(member)                                          \
  template <typename T, typename = void>                            \
  struct has_##member : std::false_type {};                         \
  template <typename T>                                             \
  struct has_##member<T, std::void_t<decltype(std::declval<T&>().member)>> \
      : std::true_type {}

HAS_MEMBER(governor_enabled);
HAS_MEMBER(governor_budget);
HAS_MEMBER(governor_per_node);
HAS_MEMBER(governor_node_budget);
HAS_MEMBER(retention_idle_epochs);
HAS_MEMBER(retention_decay);
HAS_MEMBER(retention_compact_period);
HAS_MEMBER(snapshot_path);
HAS_MEMBER(timeline_path);
HAS_MEMBER(timeline_top_k);
// Knobs nothing ever read, removed outright.
HAS_MEMBER(tcm_epoch_intervals);
HAS_MEMBER(footprint_min_gap);
// Knobs nothing ever set, now constants.
HAS_MEMBER(piggyback_oals);
HAS_MEMBER(backoff_scoring);
HAS_MEMBER(invariant_min_rounds);
HAS_MEMBER(footprint_phase);
HAS_MEMBER(landmark_tolerance);
HAS_MEMBER(per_node);
HAS_MEMBER(node_budget);
HAS_MEMBER(follow_homes);
HAS_MEMBER(max_home_migrations);
HAS_MEMBER(floor_share);
HAS_MEMBER(max_boost);
HAS_MEMBER(lend_threshold);
HAS_MEMBER(lend_ratio);
HAS_MEMBER(export_outputs);

#undef HAS_MEMBER

template <typename T, typename = void>
struct has_without_exports : std::false_type {};
template <typename T>
struct has_without_exports<
    T, std::void_t<decltype(std::declval<T&>().without_exports())>>
    : std::true_type {};

TEST(ConfigCompat, FlatAliasesAreGone) {
  static_assert(!has_governor_enabled<Config>::value);
  static_assert(!has_governor_budget<Config>::value);
  static_assert(!has_governor_per_node<Config>::value);
  static_assert(!has_governor_node_budget<Config>::value);
  static_assert(!has_retention_idle_epochs<Config>::value);
  static_assert(!has_retention_decay<Config>::value);
  static_assert(!has_retention_compact_period<Config>::value);
  static_assert(!has_snapshot_path<Config>::value);
  static_assert(!has_timeline_path<Config>::value);
  static_assert(!has_timeline_top_k<Config>::value);
  static_assert(!has_tcm_epoch_intervals<Config>::value);
  static_assert(!has_footprint_min_gap<Config>::value);
  static_assert(!has_piggyback_oals<Config>::value);
  static_assert(!has_backoff_scoring<Config>::value);
  static_assert(!has_invariant_min_rounds<Config>::value);
  static_assert(!has_footprint_phase<Config>::value);
  static_assert(!has_landmark_tolerance<Config>::value);
  static_assert(!has_timeline_top_k<ExportKnobs>::value);
  static_assert(!has_per_node<GovernorKnobs>::value);
  static_assert(!has_node_budget<GovernorKnobs>::value);
  static_assert(!has_follow_homes<BalanceKnobs>::value);
  static_assert(!has_max_home_migrations<BalanceKnobs>::value);
  static_assert(!has_floor_share<ArbiterKnobs>::value);
  static_assert(!has_max_boost<ArbiterKnobs>::value);
  static_assert(!has_lend_threshold<ArbiterKnobs>::value);
  static_assert(!has_lend_ratio<ArbiterKnobs>::value);
  static_assert(!has_export_outputs<EpochRequest>::value);
  static_assert(!has_without_exports<EpochRequest>::value);
  // The detectors see the fields that stay.
  static_assert(has_timeline_path<ExportKnobs>::value);
  static_assert(has_per_node<GovernorConfig>::value);
  SUCCEED() << "all flat aliases and unset knobs removed";
}

TEST(ConfigCompat, NestedKnobsAreTheOnlySpelling) {
  Config cfg;
  cfg.governor.enabled = true;
  cfg.governor.budget = 0.07;
  cfg.retention.idle_epochs = 9;
  cfg.retention.decay = 0.5;
  cfg.retention.compact_period = 2;
  cfg.export_.snapshot_path = "/tmp/snap.bin";
  cfg.export_.timeline_path = "/tmp/tl.jsonl";
  EXPECT_TRUE(cfg.governor.enabled);
  EXPECT_DOUBLE_EQ(cfg.governor.budget, 0.07);
  EXPECT_EQ(cfg.retention.idle_epochs, 9u);
  EXPECT_DOUBLE_EQ(cfg.retention.decay, 0.5);
  EXPECT_EQ(cfg.retention.compact_period, 2u);
  EXPECT_EQ(cfg.export_.snapshot_path, "/tmp/snap.bin");
  EXPECT_EQ(cfg.export_.timeline_path, "/tmp/tl.jsonl");
}

TEST(ConfigCompat, ConfigIsAPlainCopyableValueAgain) {
  // With the reference aliases gone there is no custom copy machinery left:
  // copies are member-wise and fully independent.
  Config a;
  a.governor.enabled = true;
  a.retention.idle_epochs = 4;
  a.export_.snapshot_path = "/tmp/a.bin";
  a.faults.enabled = true;
  a.faults.drop_oal = 0.25;

  Config b(a);
  EXPECT_TRUE(b.governor.enabled);
  EXPECT_EQ(b.retention.idle_epochs, 4u);
  EXPECT_EQ(b.export_.snapshot_path, "/tmp/a.bin");
  EXPECT_TRUE(b.faults.enabled);
  EXPECT_DOUBLE_EQ(b.faults.drop_oal, 0.25);

  b.governor.enabled = false;
  b.retention.idle_epochs = 7;
  b.faults.drop_oal = 0.0;
  EXPECT_TRUE(a.governor.enabled);
  EXPECT_EQ(a.retention.idle_epochs, 4u);
  EXPECT_DOUBLE_EQ(a.faults.drop_oal, 0.25);

  Config c;
  c = a;  // assignment path
  EXPECT_TRUE(c.governor.enabled);
  EXPECT_EQ(c.export_.snapshot_path, "/tmp/a.bin");
  c.governor.enabled = false;
  EXPECT_TRUE(a.governor.enabled);
}

}  // namespace
}  // namespace djvm
