// Tests of the benchmark's own helpers: the tail-percentile rule, the
// one-epoch-late planner-time recovery, unit-mass map error, and span self
// time.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>

#include "stats.hpp"
#include "trace.hpp"

using djvm::SquareMatrix;
using perfbench::Tracer;

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(perfbench::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(perfbench::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(perfbench::median({}), 0.0);
}

TEST(TailPercentile, LeavesExactlyTenSamplesBeyond) {
  std::vector<double> v(200);
  std::iota(v.begin(), v.end(), 1.0);  // 1..200, shuffled order is irrelevant
  std::swap(v[0], v[150]);
  const auto t = perfbench::tail_percentile(v);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->percentile, 95.0);
  EXPECT_DOUBLE_EQ(t->value, 190.0);  // 191..200 lie beyond it
  EXPECT_EQ(t->count, 200u);
}

TEST(TailPercentile, PercentileRisesWithTheSampleCount) {
  std::vector<double> v(1000);
  std::iota(v.begin(), v.end(), 0.0);
  const auto t = perfbench::tail_percentile(v);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->percentile, 99.0);
  EXPECT_DOUBLE_EQ(t->value, 989.0);
}

TEST(TailPercentile, NeedsMoreSamplesThanBeyond) {
  EXPECT_FALSE(perfbench::tail_percentile(std::vector<double>(10, 1.0)).has_value());
  const auto t = perfbench::tail_percentile(std::vector<double>(11, 1.0));
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->value, 1.0);
  EXPECT_NEAR(t->percentile, 100.0 / 11.0, 1e-12);
}

TEST(RecoveredPlanSeconds, InvertsTheFacadeBilling) {
  // The facade's order of operations: carries plus coordinator share first,
  // then the daemon adds this epoch's build.
  const double plan = 0.0031, migration = 0.0012, coordinator = 0.00021, build = 0.0107;
  double sample = plan + migration + coordinator;
  sample += build;
  EXPECT_NEAR(perfbench::recovered_plan_seconds(sample, build, migration, coordinator),
              plan, 1e-15);
}

TEST(RecoveredPlanSeconds, NoPlannerReadsZero) {
  const double migration = 0.1, coordinator = 0.2, build = 0.3;
  double sample = 0.0 + migration + coordinator;
  sample += build;
  const double plan = perfbench::recovered_plan_seconds(sample, build, migration, coordinator);
  EXPECT_GE(plan, 0.0);
  EXPECT_LT(plan, 1e-15);
}

TEST(UnitMassError, IgnoresOverallScale) {
  SquareMatrix a(3);
  a.add_symmetric(0, 1, 4.0);
  a.add_symmetric(1, 2, 2.0);
  SquareMatrix b = a;
  b.scale(7.5);  // same structure, different gap-weighted mass
  EXPECT_DOUBLE_EQ(perfbench::unit_mass_error(b, a), 0.0);
}

TEST(UnitMassError, MeasuresStructureAtUnitMass) {
  // Reference mass split 1/2, 1/2 over pairs (0,1) and (1,2); the map puts
  // it all on (0,1).  Unit-mass cells: ref {.25,.25,.25,.25}, map {.5,.5,0,0};
  // E_ABS = sum|diff| / sum(ref) = 1.0 / 1.0.
  SquareMatrix ref(3);
  ref.add_symmetric(0, 1, 1.0);
  ref.add_symmetric(1, 2, 1.0);
  SquareMatrix map(3);
  map.add_symmetric(0, 1, 10.0);
  EXPECT_DOUBLE_EQ(perfbench::unit_mass_error(map, ref), 1.0);
}

TEST(MapWellFormed, ChecksSizeFinitenessAndSign) {
  SquareMatrix m(4);
  m.add_symmetric(0, 3, 2.0);
  EXPECT_TRUE(perfbench::map_well_formed(m, 4));
  EXPECT_FALSE(perfbench::map_well_formed(m, 5));
  m.at(1, 2) = -1.0;
  EXPECT_FALSE(perfbench::map_well_formed(m, 4));
  m.at(1, 2) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(perfbench::map_well_formed(m, 4));
}

TEST(Tracer, SelfTimeSubtractsDirectChildrenIncludingReported) {
  Tracer t(8);
  const auto root = t.begin("epoch", -1, 0);
  const auto core = t.begin("core.run_epoch", root, 0);
  t.end(core);
  t.end(root);
  const auto build = t.reported("profiling.build", core, 0, 0.0);
  t.reported("profiling.densify", build, 0, 0.0);
  const std::vector<std::int64_t> self = t.self_ns();
  const auto& s = t.spans();
  EXPECT_EQ(self[root], s[root].dur_ns - s[core].dur_ns);
  EXPECT_EQ(self[core], s[core].dur_ns);
  EXPECT_EQ(s[build].start_ns, -1);
  EXPECT_EQ(s[build].parent, core);
}
