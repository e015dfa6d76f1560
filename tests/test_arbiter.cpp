// Cluster budget arbitration: borrowing with automatic reclaim across a
// diurnal phase flip, priority-tier pool draining bounded by the starvation
// floor, the degraded-tenants-lend rule, and the structural ceiling
// invariant (sum of grants never exceeds the global budget).
#include <gtest/gtest.h>

#include "governor/arbiter.hpp"

namespace djvm {
namespace {

TenantKnobs tenant(TenantId id, std::uint32_t tier = 0, double weight = 1.0) {
  TenantKnobs t;
  t.id = id;
  t.tier = tier;
  t.weight = weight;
  return t;
}

/// Sum of granted budgets in an outcome.
double granted_sum(const ArbitrationOutcome& out) {
  double sum = 0.0;
  for (const auto& l : out.leases) sum += l.granted_budget;
  return sum;
}

TEST(BudgetArbiter, RegistrationSeedsFairSplitOverRegistrantsSoFar) {
  BudgetArbiter arb;  // global_budget = 0.02
  const auto& first = arb.register_tenant(tenant(0));
  EXPECT_DOUBLE_EQ(first.granted_budget, 0.02);  // alone: the whole ceiling
  const auto& second = arb.register_tenant(tenant(1));
  EXPECT_DOUBLE_EQ(second.granted_budget, 0.01);  // fair split over two
  // Registration never re-leases existing tenants (arbitrate() does).
  EXPECT_DOUBLE_EQ(arb.lease(0)->granted_budget, 0.02);
  EXPECT_EQ(arb.lease(9), nullptr);
  // Two registrants, two leases.
  EXPECT_EQ(arb.arbitrate().leases.size(), 2u);
}

TEST(BudgetArbiter, IdleTenantLendsAndHotTenantBorrows) {
  BudgetArbiter arb;
  arb.register_tenant(tenant(0));
  arb.register_tenant(tenant(1));
  // Warm-up at full demand: grants settle on fair shares (the registration
  // seeds depend on arrival order and would misclassify the first round).
  arb.report(TenantReport{0, 0.01, false});
  arb.report(TenantReport{1, 0.01, false});
  arb.arbitrate();

  arb.report(TenantReport{0, 0.01, false});    // pressing its fair share
  arb.report(TenantReport{1, 0.0005, false});  // nearly idle

  const ArbitrationOutcome out = arb.arbitrate();
  ASSERT_EQ(out.leases.size(), 2u);
  const auto& hot = out.leases[0];
  const auto& idle = out.leases[1];
  EXPECT_GT(hot.granted_budget, hot.fair_share);
  EXPECT_LT(idle.granted_budget, idle.fair_share);
  EXPECT_GE(idle.granted_budget, idle.floor);
  // Pool conservation: what the lender gave up is what the borrower got.
  EXPECT_NEAR(hot.granted_budget - hot.fair_share,
              idle.fair_share - idle.granted_budget, 1e-12);
  EXPECT_EQ(out.lenders, 1u);
  EXPECT_EQ(out.borrowers, 1u);
  EXPECT_EQ(hot.borrowed_epochs, 1u);
  EXPECT_EQ(idle.lent_epochs, 1u);
  EXPECT_LE(out.granted_total, out.global_budget + 1e-12);
  EXPECT_NEAR(out.granted_total, granted_sum(out), 1e-15);
}

TEST(BudgetArbiter, PhaseFlipReclaimsTheLoanAutomatically) {
  BudgetArbiter arb;
  arb.register_tenant(tenant(0));
  arb.register_tenant(tenant(1));
  // Warm-up: settle the registration seeds on fair shares.
  arb.report(TenantReport{0, 0.01, false});
  arb.report(TenantReport{1, 0.01, false});
  arb.arbitrate();
  // Round 1: tenant 0 hot, tenant 1 idle (the pre-flip diurnal phase).
  arb.report(TenantReport{0, 0.01, false});
  arb.report(TenantReport{1, 0.0005, false});
  const ArbitrationOutcome before = arb.arbitrate();
  ASSERT_GT(before.leases[0].granted_budget, before.leases[0].fair_share);

  // Round 2: the phase flips — yesterday's lender wakes up, yesterday's
  // borrower goes quiet.  Grants are recomputed from scratch, so the loan
  // is reclaimed without any revocation protocol.
  arb.report(TenantReport{0, 0.0004, false});
  arb.report(TenantReport{1, 0.009, false});
  const ArbitrationOutcome after = arb.arbitrate();
  EXPECT_LT(after.leases[0].granted_budget, after.leases[0].fair_share);
  EXPECT_GT(after.leases[1].granted_budget, after.leases[1].fair_share);
  EXPECT_EQ(after.leases[0].borrowed_epochs, 1u);  // only round 1
  EXPECT_EQ(after.leases[0].lent_epochs, 1u);      // round 2
  EXPECT_EQ(after.leases[1].lent_epochs, 1u);
  EXPECT_EQ(after.leases[1].borrowed_epochs, 1u);
  EXPECT_LE(after.granted_total, after.global_budget + 1e-12);
  EXPECT_EQ(after.epoch, before.epoch + 1);
}

TEST(BudgetArbiter, TierPriorityDrainsThePoolAboveTheFloor) {
  ArbiterKnobs knobs;
  knobs.global_budget = 0.03;  // fair = 0.01 each over three tenants
  BudgetArbiter arb(knobs);
  arb.register_tenant(tenant(0, /*tier=*/0));
  arb.register_tenant(tenant(1, /*tier=*/1));
  arb.register_tenant(tenant(2, /*tier=*/2));
  // Warm-up round at full demand everywhere: grants settle on fair shares
  // (the registration seeds depend on order; arbitrate() erases that).
  for (TenantId id = 0; id < 3; ++id) {
    arb.report(TenantReport{id, 0.01, false});
  }
  arb.arbitrate();

  // Tier 2 goes idle: its grant drops to exactly the starvation floor
  // (kFloorShare and kLendRatio meet there at zero demand), and
  // the tier-0 borrower drains the whole pool before tier 1 sees any of it.
  arb.report(TenantReport{2, 0.0, false});
  const ArbitrationOutcome out = arb.arbitrate();
  const auto& t0 = out.leases[0];
  const auto& t1 = out.leases[1];
  const auto& t2 = out.leases[2];
  EXPECT_DOUBLE_EQ(t2.granted_budget, t2.floor);
  EXPECT_DOUBLE_EQ(t2.floor, kFloorShare * 0.01);
  EXPECT_NEAR(t0.granted_budget, 0.01 + (0.01 - t2.floor), 1e-12);
  EXPECT_DOUBLE_EQ(t1.granted_budget, t1.fair_share);  // outranked: nothing
  EXPECT_EQ(out.lenders, 1u);
  EXPECT_EQ(out.borrowers, 1u);
  EXPECT_NEAR(out.granted_total, knobs.global_budget, 1e-12);
}

TEST(BudgetArbiter, MaxBoostCapSpillsThePoolToTheNextTier) {
  // Two borrowers (tiers 0 and 1) and five idle tier-2 lenders: each lender
  // offers fair - floor, and five of them pool more than the tier-0
  // borrower may take under its kMaxBoost cap.
  constexpr TenantId kTenants = 7;
  constexpr std::size_t kLenders = 5;
  ArbiterKnobs knobs;
  knobs.global_budget = 0.07;  // fair = 0.01 each
  BudgetArbiter arb(knobs);
  arb.register_tenant(tenant(0, 0));
  arb.register_tenant(tenant(1, 1));
  for (TenantId id = 2; id < kTenants; ++id) arb.register_tenant(tenant(id, 2));
  for (TenantId id = 0; id < kTenants; ++id) {
    arb.report(TenantReport{id, 0.01, false});
  }
  arb.arbitrate();

  for (TenantId id = 2; id < kTenants; ++id) {
    arb.report(TenantReport{id, 0.0, false});
  }
  const ArbitrationOutcome out = arb.arbitrate();
  const double fair = out.leases[0].fair_share;
  const double pool = kLenders * (fair - kFloorShare * fair);
  ASSERT_GT(pool, (kMaxBoost - 1.0) * fair);  // the cap binds
  // Tier 0 is capped at kMaxBoost x fair; the rest of the pool spills to
  // tier 1 instead of vanishing.
  EXPECT_NEAR(out.leases[0].granted_budget, kMaxBoost * fair, 1e-12);
  EXPECT_NEAR(out.leases[1].granted_budget,
              fair + pool - (kMaxBoost - 1.0) * fair, 1e-12);
  EXPECT_EQ(out.borrowers, 2u);
  EXPECT_EQ(out.lenders, kLenders);
  EXPECT_NEAR(out.granted_total, knobs.global_budget, 1e-12);
}

TEST(BudgetArbiter, DegradedTenantLendsAndCannotBorrow) {
  BudgetArbiter arb;  // two tenants, fair = 0.01 each
  arb.register_tenant(tenant(0));
  arb.register_tenant(tenant(1));
  arb.report(TenantReport{0, 0.01, false});
  arb.report(TenantReport{1, 0.01, false});
  arb.arbitrate();  // settle on fair shares

  // Tenant 0 loses nodes: still reporting high demand, it is forced into
  // the lender role — a tenant limping on partial data must not starve its
  // healthy peer's budget — and is barred from the borrow list even though
  // its demand clears the hot threshold.
  arb.report(TenantReport{0, 0.009, true});
  arb.report(TenantReport{1, 0.01, false});
  const ArbitrationOutcome out = arb.arbitrate();
  const auto& degraded = out.leases[0];
  const auto& healthy = out.leases[1];
  EXPECT_LT(degraded.granted_budget, degraded.fair_share);
  EXPECT_GE(degraded.granted_budget, degraded.floor);
  EXPECT_GT(healthy.granted_budget, healthy.fair_share);
  EXPECT_NEAR(healthy.granted_budget - healthy.fair_share,
              degraded.fair_share - degraded.granted_budget, 1e-12);
  EXPECT_LE(out.granted_total, out.global_budget + 1e-12);
}

TEST(BudgetArbiter, CeilingAndFloorInvariantsHoldEveryRound) {
  ArbiterKnobs knobs;
  knobs.global_budget = 0.04;
  BudgetArbiter arb(knobs);
  arb.register_tenant(tenant(0, 0, 2.0));  // heavier weight, top tier
  arb.register_tenant(tenant(1, 1, 1.0));
  arb.register_tenant(tenant(2, 1, 1.0));
  // A deterministic sweep of demand patterns, including degradation.
  const double demands[][3] = {
      {0.02, 0.0, 0.01},   {0.0, 0.02, 0.02},  {0.03, 0.03, 0.0},
      {0.001, 0.001, 0.0}, {0.02, 0.01, 0.01},
  };
  for (std::size_t round = 0; round < 5; ++round) {
    for (TenantId id = 0; id < 3; ++id) {
      arb.report(TenantReport{id, demands[round][id], round == 2 && id == 1});
    }
    const ArbitrationOutcome out = arb.arbitrate();
    EXPECT_LE(out.granted_total, knobs.global_budget + 1e-12)
        << "round " << round;
    for (const auto& l : out.leases) {
      EXPECT_GE(l.granted_budget, l.floor - 1e-12)
          << "round " << round << " tenant " << l.tenant;
      EXPECT_LE(l.granted_budget, kMaxBoost * l.fair_share + 1e-12)
          << "round " << round << " tenant " << l.tenant;
    }
    EXPECT_GE(out.decision_seconds, 0.0);
  }
  EXPECT_GT(arb.billed_seconds(), 0.0);
}

TEST(BudgetArbiter, ReportsForUnknownTenantsAreIgnored) {
  BudgetArbiter arb;
  arb.register_tenant(tenant(0));
  arb.report(TenantReport{7, 0.5, true});  // never registered: dropped
  const ArbitrationOutcome out = arb.arbitrate();
  ASSERT_EQ(out.leases.size(), 1u);
  EXPECT_EQ(out.leases[0].tenant, 0u);
}

}  // namespace
}  // namespace djvm
