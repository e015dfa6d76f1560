#include "governor/arbiter.hpp"

#include <algorithm>
#include <chrono>

namespace djvm {

BudgetArbiter::BudgetArbiter(ArbiterKnobs knobs) : knobs_(knobs) {}

BudgetArbiter::Slot* BudgetArbiter::slot(TenantId tenant) {
  if (tenant >= slots_.size()) return nullptr;
  Slot& s = slots_[tenant];
  return s.registered ? &s : nullptr;
}

const Governor::TenantLease& BudgetArbiter::register_tenant(
    const TenantKnobs& tenant) {
  if (slots_.size() <= tenant.id) slots_.resize(tenant.id + 1);
  Slot& s = slots_[tenant.id];
  s.registered = true;
  s.knobs = tenant;
  s.last = TenantReport{tenant.id, 0.0, false};
  s.lease.tenant = tenant.id;
  s.lease.tier = tenant.tier;
  s.lease.weight = tenant.weight;
  // Seed with the fair split over the tenants registered so far; the first
  // arbitrate() recomputes everyone.
  double wsum = 0.0;
  for (const Slot& o : slots_) {
    if (o.registered) wsum += o.knobs.weight;
  }
  const double fair =
      wsum > 0.0 ? knobs_.global_budget * tenant.weight / wsum : 0.0;
  s.lease.fair_share = fair;
  s.lease.floor = kFloorShare * fair;
  s.lease.granted_budget = fair;
  return s.lease;
}

void BudgetArbiter::report(const TenantReport& r) {
  if (Slot* s = slot(r.tenant)) s->last = r;
}

const Governor::TenantLease* BudgetArbiter::lease(TenantId tenant) const {
  if (tenant >= slots_.size() || !slots_[tenant].registered) return nullptr;
  return &slots_[tenant].lease;
}

ArbitrationOutcome BudgetArbiter::arbitrate() {
  const auto t0 = std::chrono::steady_clock::now();
  ArbitrationOutcome out;
  out.epoch = epoch_++;
  out.global_budget = knobs_.global_budget;

  double wsum = 0.0;
  for (const Slot& s : slots_) {
    if (s.registered) wsum += s.knobs.weight;
  }
  if (wsum > 0.0) {
    // Pass 1: fair shares, floors, and the lending pool.  A lender's grant
    // drops toward its measured demand (never below its floor); the
    // difference to its fair share is what the pool can hand out.  Demand is
    // clamped to fair first so an over-budget report cannot mint budget.
    double pool = 0.0;
    std::vector<TenantId> hot;
    for (Slot& s : slots_) {
      if (!s.registered) continue;
      const double fair = knobs_.global_budget * s.knobs.weight / wsum;
      const double floor = kFloorShare * fair;
      s.lease.tier = s.knobs.tier;
      s.lease.weight = s.knobs.weight;
      s.lease.fair_share = fair;
      s.lease.floor = floor;
      const double demand = std::min(s.last.rolling_fraction, fair);
      // The lend test is against the fair entitlement, not the previous
      // grant: a boosted grant would otherwise inflate the threshold and
      // flap a still-hot borrower into the lender role the round after it
      // borrowed.
      const bool lender =
          s.last.degraded ||
          s.last.rolling_fraction < kLendThreshold * fair;
      if (lender) {
        const double grant =
            std::max(floor, fair - kLendRatio * (fair - demand));
        pool += fair - grant;
        s.lease.granted_budget = grant;
      } else {
        s.lease.granted_budget = fair;
        // Only healthy tenants whose demand presses against their fair share
        // draw from the pool.
        if (!s.last.degraded &&
            s.last.rolling_fraction >= kLendThreshold * fair) {
          hot.push_back(s.lease.tenant);
        }
      }
    }

    // Pass 2: borrowers draw the pool in priority order — tier ascending,
    // weight descending, id ascending — each capped at kMaxBoost * fair.
    // Greedy by design: a tier-0 borrower drains the pool before tier-1 sees
    // it, which is exactly the priority semantics the floors bound.
    std::sort(hot.begin(), hot.end(), [&](TenantId a, TenantId b) {
      const Slot& sa = slots_[a];
      const Slot& sb = slots_[b];
      if (sa.knobs.tier != sb.knobs.tier) return sa.knobs.tier < sb.knobs.tier;
      if (sa.knobs.weight != sb.knobs.weight)
        return sa.knobs.weight > sb.knobs.weight;
      return a < b;
    });
    for (const TenantId id : hot) {
      if (pool <= 0.0) break;
      Slot& s = slots_[id];
      const double cap = kMaxBoost * s.lease.fair_share;
      const double take =
          std::min(pool, std::max(0.0, cap - s.lease.granted_budget));
      if (take <= 0.0) continue;
      s.lease.granted_budget += take;
      pool -= take;
    }

    for (Slot& s : slots_) {
      if (!s.registered) continue;
      if (s.lease.granted_budget > s.lease.fair_share + 1e-12) {
        ++s.lease.borrowed_epochs;
        ++out.borrowers;
      } else if (s.lease.granted_budget < s.lease.fair_share - 1e-12) {
        ++s.lease.lent_epochs;
        ++out.lenders;
      }
      out.granted_total += s.lease.granted_budget;
      out.leases.push_back(s.lease);
    }
  }

  out.decision_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  billed_seconds_ += out.decision_seconds;
  return out;
}

}  // namespace djvm
