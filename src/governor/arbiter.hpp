// Cluster budget arbiter: one global profiling-overhead ceiling, many
// tenants.
//
// Each tenant runs its own governor against its own leased budget; the
// arbiter re-divides the cluster's global ceiling between them every epoch.
// The mechanism is borrowing with reclaim-on-demand: a tenant whose measured
// rolling overhead sits well under its fair share is a *lender* — part of
// its unused headroom flows into a pool that *borrowers* (hot tenants) draw
// from in priority order (tier ascending, then weight descending, then id).
// Because grants are recomputed from scratch each epoch, reclaim is
// automatic: the moment a lender's own demand rises it stops lending and its
// next grant snaps back toward its fair share — no explicit revocation
// protocol.  Guarantees, enforced structurally:
//
//   - sum(grants) <= global_budget every epoch (the pool only redistributes
//     headroom that was actually lent);
//   - every tenant keeps at least kFloorShare of its fair share (the
//     starvation floor), whatever the tiers above it demand;
//   - a borrower never holds more than kMaxBoost times its fair share;
//   - a degraded tenant (lost nodes — see the reliability substrate) cannot
//     borrow, and lends its headroom like an idle tenant: a tenant limping
//     on partial data must not starve healthy peers' budgets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "governor/governor.hpp"

namespace djvm {

/// The lending policy, as fractions and multiples of a tenant's fair share.
/// Guaranteed floor: even a maximal borrower cannot push a tenant below
/// kFloorShare * fair (prevents priority-tier starvation).
inline constexpr double kFloorShare = 0.25;
/// Cap on any tenant's grant (bounds how much one hot tenant can absorb
/// from the lending pool).
inline constexpr double kMaxBoost = 4.0;
/// A tenant lends when its rolling overhead uses less than kLendThreshold of
/// its fair share; at or above the same line it is hot and may borrow.
inline constexpr double kLendThreshold = 0.60;
/// Share of a lender's idle headroom offered to the pool per epoch (the rest
/// is slack, so a waking tenant reclaims smoothly).
inline constexpr double kLendRatio = 0.75;

/// One tenant's per-epoch report to the arbiter: its measured rolling
/// overhead fraction (from its own governor's meter) and its health.
struct TenantReport {
  TenantId tenant = 0;
  /// Rolling profiling-overhead fraction over the tenant's window.
  double rolling_fraction = 0.0;
  /// True when the tenant's last epoch ran degraded (lost nodes).
  bool degraded = false;
};

/// One arbitration round's outcome: the recomputed leases plus the audit
/// trail a cluster timeline exports.
struct ArbitrationOutcome {
  std::uint64_t epoch = 0;        ///< 0-based arbitration round
  double global_budget = 0.0;     ///< the ceiling this round divided
  double granted_total = 0.0;     ///< sum of grants (<= global_budget)
  std::size_t lenders = 0;        ///< tenants granted below fair share
  std::size_t borrowers = 0;      ///< tenants granted above fair share
  /// Real seconds this decision cost; the coordinator bills it into the
  /// tenants' next-epoch coordinator buckets (EpochRequest::bill_coordinator).
  double decision_seconds = 0.0;
  /// The recomputed lease per registered tenant (registration order).
  std::vector<Governor::TenantLease> leases;
};

/// The per-epoch budget arbiter.  Single-threaded, deterministic: grants
/// depend only on the global budget, the registered tenants, and the last
/// reports — decision_seconds is measured wall time but never feeds back
/// into grants.
class BudgetArbiter {
 public:
  explicit BudgetArbiter(ArbiterKnobs knobs = {});

  /// Registers a tenant (idempotent by id; re-registration updates tier and
  /// weight).  Returns its initial lease: the fair split over the tenants
  /// registered so far.  Registering does not re-lease existing tenants —
  /// call arbitrate() after the fleet is assembled to seed everyone.
  const Governor::TenantLease& register_tenant(const TenantKnobs& tenant);

  /// Records one tenant's epoch report; unknown tenants are ignored.
  void report(const TenantReport& r);

  /// Recomputes every registered tenant's grant from the last reports.
  ArbitrationOutcome arbitrate();

  [[nodiscard]] const Governor::TenantLease* lease(TenantId tenant) const;
  [[nodiscard]] const ArbiterKnobs& knobs() const noexcept { return knobs_; }
  /// Cumulative real seconds spent in arbitrate().
  [[nodiscard]] double billed_seconds() const noexcept { return billed_seconds_; }

 private:
  struct Slot {
    bool registered = false;
    TenantKnobs knobs;
    TenantReport last;
    Governor::TenantLease lease;
  };

  [[nodiscard]] Slot* slot(TenantId tenant);

  ArbiterKnobs knobs_;
  std::vector<Slot> slots_;  ///< dense by tenant id
  std::uint64_t epoch_ = 0;
  double billed_seconds_ = 0.0;
};

}  // namespace djvm
