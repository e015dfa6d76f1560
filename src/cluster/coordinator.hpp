// Cluster coordinator: several tenants' DJVMs under one overhead ceiling.
//
// Each tenant is a full Djvm (its own heap, GOS, daemon, governor) built
// from its own Config; the coordinator owns them all, runs their governed
// epochs in lockstep, reports each tenant's own meter to the BudgetArbiter,
// and lets it re-divide the global budget between the tenants' governors
// every epoch.  The cluster's overhead is the tenants' meters pooled, so one
// tenant's idle epoch never clobbers another's signal.  The arbiter's
// decision time is real coordinator work: it is billed into the tenants'
// next-epoch coordinator buckets, split evenly, through
// EpochRequest::bill_coordinator.  Each round can be appended to an
// arbitration JSONL log (see export/timeline.hpp arbitration_line).
#pragma once

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/djvm.hpp"
#include "governor/arbiter.hpp"

namespace djvm {

class ClusterCoordinator {
 public:
  explicit ClusterCoordinator(ArbiterKnobs knobs = {});

  /// Builds a tenant VM from `cfg`, registers it with the arbiter, and hands
  /// its governor the initial (fair-split) lease.  The tenant id must be
  /// unique within this coordinator.  Returns the tenant's session handle.
  TenantContext add_tenant(const Config& cfg);

  [[nodiscard]] std::size_t tenant_count() const noexcept {
    return slots_.size();
  }
  /// Tenant VM by slot index (add_tenant order).
  [[nodiscard]] Djvm& vm(std::size_t slot) { return *slots_[slot].vm; }
  [[nodiscard]] TenantContext tenant(std::size_t slot) {
    return slots_[slot].vm->tenant();
  }

  [[nodiscard]] BudgetArbiter& arbiter() noexcept { return arbiter_; }

  /// Starts (truncates) the per-round arbitration JSONL log.
  void set_arbitration_log(const std::string& path);

  /// One cluster round's results: every tenant's epoch, the arbitration that
  /// followed, and the tenants' meters pooled after it (one Σprof/Σapp over
  /// every tenant's window, in slot order — the cluster-ceiling view).
  struct ClusterEpoch {
    std::vector<EpochResult> tenants;  ///< slot order
    ArbitrationOutcome arbitration;
    double cluster_overhead = 0.0;
  };

  /// Runs one governed epoch per tenant (billing the previous round's
  /// arbitration share), feeds the arbiter's reports, arbitrates, and pushes
  /// the recomputed leases back into the tenants' governors.  The caller drives each tenant's application work between
  /// rounds.
  ClusterEpoch run_epoch();

 private:
  struct Slot {
    std::unique_ptr<Djvm> vm;
  };

  BudgetArbiter arbiter_;
  std::vector<Slot> slots_;
  std::ofstream log_;
  /// Last round's arbitration seconds, billed into the next round's epochs.
  double bill_carry_ = 0.0;
};

}  // namespace djvm
