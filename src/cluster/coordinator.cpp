#include "cluster/coordinator.hpp"

#include "export/timeline.hpp"

namespace djvm {

ClusterCoordinator::ClusterCoordinator(ArbiterKnobs knobs) : arbiter_(knobs) {}

TenantContext ClusterCoordinator::add_tenant(const Config& cfg) {
  slots_.push_back(Slot{std::make_unique<Djvm>(cfg)});
  Djvm& vm = *slots_.back().vm;
  const Governor::TenantLease& seed =
      arbiter_.register_tenant(cfg.tenant);
  vm.governor().adopt_lease(seed);
  return vm.tenant();
}

void ClusterCoordinator::set_arbitration_log(const std::string& path) {
  log_.open(path, std::ios::trunc);
}

ClusterCoordinator::ClusterEpoch ClusterCoordinator::run_epoch() {
  ClusterEpoch out;
  out.tenants.reserve(slots_.size());
  const double bill =
      slots_.empty() ? 0.0 : bill_carry_ / static_cast<double>(slots_.size());
  bill_carry_ = 0.0;
  for (Slot& s : slots_) {
    EpochRequest req;
    req.bill_coordinator(bill);
    EpochResult r = s.vm->run_epoch(req);
    TenantReport rep;
    rep.tenant = s.vm->config().tenant.id;
    rep.rolling_fraction = s.vm->governor().meter().rolling_fraction();
    rep.degraded = r.degraded;
    arbiter_.report(rep);
    out.tenants.push_back(std::move(r));
  }
  out.arbitration = arbiter_.arbitrate();
  bill_carry_ = out.arbitration.decision_seconds;
  for (const Governor::TenantLease& lease : out.arbitration.leases) {
    for (Slot& s : slots_) {
      if (s.vm->config().tenant.id == lease.tenant) {
        s.vm->governor().adopt_lease(lease);
        break;
      }
    }
  }
  std::vector<const OverheadMeter*> meters;
  meters.reserve(slots_.size());
  for (const Slot& s : slots_) meters.push_back(&s.vm->governor().meter());
  out.cluster_overhead = OverheadMeter::pooled_rolling_fraction(meters);
  if (log_.is_open()) {
    log_ << arbitration_line(out.arbitration, out.cluster_overhead);
    log_.flush();
  }
  return out;
}

}  // namespace djvm
