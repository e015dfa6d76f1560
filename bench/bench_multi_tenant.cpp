// Multi-tenant request serving under one cluster overhead ceiling (PR 10
// acceptance).
//
// Three tenant DJVMs share a 0.2% global profiling budget.  Tenant 0 is a
// hot request-serving tenant — Zipf-skewed session traffic whose full-rate
// profiling costs ~0.12% of its application time, nearly twice the 0.067%
// even split.  Tenants 1 and 2 are compute-quiet: plenty of application
// time, almost no profiled accesses.
//
// Three runs over identical hot-tenant traffic:
//   arbitrated — the ClusterCoordinator's BudgetArbiter re-divides the
//                global budget every epoch: the quiet tenants lend down to
//                their starvation floor and the hot tenant borrows enough
//                headroom to keep sampling at full rate;
//   even-split — each tenant's governor is pinned to the static fair share
//                (global/3).  The hot tenant blows its slice, the governor
//                coarsens its gaps, and the correlation map pays for it;
//   oracle     — the hot tenant ungoverned at full sampling: the accuracy
//                reference.
//
// Acceptance: the hot tenant borrows above its fair share in the steady
// tail while every grant stays at or above the floor and the granted total
// never exceeds the global budget; both governed runs hold the cluster
// ceiling (equal total overhead), but the arbitrated hot map lands much
// closer to the oracle than the even-split map; and a quiet single-tenant
// run through the tenant API reproduces the legacy entry point bit-for-bit.
#include <algorithm>
#include <iostream>
#include <limits>

#include "apps/request_serving.hpp"
#include "cluster/coordinator.hpp"
#include "harness.hpp"

using namespace djvm;
using namespace djvm::bench;

namespace {

constexpr std::uint32_t kTenants = 3;
constexpr std::uint32_t kEpochs = 24;
constexpr std::uint32_t kTail = 6;
constexpr std::uint32_t kThreads = 4;
constexpr double kGlobalBudget = 2e-3;
constexpr double kFairShare = kGlobalBudget / kTenants;
constexpr double kHysteresis = 0.25;  // the governor's default dead band

Config tenant_config(TenantId id) {
  Config cfg;
  cfg.nodes = 2;
  cfg.threads = kThreads;
  cfg.oal_transfer = OalTransfer::kLocalOnly;
  cfg.governor.enabled = true;
  cfg.tenant.id = id;
  return cfg;
}

RequestServingParams hot_params() {
  RequestServingParams p;
  p.hot_objects = 256;
  p.sessions_per_epoch = 128;
  p.session_ops = 16;
  p.phase_period = 16;  // one diurnal shift inside the run
  return p;
}

/// One compute-quiet epoch: application time advances, almost nothing is
/// profiled, so the tenant's overhead fraction sits far under its share.
void quiet_epoch(Djvm& vm) {
  for (ThreadId t = 0; t < vm.thread_count(); ++t) {
    vm.gos().clock(t).advance(sim_ms(5));
  }
  vm.barrier_all();
}

struct RunLog {
  std::vector<double> hot_frac;      ///< hot tenant rolling fraction per epoch
  std::vector<double> hot_grant;     ///< hot tenant granted budget per epoch
  std::vector<double> cluster_frac;  ///< tenants' meters pooled per epoch
  SquareMatrix hot_map;
  std::uint32_t borrow_rounds = 0;  ///< rounds the hot grant beat fair share
  double min_grant = std::numeric_limits<double>::infinity();
  double max_granted_total = 0.0;
};

RunLog run_arbitrated() {
  ArbiterKnobs knobs;
  knobs.global_budget = kGlobalBudget;
  ClusterCoordinator cluster(knobs);
  for (TenantId id = 0; id < kTenants; ++id) {
    TenantContext t = cluster.add_tenant(tenant_config(id));
    t.vm().spawn_threads_round_robin(kThreads);
  }
  RequestServingApp app(hot_params());
  app.build(cluster.vm(0));

  RunLog log;
  for (std::uint32_t epoch = 0; epoch < kEpochs; ++epoch) {
    app.serve_epoch(cluster.vm(0));
    quiet_epoch(cluster.vm(1));
    quiet_epoch(cluster.vm(2));
    const ClusterCoordinator::ClusterEpoch round = cluster.run_epoch();
    log.hot_frac.push_back(cluster.vm(0).governor().meter().rolling_fraction());
    log.hot_grant.push_back(round.arbitration.leases[0].granted_budget);
    log.cluster_frac.push_back(round.cluster_overhead);
    if (round.arbitration.leases[0].granted_budget > kFairShare + 1e-12) {
      ++log.borrow_rounds;
    }
    for (const auto& lease : round.arbitration.leases) {
      log.min_grant = std::min(log.min_grant, lease.granted_budget);
    }
    log.max_granted_total =
        std::max(log.max_granted_total, round.arbitration.granted_total);
  }
  log.hot_map = cluster.vm(0).daemon().build_full();
  return log;
}

RunLog run_even_split() {
  std::vector<std::unique_ptr<Djvm>> vms;
  for (TenantId id = 0; id < kTenants; ++id) {
    Config cfg = tenant_config(id);
    cfg.governor.budget = kFairShare;  // static fair split, no arbitration
    vms.push_back(std::make_unique<Djvm>(cfg));
    vms.back()->spawn_threads_round_robin(kThreads);
  }
  RequestServingApp app(hot_params());
  app.build(*vms[0]);
  // The cluster view pools the tenants' own meters, as the coordinator does.
  std::vector<const OverheadMeter*> meters;
  for (const auto& vm : vms) meters.push_back(&vm->governor().meter());

  RunLog log;
  for (std::uint32_t epoch = 0; epoch < kEpochs; ++epoch) {
    app.serve_epoch(*vms[0]);
    quiet_epoch(*vms[1]);
    quiet_epoch(*vms[2]);
    for (auto& vm : vms) vm->run_epoch(EpochRequest{});
    log.hot_frac.push_back(meters[0]->rolling_fraction());
    log.hot_grant.push_back(kFairShare);
    log.cluster_frac.push_back(OverheadMeter::pooled_rolling_fraction(meters));
  }
  log.hot_map = vms[0]->daemon().build_full();
  return log;
}

SquareMatrix run_oracle() {
  Config cfg = tenant_config(0);
  cfg.governor.enabled = false;  // no back-off
  Djvm vm(cfg);
  vm.spawn_threads_round_robin(kThreads);
  RequestServingApp app(hot_params());
  app.build(vm);
  // Classes seed size-derived gaps; force full sampling for the reference.
  for (ClassId c = 0; c < vm.registry().size(); ++c) {
    vm.plan().set_nominal_gap(c, 1);
  }
  vm.plan().resample_all();
  for (std::uint32_t epoch = 0; epoch < kEpochs; ++epoch) {
    app.serve_epoch(vm);
    vm.run_epoch(EpochRequest{});
  }
  return vm.daemon().build_full();
}

/// The quiet single-tenant equivalence probe: the same workload through
/// Djvm::run_epoch and through the tenant API must produce bit-identical
/// correlation maps.
double api_equivalence_error() {
  SquareMatrix maps[2];
  for (int side = 0; side < 2; ++side) {
    Djvm vm(tenant_config(0));
    vm.spawn_threads_round_robin(kThreads);
    RequestServingApp app(hot_params());
    app.build(vm);
    TenantContext tenant = vm.tenant();
    for (std::uint32_t epoch = 0; epoch < 8; ++epoch) {
      app.serve_epoch(vm);
      if (side == 0) {
        vm.run_epoch();
      } else {
        tenant.run_epoch();
      }
    }
    maps[side] = vm.daemon().build_full();
  }
  return absolute_error(maps[0], maps[1]);
}

/// Normalizes a map to unit mass: what the balancer consumes is the
/// *relative* sharing structure, and gap-weighted estimates under different
/// back-off histories scale the whole map differently — comparing raw mass
/// would measure that scale, not fidelity.
SquareMatrix unit_mass(SquareMatrix m) {
  const double total = m.total();
  if (total > 0.0) {
    for (double& v : m.raw()) v /= total;
  }
  return m;
}

double tail_mean(const std::vector<double>& v, std::size_t tail) {
  double sum = 0.0;
  for (std::size_t i = v.size() - tail; i < v.size(); ++i) sum += v[i];
  return sum / static_cast<double>(tail);
}

}  // namespace

int main() {
  std::cout << "=== Multi-tenant serving under one cluster ceiling ("
            << kTenants << " tenants, global budget " << kGlobalBudget * 100
            << "%, fair share " << kFairShare * 100 << "%) ===\n\n";

  const RunLog arb = run_arbitrated();
  const RunLog even = run_even_split();
  const SquareMatrix oracle = run_oracle();
  const double api_error = api_equivalence_error();

  TextTable t({"Epoch", "Arb hot%", "Arb grant%", "Arb cluster%",
               "Even hot%", "Even cluster%"});
  for (std::uint32_t i = 0; i < kEpochs; ++i) {
    t.add_row({TextTable::cell(static_cast<std::uint64_t>(i)),
               TextTable::cell_pct(arb.hot_frac[i], 4),
               TextTable::cell_pct(arb.hot_grant[i], 4),
               TextTable::cell_pct(arb.cluster_frac[i], 4),
               TextTable::cell_pct(even.hot_frac[i], 4),
               TextTable::cell_pct(even.cluster_frac[i], 4)});
  }
  t.print(std::cout);

  const double hot_tail_grant = tail_mean(arb.hot_grant, kTail);
  const double hot_tail_frac = tail_mean(arb.hot_frac, kTail);
  const double cluster_tail_arb = tail_mean(arb.cluster_frac, kTail);
  const double cluster_tail_even = tail_mean(even.cluster_frac, kTail);
  const SquareMatrix oracle_unit = unit_mass(oracle);
  const double err_arb = absolute_error(unit_mass(arb.hot_map), oracle_unit);
  const double err_even = absolute_error(unit_mass(even.hot_map), oracle_unit);
  const double global_ceiling = kGlobalBudget * (1.0 + kHysteresis);

  std::cout << "\nHot tenant tail: granted " << hot_tail_grant * 100
            << "% (fair " << kFairShare * 100 << "%), overhead "
            << hot_tail_frac * 100 << "%\n";
  std::cout << "Cluster tail overhead: arbitrated " << cluster_tail_arb * 100
            << "%, even-split " << cluster_tail_even * 100 << "% (ceiling "
            << global_ceiling * 100 << "%)\n";
  std::cout << "Hot map error vs oracle: arbitrated " << err_arb
            << ", even-split " << err_even << "\n";
  std::cout << "Borrow rounds " << arb.borrow_rounds << "/" << kEpochs
            << ", min grant " << arb.min_grant * 100 << "%, max granted total "
            << arb.max_granted_total * 100 << "%\n";
  std::cout << "Tenant-API equivalence error: " << api_error << "\n\n";

  BenchReport report("multi_tenant");
  report.metric("hot_tail_granted", hot_tail_grant);
  report.metric("hot_tail_overhead", hot_tail_frac);
  report.metric("cluster_tail_arbitrated", cluster_tail_arb);
  report.metric("cluster_tail_even_split", cluster_tail_even);
  report.metric("oracle_error_arbitrated", err_arb, "min", 0.50, 0.01);
  report.metric("oracle_error_even_split", err_even);
  report.metric("borrow_rounds", static_cast<double>(arb.borrow_rounds));
  report.metric("api_equivalence_error", api_error, "min", 0.0, 0.0);

  report.check("hot tenant borrows above its fair share in the steady tail",
               hot_tail_grant > kFairShare, hot_tail_grant, kFairShare, ">");
  report.check("every grant stays at or above the starvation floor",
               arb.min_grant >= kFloorShare * kFairShare - 1e-12, arb.min_grant,
               kFloorShare * kFairShare, ">=");
  report.check("granted total never exceeds the global budget",
               arb.max_granted_total <= kGlobalBudget + 1e-12,
               arb.max_granted_total, kGlobalBudget, "<=");
  report.check("arbitrated cluster overhead holds the global ceiling",
               cluster_tail_arb <= global_ceiling, cluster_tail_arb,
               global_ceiling, "<=");
  report.check("even-split cluster overhead holds the same ceiling "
               "(equal-total-overhead comparison)",
               cluster_tail_even <= global_ceiling, cluster_tail_even,
               global_ceiling, "<=");
  report.check("arbitrated hot map beats the even-split map at equal overhead",
               err_arb < 0.5 * err_even, err_arb, 0.5 * err_even, "<");
  report.check("tenant API reproduces the legacy entry point bit-for-bit",
               api_error == 0.0, api_error, 0.0, "==");
  return report.finish();  // nonzero fails the CI acceptance step
}
