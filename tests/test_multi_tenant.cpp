// Multi-tenant serving: the request-serving workload's determinism and
// diurnal schedule, the TenantContext facade over Djvm, and the
// ClusterCoordinator loop — per-tenant meters pooled into the cluster view,
// per-epoch arbitration with leases pushed back into tenant governors,
// borrow/reclaim across a traffic flip, and the degraded-cannot-borrow rule
// riding the fault-injection substrate.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "apps/request_serving.hpp"
#include "cluster/coordinator.hpp"
#include "core/djvm.hpp"

namespace djvm {
namespace {

Config tenant_config(TenantId id, std::uint32_t tier = 0, double weight = 1.0) {
  Config cfg;
  cfg.nodes = 2;
  cfg.threads = 4;
  cfg.oal_transfer = OalTransfer::kLocalOnly;
  cfg.governor.enabled = true;
  cfg.tenant.id = id;
  cfg.tenant.tier = tier;
  cfg.tenant.weight = weight;
  return cfg;
}

RequestServingParams small_params() {
  RequestServingParams p;
  p.hot_objects = 256;
  p.sessions_per_epoch = 128;
  p.session_ops = 16;
  p.epochs = 3;
  p.phase_period = 2;
  return p;
}

/// One compute-only epoch: app time advances, nothing is profiled.  This is
/// how a tenant "goes quiet" — its overhead fraction decays as the meter
/// window slides over these epochs.
void quiet_epoch(Djvm& vm) {
  for (ThreadId t = 0; t < vm.thread_count(); ++t) {
    vm.gos().clock(t).advance(sim_ms(5));
  }
  vm.barrier_all();
}

TEST(RequestServing, DeterministicAcrossIdenticalRuns) {
  double checksums[2];
  SquareMatrix maps[2];
  for (int run = 0; run < 2; ++run) {
    Djvm vm(tenant_config(0));
    vm.spawn_threads_round_robin(vm.config().threads);
    RequestServingApp app(small_params());
    app.build(vm);
    for (int e = 0; e < 3; ++e) {
      app.serve_epoch(vm);
      vm.run_epoch();
    }
    EXPECT_EQ(app.sessions_served(), 3u * 128u);
    checksums[run] = app.checksum();
    maps[run] = vm.daemon().build_full();
  }
  EXPECT_DOUBLE_EQ(checksums[0], checksums[1]);
  EXPECT_EQ(maps[0], maps[1]);
  ASSERT_GT(maps[0].total(), 0.0);
}

TEST(RequestServing, DiurnalScheduleRotatesTheHotClass) {
  Djvm vm(tenant_config(0));
  vm.spawn_threads_round_robin(vm.config().threads);
  RequestServingParams p = small_params();  // phase_period = 2
  RequestServingApp app(p);
  app.build(vm);
  EXPECT_EQ(app.phase(), 0u);
  EXPECT_EQ(app.hottest_class(), 0u);
  app.serve_epoch(vm);
  app.serve_epoch(vm);
  EXPECT_EQ(app.epochs_served(), 2u);
  EXPECT_EQ(app.phase(), 1u);
  EXPECT_EQ(app.hottest_class(), 1u);  // the popularity ranking rotated
  app.serve_epoch(vm);
  app.serve_epoch(vm);
  EXPECT_EQ(app.hottest_class(), 2u);
}

TEST(TenantApi, ContextExposesIdentityAndAdoptsLeases) {
  Config cfg = tenant_config(3, /*tier=*/1, /*weight=*/2.0);
  cfg.tenant.name = "gold";
  Djvm vm(cfg);
  TenantContext ctx = vm.tenant();
  EXPECT_EQ(ctx.id(), 3u);
  EXPECT_EQ(ctx.name(), "gold");
  EXPECT_EQ(ctx.tier(), 1u);
  EXPECT_DOUBLE_EQ(ctx.weight(), 2.0);
  EXPECT_FALSE(ctx.lease().has_value());

  Governor::TenantLease lease;
  lease.tenant = 3;
  lease.weight = 2.0;
  lease.granted_budget = 0.013;
  ctx.adopt_lease(lease);
  ASSERT_TRUE(ctx.lease().has_value());
  // The grant is live in the governor, without a controller reset.
  EXPECT_DOUBLE_EQ(vm.governor().config().overhead_budget, 0.013);
}

TEST(ClusterCoordinator, ClusterOverheadPoolsTheTenantsOwnMeters) {
  constexpr std::size_t kWindow = 4;  // GovernorConfig::meter_window
  constexpr int kRounds = 6;          // enough for the window to slide
  ClusterCoordinator cluster;
  TenantContext busy = cluster.add_tenant(tenant_config(0));
  cluster.add_tenant(tenant_config(1));
  RequestServingApp app(small_params());
  busy.vm().spawn_threads_round_robin(4);
  cluster.vm(1).spawn_threads_round_robin(4);
  app.build(busy.vm());

  std::vector<ClusterCoordinator::ClusterEpoch> rounds;
  for (int round = 0; round < kRounds; ++round) {
    app.serve_epoch(busy.vm());  // tenant 0 serves traffic
    quiet_epoch(cluster.vm(1));  // tenant 1 computes, profiles nothing
    rounds.push_back(cluster.run_epoch());
  }
  // Each tenant's own meter holds its own epochs: the idle tenant's
  // zero-overhead epochs never dilute the busy one's signal.
  EXPECT_GT(busy.governor().meter().rolling_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(cluster.vm(1).governor().meter().rolling_fraction(), 0.0);

  // Oracle: Σ profiling / Σ app over both tenants' samples from the last
  // kWindow rounds, skipping epochs without application time.  The meters
  // add the same terms in ring-slot order, so the two sums may round apart.
  const OverheadMeter& costs = busy.governor().meter();
  double prof = 0.0, app_seconds = 0.0;
  for (std::size_t r = rounds.size() - kWindow; r < rounds.size(); ++r) {
    for (const EpochResult& e : rounds[r].tenants) {
      if (e.sample.app_seconds <= 0.0) continue;
      prof += costs.profiling_seconds(e.sample);
      app_seconds += e.sample.app_seconds;
    }
  }
  ASSERT_GT(app_seconds, 0.0);
  EXPECT_GT(rounds.back().cluster_overhead, 0.0);
  const double oracle = prof / app_seconds;
  EXPECT_NEAR(rounds.back().cluster_overhead, oracle, 1e-12 * oracle);
}

TEST(ClusterCoordinator, ArbitratesBorrowsAndReclaimsAcrossATrafficFlip) {
  // A global ceiling sized between the two traffic levels this workload
  // actually produces (~1e-3 serving, ~5e-5 compute-quiet), so the serving
  // tenant clears the borrow threshold (0.6 x fair = 3e-4) and the quiet
  // tenant falls under the lend threshold.
  ArbiterKnobs knobs;
  knobs.global_budget = 1e-3;
  ClusterCoordinator cluster(knobs);
  TenantContext a = cluster.add_tenant(tenant_config(0));
  TenantContext b = cluster.add_tenant(tenant_config(1));
  a.vm().spawn_threads_round_robin(4);
  b.vm().spawn_threads_round_robin(4);
  RequestServingApp app_a(small_params());
  RequestServingApp app_b(small_params());
  app_a.build(a.vm());
  app_b.build(b.vm());

  // Phase 1: tenant 0 serves, tenant 1 is compute-quiet.
  ClusterCoordinator::ClusterEpoch round;
  for (int e = 0; e < 6; ++e) {
    app_a.serve_epoch(a.vm());
    quiet_epoch(b.vm());
    round = cluster.run_epoch();
    EXPECT_LE(round.arbitration.granted_total,
              round.arbitration.global_budget + 1e-12);
  }
  ASSERT_EQ(round.arbitration.leases.size(), 2u);
  EXPECT_GT(round.arbitration.leases[0].granted_budget,
            round.arbitration.leases[0].fair_share);
  EXPECT_LT(round.arbitration.leases[1].granted_budget,
            round.arbitration.leases[1].fair_share);
  // The leases the arbiter computed are live in the tenants' governors.
  ASSERT_TRUE(a.lease().has_value());
  EXPECT_DOUBLE_EQ(a.lease()->granted_budget,
                   round.arbitration.leases[0].granted_budget);
  EXPECT_DOUBLE_EQ(a.vm().governor().config().overhead_budget,
                   round.arbitration.leases[0].granted_budget);

  // Phase 2: traffic flips.  The old borrower's loan is reclaimed as the
  // meter window slides over its quiet epochs; the woken tenant borrows.
  for (int e = 0; e < 6; ++e) {
    quiet_epoch(a.vm());
    app_b.serve_epoch(b.vm());
    round = cluster.run_epoch();
  }
  EXPECT_LT(round.arbitration.leases[0].granted_budget,
            round.arbitration.leases[0].fair_share);
  EXPECT_GT(round.arbitration.leases[1].granted_budget,
            round.arbitration.leases[1].fair_share);
  EXPECT_GT(round.arbitration.leases[0].lent_epochs, 0u);
  EXPECT_GT(round.arbitration.leases[0].borrowed_epochs, 0u);
}

TEST(ClusterCoordinator, DegradedTenantCannotBorrowFromHealthyPeers) {
  ClusterCoordinator cluster;
  Config faulty = tenant_config(0);
  faulty.oal_transfer = OalTransfer::kSend;
  faulty.faults.enabled = true;
  faulty.faults.kill_node = 1;
  faulty.faults.kill_epoch = 1;
  TenantContext sick = cluster.add_tenant(faulty);
  TenantContext well = cluster.add_tenant(tenant_config(1));
  sick.vm().spawn_threads_round_robin(4);
  well.vm().spawn_threads_round_robin(4);
  RequestServingApp app_sick(small_params());
  RequestServingApp app_well(small_params());
  app_sick.build(sick.vm());
  app_well.build(well.vm());

  bool saw_degraded = false;
  ClusterCoordinator::ClusterEpoch round;
  for (int e = 0; e < 4; ++e) {
    app_sick.serve_epoch(sick.vm());
    app_well.serve_epoch(well.vm());
    round = cluster.run_epoch();
    saw_degraded = saw_degraded || round.tenants[0].degraded;
    if (round.tenants[0].degraded) {
      // However hot its surviving nodes report, a degraded tenant is
      // barred from borrowing: its peers' budgets are protected.
      EXPECT_LE(round.arbitration.leases[0].granted_budget,
                round.arbitration.leases[0].fair_share + 1e-12);
    }
    EXPECT_LE(round.arbitration.granted_total,
              round.arbitration.global_budget + 1e-12);
  }
  EXPECT_TRUE(saw_degraded);
  EXPECT_GE(round.arbitration.leases[1].granted_budget,
            round.arbitration.leases[1].floor);
}

TEST(ClusterCoordinator, ArbitrationLogRecordsEveryRound) {
  const std::string path = ::testing::TempDir() + "arbitration_log.jsonl";
  {
    ClusterCoordinator cluster;
    cluster.set_arbitration_log(path);
    TenantContext t = cluster.add_tenant(tenant_config(0));
    t.vm().spawn_threads_round_robin(4);
    RequestServingApp app(small_params());
    app.build(t.vm());
    for (int e = 0; e < 2; ++e) {
      app.serve_epoch(t.vm());
      cluster.run_epoch();
    }
  }
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_NE(line.find("\"epoch\":"), std::string::npos);
    EXPECT_NE(line.find("\"leases\":"), std::string::npos);
    EXPECT_NE(line.find("\"cluster_overhead\":"), std::string::npos);
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace djvm
