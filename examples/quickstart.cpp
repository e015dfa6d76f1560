// Quickstart: a 60-line tour of the distributed JVM profiling API.
//
//   1. Stand up a 4-node cluster with correlation tracking at rate 4X,
//      governed by the closed-loop profiling controller.
//   2. Allocate shared objects and drive accesses from 8 threads.
//   3. Pull the thread correlation map out of the coordinator daemon.
//
// Build & run:  ./examples/quickstart
#include <iostream>

#include "core/djvm.hpp"
#include "profiling/accuracy.hpp"

using namespace djvm;

int main() {
  // --- 1. cluster ------------------------------------------------------------
  Config cfg;
  cfg.nodes = 4;
  cfg.threads = 8;
  cfg.oal_transfer = OalTransfer::kSend;  // ship OALs to the coordinator
  cfg.sampling_rate_x = 4;                // "4 sampled objects per page"
  // The three-line governor setup: keep profiling under 2% of app time,
  // treat a 5% TCM movement as "still converging", adapt both directions.
  cfg.governor.enabled = true;
  cfg.governor.budget = 0.02;
  cfg.adapt_threshold = 0.05;
  Djvm djvm(cfg);
  djvm.spawn_threads_round_robin(cfg.threads);

  // --- 2. shared data ----------------------------------------------------------
  // A class of 256-byte records; thread pairs (0,1), (2,3), ... share a pool.
  const ClassId record = djvm.registry().register_class("Record", 256);
  std::vector<std::vector<ObjectId>> pools(cfg.threads / 2);
  for (std::size_t pool = 0; pool < pools.size(); ++pool) {
    for (int i = 0; i < 128; ++i) {
      pools[pool].push_back(
          djvm.gos().alloc(record, static_cast<NodeId>(pool % cfg.nodes)));
    }
  }

  for (int round = 0; round < 4; ++round) {
    for (ThreadId t = 0; t < cfg.threads; ++t) {
      for (ObjectId obj : pools[t / 2]) {
        if (t % 2 == 0) {
          djvm.write(t, obj);
        } else {
          djvm.read(t, obj);
        }
      }
    }
    djvm.barrier_all();  // closes every thread's interval, shipping OALs
    // One governed epoch per round: the daemon rebuilds the TCM and the
    // governor adapts the sampling rates against its overhead budget.
    djvm.run_epoch();
  }

  // --- 3. the thread correlation map -----------------------------------------
  djvm.pump_daemon();
  const SquareMatrix tcm = djvm.daemon().build_full();

  std::cout << "Thread correlation map (KB shared per thread pair):\n    ";
  for (ThreadId j = 0; j < cfg.threads; ++j) std::cout << " T" << j << "   ";
  std::cout << '\n';
  for (ThreadId i = 0; i < cfg.threads; ++i) {
    std::cout << "T" << i << ": ";
    for (ThreadId j = 0; j < cfg.threads; ++j) {
      printf("%5.1f ", tcm.at(i, j) / 1024.0);
    }
    std::cout << '\n';
  }

  std::cout << "\nProtocol: " << djvm.gos().stats().object_faults
            << " object faults, " << djvm.gos().stats().oal_entries
            << " OAL entries, "
            << djvm.net().stats().bytes_of(MsgCategory::kOal) << " OAL bytes\n";
  std::cout << "Governor: profiling overhead "
            << djvm.governor().meter().rolling_fraction() * 100.0
            << "% of app time (budget "
            << djvm.governor().config().overhead_budget * 100.0 << "%), "
            << (djvm.governor().converged() ? "converged" : "adapting") << "\n";
  std::cout << "Expected: strong diagonal pairs (T0,T1), (T2,T3), ... and ~zero "
               "elsewhere.\n";
  return 0;
}
