// Per-node overhead budgets under a skewed cluster (ISSUE 2 acceptance).
//
// One worker node is ~10x hotter than the rest: node 1's thread pair (1,5)
// churns through a large pool of small "Junk" objects (single-reader halves
// — pure profiling cost, zero correlation information) plus a shared
// "Signal" pool, with little compute per access; the other three nodes'
// pairs deterministically scan modest "Cold" pools with heavy compute.  The
// profiling cost each node pays is local (access checks, OAL wire,
// resampling), so node 1's overhead *fraction* runs far over budget while
// the cluster-wide average — diluted by the cold nodes' application time —
// sits comfortably inside it.
//
// Two governed runs over identical traffic:
//   cluster  — PR 1's cluster-aggregate policy (per_node off): the average
//              never crosses the band, so node 1 is left blowing its local
//              budget for the whole run;
//   per-node — worst-offender enforcement: the governor backs off only the
//              classes dominating node 1's cost (per-(node,class) gap
//              shifts), holding node 1 inside the budgeted band while the
//              cold nodes' rates — and the correlation map — stay intact.
// Plus a full-sampling oracle as the accuracy reference.
//
// Acceptance: the hot node's tail overhead fraction exceeds the budget
// ceiling under the cluster policy and stays within it under per-node
// control, with a converged TCM no worse (vs the oracle) than the cluster
// policy produced, and the backoff confined to the hot node's classes.
#include <algorithm>
#include <iostream>

#include "governor/governor.hpp"
#include "harness.hpp"

using namespace djvm;
using namespace djvm::bench;

namespace {

constexpr std::uint32_t kNodes = 4;
constexpr std::uint32_t kThreads = 8;     // thread t lives on node t % 4
constexpr NodeId kHotNode = 1;            // threads 1 and 5 (node 0 hosts the
                                          // coordinator: its OAL wire is free)
constexpr std::uint32_t kEpochs = 16;
constexpr std::uint32_t kTail = 4;

constexpr std::uint32_t kJunkCount = 16384;   // 64 B, disjoint halves
constexpr std::uint32_t kSignalCount = 2048;  // 1 KB, shared by the hot pair
constexpr std::uint32_t kColdCount = 256;     // 2 KB, shared per cold pair
constexpr SimTime kHotCompute = 500;          // ns of app work per hot access
constexpr SimTime kColdCompute = 100000;      // heavy compute on cold nodes

constexpr std::uint32_t kJunkGap = 32;
constexpr std::uint32_t kSignalGap = 4;
constexpr std::uint32_t kColdGap = 4;

constexpr double kBudget = 0.012;      // per-node and cluster budget
constexpr double kHysteresis = 0.25;   // dead band: enforcement above 1.5%
constexpr double kCeiling = kBudget * (1.0 + kHysteresis);

enum class RunMode { kClusterPolicy, kPerNode, kOracle };

struct RunLog {
  std::vector<double> hot_frac;      // node 1 rolling fraction per epoch
  std::vector<double> cluster_frac;  // cluster rolling fraction per epoch
  SquareMatrix final_tcm;
  std::uint32_t junk_shift = 0;      // hot node's final Junk gap shift
  std::uint32_t signal_shift = 0;
  std::uint32_t cold_shift_total = 0;  // shifts on any cold (node, class)
  std::uint32_t cold_gap_final = 0;
};

RunLog run(RunMode mode) {
  Config cfg;
  cfg.nodes = kNodes;
  cfg.threads = kThreads;
  cfg.oal_transfer = OalTransfer::kSend;
  Djvm djvm(cfg);
  djvm.spawn_threads_round_robin(kThreads);

  const ClassId junk = djvm.registry().register_class("Junk", 64);
  const ClassId signal = djvm.registry().register_class("Signal", 1024);
  const ClassId cold = djvm.registry().register_class("Cold", 2048);

  std::vector<ObjectId> junk_pool, signal_pool;
  for (std::uint32_t i = 0; i < kJunkCount; ++i) {
    junk_pool.push_back(djvm.gos().alloc(junk, kHotNode));
  }
  for (std::uint32_t i = 0; i < kSignalCount; ++i) {
    signal_pool.push_back(djvm.gos().alloc(signal, kHotNode));
  }
  // Cold pools live on nodes 0, 2, 3; each is scanned by that node's pair.
  std::vector<std::vector<ObjectId>> cold_pools(kNodes);
  for (NodeId n = 0; n < kNodes; ++n) {
    if (n == kHotNode) continue;
    for (std::uint32_t i = 0; i < kColdCount; ++i) {
      cold_pools[n].push_back(djvm.gos().alloc(cold, n));
    }
  }

  if (mode != RunMode::kOracle) {
    djvm.plan().set_nominal_gap(junk, kJunkGap);
    djvm.plan().set_nominal_gap(signal, kSignalGap);
    djvm.plan().set_nominal_gap(cold, kColdGap);
    djvm.plan().resample_all();
    GovernorConfig gcfg;
    gcfg.overhead_budget = kBudget;
    gcfg.hysteresis = kHysteresis;
    gcfg.per_node = mode == RunMode::kPerNode;
    // The workload is deterministic: watch the sentinel at the converged
    // rates so the steady-state budget comparison is not blurred by extra
    // coarsening.
    gcfg.sentinel_coarsen_shifts = 0;
    djvm.governor().arm(gcfg);
  }

  RunLog log;
  for (std::uint32_t epoch = 0; epoch < kEpochs; ++epoch) {
    for (ThreadId t = 0; t < kThreads; ++t) {
      const NodeId node = static_cast<NodeId>(t % kNodes);
      std::uint64_t accesses = 0;
      if (node == kHotNode) {
        // Disjoint Junk halves: profiling cost with no correlation value.
        const std::size_t half = kJunkCount / 2;
        const std::size_t begin = t < kNodes ? 0 : half;
        for (std::size_t i = begin; i < begin + half; ++i) {
          djvm.read(t, junk_pool[i]);
          ++accesses;
        }
        for (ObjectId o : signal_pool) {
          djvm.read(t, o);
          ++accesses;
        }
        djvm.gos().clock(t).advance(accesses * kHotCompute);
      } else {
        for (ObjectId o : cold_pools[node]) {
          djvm.read(t, o);
          ++accesses;
        }
        djvm.gos().clock(t).advance(accesses * kColdCompute);
      }
    }
    djvm.barrier_all();

    const EpochResult e = djvm.run_epoch();
    log.hot_frac.push_back(
        djvm.governor().meter().node_rolling_fraction(kHotNode));
    log.cluster_frac.push_back(e.overhead_fraction);
  }

  log.final_tcm = djvm.daemon().latest();
  log.junk_shift = djvm.plan().node_gap_shift(kHotNode, junk);
  log.signal_shift = djvm.plan().node_gap_shift(kHotNode, signal);
  for (NodeId n = 0; n < kNodes; ++n) {
    if (n == kHotNode) continue;
    log.cold_shift_total += djvm.plan().node_gap_shift(n, junk) +
                            djvm.plan().node_gap_shift(n, signal) +
                            djvm.plan().node_gap_shift(n, cold);
  }
  log.cold_gap_final = djvm.plan().nominal_gap(cold);
  return log;
}

double tail_mean(const std::vector<double>& v, std::size_t tail) {
  double sum = 0.0;
  for (std::size_t i = v.size() - tail; i < v.size(); ++i) sum += v[i];
  return sum / static_cast<double>(tail);
}

double tail_max(const std::vector<double>& v, std::size_t tail) {
  double m = 0.0;
  for (std::size_t i = v.size() - tail; i < v.size(); ++i) m = std::max(m, v[i]);
  return m;
}

}  // namespace

int main() {
  std::cout << "=== Per-node budgets under a skewed cluster (node " << kHotNode
            << " ~10x hotter) ===\n";
  std::cout << "(budget " << kBudget * 100 << "% of each node's app time, band ceiling "
            << kCeiling * 100 << "%, " << kEpochs << " epochs)\n\n";

  const RunLog cluster = run(RunMode::kClusterPolicy);
  const RunLog per_node = run(RunMode::kPerNode);
  const RunLog oracle = run(RunMode::kOracle);

  TextTable t({"Epoch", "Cluster-policy hot%", "Cluster-policy avg%",
               "Per-node hot%", "Per-node avg%"});
  for (std::uint32_t i = 0; i < kEpochs; ++i) {
    t.add_row({TextTable::cell(static_cast<std::uint64_t>(i)),
               TextTable::cell_pct(cluster.hot_frac[i], 3),
               TextTable::cell_pct(cluster.cluster_frac[i], 3),
               TextTable::cell_pct(per_node.hot_frac[i], 3),
               TextTable::cell_pct(per_node.cluster_frac[i], 3)});
  }
  t.print(std::cout);

  const double hot_tail_cluster = tail_mean(cluster.hot_frac, kTail);
  const double hot_tail_per_node = tail_max(per_node.hot_frac, kTail);
  const double avg_tail_cluster = tail_mean(cluster.cluster_frac, kTail);
  const double err_cluster = absolute_error(cluster.final_tcm, oracle.final_tcm);
  const double err_per_node = absolute_error(per_node.final_tcm, oracle.final_tcm);

  std::cout << "\nHot-node tail overhead: cluster policy "
            << hot_tail_cluster * 100 << "%, per-node " << hot_tail_per_node * 100
            << "% (ceiling " << kCeiling * 100 << "%)\n";
  std::cout << "Cluster average under cluster policy: " << avg_tail_cluster * 100
            << "% (the aggregate hides the hot node)\n";
  std::cout << "Final map error vs oracle: cluster " << err_cluster
            << ", per-node " << err_per_node << "\n";
  std::cout << "Hot-node shifts: junk " << per_node.junk_shift << ", signal "
            << per_node.signal_shift << "; cold-node shifts "
            << per_node.cold_shift_total << ", cold base gap "
            << per_node.cold_gap_final << "\n\n";

  BenchReport report("governor_per_node");
  report.metric("hot_tail_cluster_policy", hot_tail_cluster);
  report.metric("hot_tail_per_node", hot_tail_per_node, "min", 0.30, 0.002);
  report.metric("cluster_avg_cluster_policy", avg_tail_cluster);
  report.metric("oracle_error_cluster_policy", err_cluster, "min", 0.50, 0.01);
  report.metric("oracle_error_per_node", err_per_node, "min", 0.50, 0.01);
  report.metric("hot_junk_shift", static_cast<double>(per_node.junk_shift));
  report.metric("cold_shift_total", static_cast<double>(per_node.cold_shift_total));

  report.check(
      "cluster-wide policy leaves the hot node over its per-node budget ceiling",
      hot_tail_cluster > kCeiling, hot_tail_cluster, kCeiling, ">");
  report.check(
      "cluster-wide policy never trips on the aggregate (hot node hidden)",
      avg_tail_cluster <= kCeiling, avg_tail_cluster, kCeiling, "<=");
  report.check("per-node policy holds the hot node inside the budget ceiling",
               hot_tail_per_node <= kCeiling, hot_tail_per_node, kCeiling, "<=");
  report.check("per-node converged map no worse than the cluster policy's",
               err_per_node <= err_cluster + 0.02, err_per_node,
               err_cluster + 0.02, "<=");
  report.check("per-node converged map stays close to the oracle",
               err_per_node <= 0.05, err_per_node, 0.05, "<=");
  report.check("backoff targeted the hot node's junk class",
               per_node.junk_shift >= 1,
               static_cast<double>(per_node.junk_shift), 1, ">=");
  report.check("cold nodes kept their rates (no shifts, base gap unchanged)",
               per_node.cold_shift_total == 0 &&
                   per_node.cold_gap_final == kColdGap,
               static_cast<double>(per_node.cold_shift_total), 0, "==");
  return report.finish();  // nonzero fails the CI acceptance step
}
