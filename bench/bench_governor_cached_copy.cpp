// Cached-copy vs home-node sampling-cost attribution (ISSUE 3 acceptance).
//
// A sharing-skewed cluster: node 1's thread pair (1,5) churns through large
// "Junk" and "Signal" pools that are homed on nodes 2 and 3 — node 1 only
// *caches* them — with little compute per access, while the other nodes'
// pairs scan modest locally-homed "Cold" pools with heavy compute.  The
// profiling cost (OAL log service, wire shipping) is paid by the accessing
// node, so node 1 runs far over its per-node budget.
//
// Two governed runs over identical traffic, both with per-node worst-offender
// enforcement armed; only the sampling-cost attribution model differs:
//   home — the pre-fix model (CostAttribution::kHomeNode): one cluster-wide
//          sampled bit per object, keyed to the *home* node's gap shift.
//          The governor correctly fingers node 1 and bumps its shifts, but
//          the bits it needs to coarsen belong to homes on nodes 2/3: the
//          backoff resamples nothing node 1 reads, its logging never drops,
//          and it stays over the ceiling for the whole run;
//   copy — the paper's model (default): every caching node keeps its copy's
//          bit under its own effective gap and the backoff walks exactly the
//          copies node 1 caches, so the same controller holds every node
//          inside the budgeted band.
// Plus a full-sampling oracle as the accuracy reference.
//
// Acceptance: home attribution leaves the heavy-caching node over its
// per-node ceiling while copy attribution holds every node under budget, at
// equal (+-5% absolute TCM distance) accuracy, with the backoff confined to
// the caching node and the resampling cost billed to the node that walked.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "governor/governor.hpp"
#include "harness.hpp"

using namespace djvm;
using namespace djvm::bench;

namespace {

constexpr std::uint32_t kNodes = 4;
constexpr std::uint32_t kThreads = 8;  // thread t lives on node t % 4
constexpr NodeId kCachingNode = 1;     // threads 1 and 5; caches all hot pools
constexpr NodeId kHomeA = 2;           // junk halves + signal are homed here...
constexpr NodeId kHomeB = 3;           // ...and here: node 1 holds only copies
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

enum class RunMode { kHomeAttribution, kCopyAttribution, kOracle };

struct RunLog {
  std::vector<std::vector<double>> node_frac;  // [node][epoch] rolling frac
  SquareMatrix final_tcm;
  std::uint32_t junk_shift = 0;    // caching node's final Junk gap shift
  std::uint32_t signal_shift = 0;
  std::uint32_t other_shift_total = 0;  // shifts on any other (node, class)
  std::uint32_t cold_gap_final = 0;
  std::uint64_t visits_caching_node = 0;  // resample visits billed to node 1
  std::uint64_t visits_homes = 0;         // ...and to the home nodes 2+3
};

RunLog run(RunMode mode) {
  Config cfg;
  cfg.nodes = kNodes;
  cfg.threads = kThreads;
  cfg.oal_transfer = OalTransfer::kSend;
  cfg.cost_attribution = mode == RunMode::kHomeAttribution
                             ? CostAttribution::kHomeNode
                             : CostAttribution::kCachedCopy;
  Djvm djvm(cfg);
  djvm.spawn_threads_round_robin(kThreads);

  const ClassId junk = djvm.registry().register_class("Junk", 64);
  const ClassId signal = djvm.registry().register_class("Signal", 1024);
  const ClassId cold = djvm.registry().register_class("Cold", 2048);

  // The hot pools live on nodes 2 and 3; node 1 will only ever cache them.
  std::vector<ObjectId> junk_pool, signal_pool;
  for (std::uint32_t i = 0; i < kJunkCount; ++i) {
    junk_pool.push_back(djvm.gos().alloc(junk, i < kJunkCount / 2 ? kHomeA : kHomeB));
  }
  for (std::uint32_t i = 0; i < kSignalCount; ++i) {
    signal_pool.push_back(djvm.gos().alloc(signal, i % 2 == 0 ? kHomeA : kHomeB));
  }
  // Cold pools live on nodes 0, 2, 3; each is scanned by that node's pair.
  std::vector<std::vector<ObjectId>> cold_pools(kNodes);
  for (NodeId n = 0; n < kNodes; ++n) {
    if (n == kCachingNode) continue;
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
    gcfg.per_node = true;
    // The workload is deterministic: watch the sentinel at the converged
    // rates so the steady-state budget comparison is not blurred by extra
    // coarsening.
    gcfg.sentinel_coarsen_shifts = 0;
    djvm.governor().arm(gcfg);
  }

  RunLog log;
  log.node_frac.resize(kNodes);
  for (std::uint32_t epoch = 0; epoch < kEpochs; ++epoch) {
    for (ThreadId t = 0; t < kThreads; ++t) {
      const NodeId node = static_cast<NodeId>(t % kNodes);
      std::uint64_t accesses = 0;
      if (node == kCachingNode) {
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

    djvm.run_epoch();
    for (NodeId n = 0; n < kNodes; ++n) {
      log.node_frac[n].push_back(djvm.governor().meter().node_rolling_fraction(n));
    }
  }

  log.final_tcm = djvm.daemon().latest();
  log.junk_shift = djvm.plan().node_gap_shift(kCachingNode, junk);
  log.signal_shift = djvm.plan().node_gap_shift(kCachingNode, signal);
  for (NodeId n = 0; n < kNodes; ++n) {
    if (n == kCachingNode) continue;
    log.other_shift_total += djvm.plan().node_gap_shift(n, junk) +
                             djvm.plan().node_gap_shift(n, signal) +
                             djvm.plan().node_gap_shift(n, cold);
  }
  log.cold_gap_final = djvm.plan().nominal_gap(cold);
  log.visits_caching_node = djvm.plan().resample_visits(kCachingNode);
  log.visits_homes =
      djvm.plan().resample_visits(kHomeA) + djvm.plan().resample_visits(kHomeB);
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
  std::cout << "=== Cached-copy vs home-node sampling-cost attribution ===\n";
  std::cout << "(node " << kCachingNode << " caches hot pools homed on nodes "
            << kHomeA << "/" << kHomeB << "; per-node budget " << kBudget * 100
            << "% of each node's app time, band ceiling " << kCeiling * 100
            << "%, " << kEpochs << " epochs)\n\n";

  const RunLog home = run(RunMode::kHomeAttribution);
  const RunLog copy = run(RunMode::kCopyAttribution);
  const RunLog oracle = run(RunMode::kOracle);

  TextTable t({"Epoch", "Home-attr caching%", "Home-attr homes-max%",
               "Copy-attr caching%", "Copy-attr homes-max%"});
  for (std::uint32_t i = 0; i < kEpochs; ++i) {
    t.add_row({TextTable::cell(static_cast<std::uint64_t>(i)),
               TextTable::cell_pct(home.node_frac[kCachingNode][i], 3),
               TextTable::cell_pct(std::max(home.node_frac[kHomeA][i],
                                            home.node_frac[kHomeB][i]), 3),
               TextTable::cell_pct(copy.node_frac[kCachingNode][i], 3),
               TextTable::cell_pct(std::max(copy.node_frac[kHomeA][i],
                                            copy.node_frac[kHomeB][i]), 3)});
  }
  t.print(std::cout);

  const double hot_tail_home = tail_mean(home.node_frac[kCachingNode], kTail);
  const double hot_tail_copy = tail_max(copy.node_frac[kCachingNode], kTail);
  double all_nodes_tail_copy = 0.0;
  for (NodeId n = 0; n < kNodes; ++n) {
    all_nodes_tail_copy =
        std::max(all_nodes_tail_copy, tail_max(copy.node_frac[n], kTail));
  }
  const double err_home = absolute_error(home.final_tcm, oracle.final_tcm);
  const double err_copy = absolute_error(copy.final_tcm, oracle.final_tcm);
  const double accuracy_gap = std::abs(err_copy - err_home);

  std::cout << "\nCaching-node tail overhead: home attribution "
            << hot_tail_home * 100 << "%, copy attribution "
            << hot_tail_copy * 100 << "% (ceiling " << kCeiling * 100 << "%)\n";
  std::cout << "Worst node under copy attribution: " << all_nodes_tail_copy * 100
            << "%\n";
  std::cout << "Final map error vs oracle: home " << err_home << ", copy "
            << err_copy << " (gap " << accuracy_gap << ")\n";
  std::cout << "Caching-node shifts: home attr junk " << home.junk_shift
            << " (ineffective), copy attr junk " << copy.junk_shift
            << " signal " << copy.signal_shift << "; other-node shifts "
            << copy.other_shift_total << ", cold base gap "
            << copy.cold_gap_final << "\n";
  std::cout << "Resample visits billed (copy attr): caching node "
            << copy.visits_caching_node << ", home nodes " << copy.visits_homes
            << "; (home attr): caching node " << home.visits_caching_node
            << ", home nodes " << home.visits_homes << "\n\n";

  BenchReport report("governor_cached_copy");
  report.metric("hot_tail_home_attr", hot_tail_home);
  report.metric("hot_tail_copy_attr", hot_tail_copy, "min", 0.30, 0.002);
  report.metric("all_nodes_tail_copy_attr", all_nodes_tail_copy, "min", 0.30, 0.002);
  report.metric("oracle_error_home_attr", err_home, "min", 0.50, 0.01);
  report.metric("oracle_error_copy_attr", err_copy, "min", 0.50, 0.01);
  report.metric("accuracy_gap", accuracy_gap, "min", 0.50, 0.01);
  report.metric("copy_junk_shift", static_cast<double>(copy.junk_shift));
  report.metric("copy_other_shift_total",
                static_cast<double>(copy.other_shift_total));
  report.metric("copy_visits_caching_node",
                static_cast<double>(copy.visits_caching_node));

  report.check(
      "home attribution leaves the heavy-caching node over its ceiling",
      hot_tail_home > kCeiling, hot_tail_home, kCeiling, ">");
  report.check(
      "home attribution bumped the caching node's shifts to no effect",
      home.junk_shift >= 1 && hot_tail_home > kCeiling,
      static_cast<double>(home.junk_shift), 1, ">=");
  report.check("copy attribution holds the caching node inside the ceiling",
               hot_tail_copy <= kCeiling, hot_tail_copy, kCeiling, "<=");
  report.check("copy attribution holds every node inside the ceiling",
               all_nodes_tail_copy <= kCeiling, all_nodes_tail_copy, kCeiling,
               "<=");
  report.check("TCM accuracy equal within +-5% absolute distance",
               accuracy_gap <= 0.05, accuracy_gap, 0.05, "<=");
  report.check("copy attribution map stays close to the oracle",
               err_copy <= 0.05, err_copy, 0.05, "<=");
  report.check("backoff targeted the caching node's junk copies",
               copy.junk_shift >= 1, static_cast<double>(copy.junk_shift), 1,
               ">=");
  report.check("no other node's rates moved (no shifts, base gap unchanged)",
               copy.other_shift_total == 0 && copy.cold_gap_final == kColdGap,
               static_cast<double>(copy.other_shift_total), 0, "==");
  report.check(
      "resampling cost billed to the node that walked its own copies",
      copy.visits_caching_node > copy.visits_homes,
      static_cast<double>(copy.visits_caching_node),
      static_cast<double>(copy.visits_homes), ">");
  return report.finish();  // nonzero fails the CI acceptance step
}
