// Fault tolerance under the governed loop (PR 9 acceptance).
//
// One deterministic pair-sharing workload (four partner pairs over four
// nodes, the even partner writing its pool each epoch so the barrier's
// invalidations keep remote re-fault traffic alive) runs in five columns:
//
//   clean      — faults disabled: the reference wall-clock and TCM;
//   quiet      — injector attached with an all-zero plan: must be
//                bit-identical to clean (same wall, same map, zero retry
//                arithmetic) — the fault layer costs nothing when idle,
//                which is the "no regression on fault-free columns" half
//                of the acceptance;
//   faulty     — seeded per-category drops, latency spikes + jitter,
//                transient stalls, and a timed kill of node 2 mid-run:
//                the TCM restricted to surviving threads must stay within
//                a fixed band of clean (the killed node's un-shipped
//                arena slices die with it — the daemon's node filter
//                drops them at ingest), and the post-kill fault spike
//                must decay back to the steady state within the epoch
//                bound; the survivors' `entries_published ==
//                entries_drained` ring invariant is checked on this same
//                run (ingest is the only delivery path now);
//   faulty×2   — the identical faulty config re-run: the schedule hash,
//                wall-clock, and full map must match bit for bit (a
//                failure found in CI replays locally from the seed);
//   partition  — a two-epoch partition window across the node cut instead
//                of a kill: cross-cut sends drop and retry, the run
//                completes, and the map still lands inside the band.
//                Skipped when DJVM_FT_SKIP_PARTITION is set; the
//                baseline lists its metric under `allowed_missing` so the
//                gate tolerates the skip (the per-fault-mode column is
//                diagnostic, not load-bearing).
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "harness.hpp"
#include "net/faults.hpp"
#include "profiling/accuracy.hpp"
#include "profiling/ingest.hpp"

using namespace djvm;
using namespace djvm::bench;

namespace {

constexpr std::uint32_t kNodes = 4;
constexpr std::uint32_t kThreads = 8;  // pair P_k = {2k, 2k+1}
constexpr std::uint32_t kPairs = kThreads / 2;
constexpr std::uint32_t kEpochs = 12;
constexpr std::uint64_t kKillEpoch = 6;
constexpr NodeId kKillNode = 2;
constexpr std::uint32_t kPoolCount = 48;  // 256 B objects per pair pool
constexpr std::uint32_t kRounds = 2;      // pool sweeps per thread per epoch
/// Fresh objects each pair shares in exactly one epoch.  The whole-run map
/// is a union over windows — a pair that shares the same pool every epoch
/// loses nothing when one epoch's records die with a node — so these
/// epoch-unique objects are what make the kill's data loss *visible*: the
/// dead node's threads carry their kill-epoch uniques out of the map.
constexpr std::uint32_t kUniquePerEpoch = 8;
constexpr SimTime kComputePerRead = 500;
constexpr std::uint32_t kRecoveryBound = 3;  // epochs after the kill

enum class Mode { kClean, kQuiet, kFaulty, kPartition };

FaultKnobs plan_for(Mode mode) {
  FaultKnobs f;
  switch (mode) {
    case Mode::kClean:
      break;  // enabled stays false: no injector at all
    case Mode::kQuiet:
      f.enabled = true;  // injector attached, every knob at zero
      break;
    case Mode::kFaulty:
      f.enabled = true;
      f.drop_object_data = 0.05;
      f.drop_oal = 0.15;
      f.drop_control = 0.05;
      f.drop_migration = 0.05;
      f.spike_probability = 0.05;
      f.spike_ns = sim_us(200);
      f.jitter_ns = sim_us(50);
      f.stall_probability = 0.05;
      f.stall_ns = sim_us(100);
      f.kill_node = kKillNode;
      f.kill_epoch = kKillEpoch;
      f.max_retries = 6;
      f.retry_backoff_ns = sim_us(100);
      break;
    case Mode::kPartition:
      f.enabled = true;
      f.partition_begin = 4;
      f.partition_end = 6;  // half-open two-epoch window
      f.partition_cut = 2;  // {0,1} vs {2,3}
      f.max_retries = 6;
      f.retry_backoff_ns = sim_us(100);
      break;
  }
  return f;
}

struct Outcome {
  SimTime wall = 0;  // max thread clock at the end
  SquareMatrix map;  // whole-run weighted TCM
  std::uint64_t ring_published = 0;
  std::uint64_t ring_drained = 0;
  std::uint64_t dropped = 0;
  std::uint64_t retries = 0;
  std::uint64_t backoff_ns = 0;
  std::uint64_t schedule_hash = 0;        // 0 when no injector attached
  int first_degraded = -1;                // epoch index, -1 = never
  std::vector<NodeId> lost;               // union across epochs
  std::vector<std::uint64_t> fault_delta; // per-epoch object faults
};

/// Every column rides the arena ingest path (the only delivery path): a
/// dead node's un-shipped slices die with it at the daemon's node filter,
/// so the kill costs real map mass and the survivor band measures
/// something, while the published/drained ring invariant holds on the very
/// same run — drained counts slices the consumer saw, filtered or not.
Outcome run(Mode mode) {
  Config cfg;
  cfg.nodes = kNodes;
  cfg.threads = kThreads;
  cfg.oal_transfer = OalTransfer::kSend;
  cfg.faults = plan_for(mode);

  Djvm djvm(cfg);
  djvm.spawn_threads_round_robin(kThreads);
  const ClassId k = djvm.registry().register_class("PairPool", 256);
  std::vector<std::vector<ObjectId>> pools(kPairs);
  for (std::uint32_t p = 0; p < kPairs; ++p) {
    for (std::uint32_t i = 0; i < kPoolCount; ++i) {
      pools[p].push_back(djvm.gos().alloc(k, static_cast<NodeId>(p % kNodes)));
    }
  }
  // uniques[e][p]: objects pair p shares only during epoch e.
  std::vector<std::vector<std::vector<ObjectId>>> uniques(kEpochs);
  for (std::uint32_t e = 0; e < kEpochs; ++e) {
    uniques[e].resize(kPairs);
    for (std::uint32_t p = 0; p < kPairs; ++p) {
      for (std::uint32_t i = 0; i < kUniquePerEpoch; ++i) {
        uniques[e][p].push_back(
            djvm.gos().alloc(k, static_cast<NodeId>(p % kNodes)));
      }
    }
  }

  Outcome out;
  std::uint64_t faults_before = 0;
  for (std::uint32_t epoch = 0; epoch < kEpochs; ++epoch) {
    for (ThreadId t = 0; t < kThreads; ++t) {
      const auto& pool = pools[t / 2];
      for (std::uint32_t r = 0; r < kRounds; ++r) {
        for (ObjectId o : pool) djvm.read(t, o);
      }
      for (ObjectId o : uniques[epoch][t / 2]) djvm.read(t, o);
      if ((t & 1u) == 0) {
        for (ObjectId o : pool) djvm.write(t, o);
      }
      djvm.gos().clock(t).advance(
          static_cast<SimTime>(kPoolCount) * kRounds * kComputePerRead);
    }
    djvm.barrier_all();
    const EpochResult res = djvm.run_epoch();
    if (res.degraded && out.first_degraded < 0) {
      out.first_degraded = static_cast<int>(epoch);
    }
    for (NodeId n : res.lost_nodes) {
      if (std::find(out.lost.begin(), out.lost.end(), n) == out.lost.end()) {
        out.lost.push_back(n);
      }
    }
    const std::uint64_t faults_now = djvm.gos().stats().object_faults;
    out.fault_delta.push_back(faults_now - faults_before);
    faults_before = faults_now;
  }

  djvm.pump_daemon();
  out.map = djvm.daemon().build_full();
  for (ThreadId t = 0; t < kThreads; ++t) {
    out.wall = std::max(out.wall, djvm.gos().clock(t).now());
  }
  if (const IngestHub* hub = djvm.ingest_hub()) {
    const IngestCounters c = hub->counters();
    out.ring_published = c.entries_published;
    out.ring_drained = c.entries_drained;
  }
  out.dropped = djvm.net().stats().total_dropped();
  out.retries = djvm.net().stats().total_retries();
  out.backoff_ns = djvm.net().stats().total_backoff_ns();
  if (const FaultInjector* inj = djvm.fault_injector()) {
    out.schedule_hash = inj->schedule_hash();
  }
  return out;
}

/// Submatrix over the threads that never lived on the killed node (initial
/// round-robin placement: thread t starts on node t % kNodes).
SquareMatrix survivor_submap(const SquareMatrix& full) {
  std::vector<std::size_t> keep;
  for (ThreadId t = 0; t < kThreads; ++t) {
    if (t % kNodes != kKillNode) keep.push_back(t);
  }
  SquareMatrix sub(keep.size());
  for (std::size_t i = 0; i < keep.size(); ++i) {
    for (std::size_t j = 0; j < keep.size(); ++j) {
      sub.at(i, j) = full.at(keep[i], keep[j]);
    }
  }
  return sub;
}

/// Epochs after the kill until the per-epoch object-fault rate returns to
/// the pre-kill steady state (the re-homed pools settling on the
/// survivors), or kEpochs when it never does.
std::uint32_t recovery_epochs(const Outcome& o) {
  // Steady state: the mean over the settled pre-kill epochs.
  std::uint64_t steady_sum = 0, steady_n = 0;
  for (std::uint64_t e = 2; e < kKillEpoch; ++e) {
    steady_sum += o.fault_delta[e];
    ++steady_n;
  }
  const std::uint64_t steady = steady_n > 0 ? steady_sum / steady_n : 0;
  const std::uint64_t bound = steady + steady / 2 + 32;
  for (std::uint64_t e = kKillEpoch + 1; e < kEpochs; ++e) {
    if (o.fault_delta[e] <= bound) {
      return static_cast<std::uint32_t>(e - kKillEpoch);
    }
  }
  return kEpochs;
}

std::string lost_cell(const std::vector<NodeId>& lost) {
  if (lost.empty()) return "-";
  std::string s;
  for (NodeId n : lost) {
    if (!s.empty()) s += ",";
    s += std::to_string(n);
  }
  return s;
}

}  // namespace

int main() {
  std::cout << "=== Profiling under faults: drops, spikes, a mid-run node "
               "kill, a partition window ===\n";
  std::cout << "(" << kThreads << " threads on " << kNodes << " nodes, "
            << kPairs << " partner pairs, " << kEpochs << " epochs; node "
            << kKillNode << " dies at epoch " << kKillEpoch << ")\n\n";

  const bool skip_partition =
      std::getenv("DJVM_FT_SKIP_PARTITION") != nullptr;

  const Outcome clean = run(Mode::kClean);
  const Outcome quiet = run(Mode::kQuiet);
  const Outcome faulty = run(Mode::kFaulty);
  const Outcome replay = run(Mode::kFaulty);
  Outcome part;
  if (!skip_partition) part = run(Mode::kPartition);

  const double full_err = absolute_error(faulty.map, clean.map);
  const double survivor_err =
      absolute_error(survivor_submap(faulty.map), survivor_submap(clean.map));
  const double part_err =
      skip_partition ? 0.0 : absolute_error(part.map, clean.map);
  const std::uint32_t recovery = recovery_epochs(faulty);
  const std::uint64_t ring_lost = faulty.ring_published - faulty.ring_drained;
  const double fault_tax =
      clean.wall > 0
          ? static_cast<double>(faulty.wall) / static_cast<double>(clean.wall)
          : 0.0;

  TextTable t({"Variant", "Wall (sim ms)", "Map err", "Dropped", "Retries",
               "Backoff ms", "Degraded@", "Lost"});
  const auto row = [&](const char* name, const Outcome& o, double err) {
    t.add_row({name, TextTable::cell(static_cast<double>(o.wall) / 1e6, 2),
               TextTable::cell(err, 4), TextTable::cell(o.dropped),
               TextTable::cell(o.retries),
               TextTable::cell(static_cast<double>(o.backoff_ns) / 1e6, 2),
               o.first_degraded >= 0 ? std::to_string(o.first_degraded)
                                     : std::string("-"),
               lost_cell(o.lost)});
  };
  row("Fault-free", clean, 0.0);
  row("Armed, zero plan", quiet, absolute_error(quiet.map, clean.map));
  row("Faulty + kill", faulty, full_err);
  row("Faulty replay", replay, absolute_error(replay.map, clean.map));
  if (!skip_partition) row("Partition window", part, part_err);
  t.print(std::cout);

  std::cout << "\nSurvivor-thread map error vs fault-free: " << survivor_err
            << "  (full map " << full_err << ")\n";
  std::cout << "Post-kill fault-rate recovery: " << recovery
            << " epoch(s); fault wall tax x" << fault_tax << "\n\n";

  BenchReport report("fault_tolerance");
  // The partition column is diagnostic and skippable (DJVM_FT_SKIP_PARTITION);
  // declared unconditionally so regenerated baselines keep the opt-out.
  report.allow_missing("partition_cross_cut_drops");
  report.metric("clean_wall_sim_ms", static_cast<double>(clean.wall) / 1e6,
                "min", 0.10);
  report.metric("faulty_wall_sim_ms", static_cast<double>(faulty.wall) / 1e6,
                "min", 0.10);
  report.metric("fault_wall_tax", fault_tax);
  report.metric("survivor_map_abs_error", survivor_err, "min", 0.0, 0.02);
  report.metric("full_map_abs_error", full_err);
  report.metric("recovery_epochs", static_cast<double>(recovery), "min", 0.0,
                1.0);
  report.metric("ring_entries_lost", static_cast<double>(ring_lost), "min",
                0.0, 0.0);
  report.metric("faulty_retries", static_cast<double>(faulty.retries));
  if (!skip_partition) {
    // Diagnostic per-fault-mode column; the baseline lists this metric in
    // `allowed_missing` so a DJVM_FT_SKIP_PARTITION run still gates.
    report.metric("partition_cross_cut_drops",
                  static_cast<double>(part.dropped), "max", 0.90);
  }

  report.check(
      "armed injector with an all-zero plan is bit-identical to fault-free "
      "(same wall, same map, no retry arithmetic)",
      quiet.wall == clean.wall && quiet.map == clean.map &&
          quiet.dropped + quiet.retries + quiet.backoff_ns == 0,
      static_cast<double>(quiet.wall > clean.wall ? quiet.wall - clean.wall
                                                  : clean.wall - quiet.wall),
      0.0, "<=");
  report.check(
      "identical fault seed replays bit-identically (schedule hash, wall, "
      "full map)",
      replay.schedule_hash == faulty.schedule_hash &&
          replay.wall == faulty.wall && replay.map == faulty.map,
      static_cast<double>(replay.schedule_hash == faulty.schedule_hash ? 0 : 1),
      0.0, "<=");
  report.check(
      "survivor ring invariant holds under drops + kill (published == "
      "drained, entries flowed)",
      ring_lost == 0 && faulty.ring_published > 0,
      static_cast<double>(ring_lost), 0.0, "<=");
  report.check("surviving-thread map accuracy stays within the fixed band "
               "of the fault-free run",
               survivor_err <= 0.10, survivor_err, 0.10, "<=");
  report.check(
      "the kill's data loss is real but confined to the dead node's threads "
      "(full-map error nonzero, survivor error at most half the band)",
      full_err > 0.0 && survivor_err <= 0.05, full_err, 0.0, ">");
  report.check("post-kill fault rate recovers within the epoch bound",
               recovery <= kRecoveryBound, static_cast<double>(recovery),
               static_cast<double>(kRecoveryBound), "<=");
  report.check(
      "the kill is reported: first degraded epoch is the kill epoch and the "
      "dead node is named",
      faulty.first_degraded == static_cast<int>(kKillEpoch) &&
          faulty.lost == std::vector<NodeId>{kKillNode},
      static_cast<double>(faulty.first_degraded),
      static_cast<double>(kKillEpoch), "==");
  report.check("the fault plan was actually exercised (drops, retries, and "
               "backoff all nonzero)",
               faulty.dropped > 0 && faulty.retries > 0 &&
                   faulty.backoff_ns > 0,
               static_cast<double>(faulty.dropped), 0.0, ">");
  if (!skip_partition) {
    report.check("partition window drops cross-cut traffic yet the run "
                 "completes inside the map band",
                 part.dropped > 0 && part_err <= 0.10,
                 part_err, 0.10, "<=");
  }
  return report.finish();
}
