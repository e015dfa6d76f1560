// Closed-loop migration execution vs static homes (PR 8 acceptance).
//
// The workload is four partner pairs on four nodes, placed adversarially:
// pair k's even thread sits on node k next to the pair's shared pool, its
// odd partner one node over.  Every epoch each thread sweeps the pair pool
// and writes part of it; the barrier's invalidations then make the split
// partner re-fault the pool remotely each epoch, forever — unless the
// execution stage moves it (home accesses stay local however often the
// copies are invalidated).
//
// Three columns over the identical access sequence:
//   static    — Config::balance off (the PR 5 loop): the planner never
//               runs, homes and threads stay where they started;
//   executed  — the execution stage applies the planner's suggestions
//               mid-run (cap 2/epoch, cooldown 2): split partners migrate
//               to their pool's node within the first epochs and all
//               later epochs run fault-free;
//   dry-run   — plans and logs the same moves but executes nothing: the
//               ablation pins the speedup on the moves themselves, not on
//               any side effect of running the planner.
//
// Acceptance: executed beats static on simulated wall-clock (max thread
// clock) by >= 5% — gated as a ratio metric with a min_improvement parity
// floor — while the dry-run column stays within 2% of static.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "governor/governor.hpp"
#include "harness.hpp"

using namespace djvm;
using namespace djvm::bench;

namespace {

constexpr std::uint32_t kNodes = 4;
constexpr std::uint32_t kThreads = 8;       // pair P_k = {2k, 2k+1}
constexpr std::uint32_t kPairs = kThreads / 2;
constexpr std::uint32_t kEpochs = 16;
constexpr std::uint32_t kPoolCount = 96;    // 256 B objects per pair pool
constexpr std::uint32_t kRounds = 4;        // pool sweeps per thread per epoch
constexpr SimTime kComputePerRead = 500;

enum class Mode { kStatic, kExecuted, kDryRun };

struct Outcome {
  SimTime wall = 0;                  // max thread clock at the end
  std::uint64_t migrations = 0;      // executed (governor history counter)
  std::uint64_t faults = 0;
  std::uint64_t fault_bytes = 0;
  std::uint32_t first_move_epoch = kEpochs;  // first epoch with an executed move
  std::size_t pending = 0;           // planned moves still deferred at the end
};

Outcome run(Mode mode) {
  Config cfg;
  cfg.nodes = kNodes;
  cfg.threads = kThreads;
  cfg.oal_transfer = OalTransfer::kSend;
  if (mode != Mode::kStatic) {
    cfg.balance.max_migrations_per_epoch = 2;
    cfg.balance.min_score = 1.0;
    cfg.balance.cooldown_epochs = 2;
    cfg.balance.dry_run = mode == Mode::kDryRun;
  }
  Djvm djvm(cfg);
  // Pair k: even thread on node k (with the pool), odd partner one node over.
  for (std::uint32_t p = 0; p < kPairs; ++p) {
    djvm.spawn_thread(static_cast<NodeId>(p));
    djvm.spawn_thread(static_cast<NodeId>((p + 1) % kNodes));
  }
  const ClassId k = djvm.registry().register_class("PairPool", 256);
  std::vector<std::vector<ObjectId>> pools(kPairs);
  for (std::uint32_t p = 0; p < kPairs; ++p) {
    for (std::uint32_t i = 0; i < kPoolCount; ++i) {
      pools[p].push_back(djvm.gos().alloc(k, static_cast<NodeId>(p)));
    }
  }

  Outcome out;
  for (std::uint32_t epoch = 0; epoch < kEpochs; ++epoch) {
    for (ThreadId t = 0; t < kThreads; ++t) {
      const auto& pool = pools[t / 2];
      for (std::uint32_t r = 0; r < kRounds; ++r) {
        for (ObjectId o : pool) djvm.read(t, o);
      }
      // The even partner updates the pool: the barrier's invalidations make
      // every later epoch re-fault remotely unless the pair is co-located.
      if ((t & 1u) == 0) {
        for (ObjectId o : pool) djvm.write(t, o);
      }
      djvm.gos().clock(t).advance(
          static_cast<SimTime>(kPoolCount) * kRounds * kComputePerRead);
    }
    djvm.barrier_all();
    const EpochResult res = djvm.run_epoch();
    for (const auto& m : res.migrations) {
      if (m.executed && out.first_move_epoch == kEpochs) {
        out.first_move_epoch = epoch;
      }
    }
  }
  for (ThreadId t = 0; t < kThreads; ++t) {
    out.wall = std::max(out.wall, djvm.gos().clock(t).now());
  }
  out.migrations = djvm.governor().migrations_executed();
  out.faults = djvm.gos().stats().object_faults;
  out.fault_bytes = djvm.gos().stats().fault_bytes;
  out.pending = djvm.planned_moves_pending();
  return out;
}

}  // namespace

int main() {
  std::cout << "=== Closed-loop migration execution vs static homes ===\n";
  std::cout << "(" << kThreads << " threads on " << kNodes << " nodes, "
            << kPairs << " split partner pairs, " << kEpochs
            << " epochs; cap 2 moves/epoch, cooldown 2)\n\n";

  const Outcome stat = run(Mode::kStatic);
  const Outcome exec = run(Mode::kExecuted);
  const Outcome dry = run(Mode::kDryRun);

  TextTable t({"Variant", "Wall (sim ms)", "Migrations", "Faults",
               "Fault MB", "First move epoch"});
  const auto row = [&](const char* name, const Outcome& o) {
    t.add_row({name, TextTable::cell(static_cast<double>(o.wall) / 1e6, 2),
               TextTable::cell(o.migrations), TextTable::cell(o.faults),
               TextTable::cell(static_cast<double>(o.fault_bytes) / 1e6, 2),
               o.first_move_epoch < kEpochs
                   ? TextTable::cell(std::uint64_t{o.first_move_epoch})
                   : std::string("-")});
  };
  row("Static homes", stat);
  row("Executed", exec);
  row("Dry-run ablation", dry);
  t.print(std::cout);

  const double speedup =
      exec.wall > 0 ? static_cast<double>(stat.wall) / static_cast<double>(exec.wall)
                    : 0.0;
  const double dry_ratio =
      stat.wall > 0 ? static_cast<double>(dry.wall) / static_cast<double>(stat.wall)
                    : 0.0;
  std::cout << "\nExecuted wall speedup over static: x" << speedup
            << "  (dry-run/static ratio " << dry_ratio << ")\n";
  std::cout << "Expected shape: the execution stage co-locates every split\n"
               "pair within the first epochs, the remote re-fault traffic\n"
               "disappears for the rest of the run, and the dry-run column —\n"
               "same planner, no moves — stays at the static wall-clock.\n";

  BenchReport report("governor_migration");
  report.metric("wall_speedup_executed", speedup, "max", 0.10, 0.0, 0.05);
  report.metric("dry_run_wall_ratio", dry_ratio);
  report.metric("migrations_executed", static_cast<double>(exec.migrations),
                "max", 0.0, 0.0);
  report.metric("static_fault_mb", static_cast<double>(stat.fault_bytes) / 1e6);
  report.metric("executed_fault_mb",
                static_cast<double>(exec.fault_bytes) / 1e6, "min", 0.10, 0.0);

  report.check("executed migrations beat static homes by >= 5% wall-clock",
               speedup >= 1.05, speedup, 1.05, ">=");
  report.check("dry-run ablation stays within 2% of the static wall-clock",
               std::fabs(dry_ratio - 1.0) <= 0.02, std::fabs(dry_ratio - 1.0),
               0.02, "<=");
  report.check("every split pair was migrated (one move per odd partner)",
               exec.migrations >= kPairs - 1,
               static_cast<double>(exec.migrations),
               static_cast<double>(kPairs - 1), ">=");
  report.check("dry-run executed nothing",
               dry.migrations == 0, static_cast<double>(dry.migrations), 0.0,
               "<=");
  report.check("no admitted move left pending at the end",
               exec.pending == 0, static_cast<double>(exec.pending), 0.0,
               "<=");
  return report.finish();  // nonzero fails the CI acceptance step
}
