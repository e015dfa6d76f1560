// Closed-loop governor under a workload phase change.
//
// A synthetic workload runs two correlation phases:
//   Phase A (epochs 0..19):  thread pairs (0,1),(2,3),... deterministically
//       scan shared pools of bulky 2 KB records — a stable, cheap-to-profile
//       structure that converges almost immediately.
//   Phase B (epochs 20..39): the pairing *shifts* to (7,0),(1,2),(3,4),(5,6)
//       and sharing moves to pools of small 64 B objects touched in random
//       35% subsets each epoch — a structure that needs much finer sampling
//       before successive TCMs agree.
//
// Three identical-traffic runs are compared:
//   governed — the closed-loop governor (budgeted, bidirectional, sentinel
//              phase detection);
//   legacy   — the seed's one-way convergence loop, which freezes after
//              phase A and never reacts to the flip;
//   oracle   — full sampling, no adaptation: the accuracy reference.
//
// Acceptance (ISSUE 1): the governor (a) keeps measured overhead within
// 1.5x of the configured budget across both phases, and (b) re-converges
// the TCM after the mid-run phase change, while the legacy path does not.
#include <iostream>

#include "common/rng.hpp"
#include "governor/governor.hpp"
#include "harness.hpp"
#include "temp_dir.hpp"

using namespace djvm;
using namespace djvm::bench;

namespace {

constexpr std::uint32_t kNodes = 4;
constexpr std::uint32_t kThreads = 8;
constexpr std::uint32_t kPhaseEpochs = 20;
constexpr std::uint32_t kEpochs = 2 * kPhaseEpochs;
constexpr std::uint32_t kPools = kThreads / 2;
constexpr std::uint32_t kHotPerPool = 4096;   // 64 B objects
constexpr std::uint32_t kBulkyPerPool = 512;  // 2 KB records
constexpr double kAccessProb = 0.35;         // phase B random subset
constexpr SimTime kComputePerAccess = 2000;  // 2 us of app work per access
constexpr std::uint32_t kStartGap = 256;      // both runs start coarse
constexpr double kBudget = 0.04;
constexpr double kThreshold = 0.20;
constexpr std::uint64_t kSeed = 42;

enum class RunMode { kGoverned, kLegacy, kOracle };

const char* action_name(GovernorAction a) {
  switch (a) {
    case GovernorAction::kNone: return "-";
    case GovernorAction::kTighten: return "tighten";
    case GovernorAction::kBackOff: return "backoff";
    case GovernorAction::kConverge: return "converge";
    case GovernorAction::kRearm: return "REARM";
  }
  return "?";
}

struct EpochLog {
  double overhead = 0.0;
  double distance = -1.0;  // -1: first epoch (no previous map)
  GovernorAction action = GovernorAction::kNone;
  std::uint32_t hot_gap = 0;
  std::uint32_t bulky_gap = 0;
};

struct RunLog {
  std::vector<EpochLog> epochs;
  SquareMatrix final_tcm;
  bool converged_flag = false;
  std::size_t rearms = 0;
  GovernorState final_state = GovernorState::kIdle;
  std::uint32_t hot_gap_at_flip = 0;
  std::uint32_t hot_gap_final = 0;
  double wall_seconds = 0.0;
  std::uint64_t timeline_lines = 0;  ///< export runs: lines queued
  bool export_ok = false;            ///< export runs: every write landed
};

/// Runs one mode; with `export_dir`, snapshot + timeline every epoch into it.
RunLog run(RunMode mode, const TempDir* export_dir = nullptr) {
  const bool with_export = export_dir != nullptr;
  Config cfg;
  cfg.nodes = kNodes;
  cfg.threads = kThreads;
  cfg.oal_transfer = OalTransfer::kSend;
  if (with_export) {
    // Snapshot + timeline every epoch through the async writer; the export
    // acceptance gates on this costing (almost) nothing per epoch.
    cfg.export_.snapshot_path = export_dir->file("snapshot.bin");
    cfg.export_.timeline_path = export_dir->file("timeline.jsonl");
  }
  Djvm djvm(cfg);
  djvm.spawn_threads_round_robin(kThreads);

  const ClassId hot = djvm.registry().register_class("Hot", 64);
  const ClassId bulky = djvm.registry().register_class("Bulky", 2048);
  std::vector<std::vector<ObjectId>> hot_pools(kPools), bulky_pools(kPools);
  for (std::uint32_t p = 0; p < kPools; ++p) {
    for (std::uint32_t i = 0; i < kHotPerPool; ++i) {
      hot_pools[p].push_back(djvm.gos().alloc(hot, static_cast<NodeId>(p % kNodes)));
    }
    for (std::uint32_t i = 0; i < kBulkyPerPool; ++i) {
      bulky_pools[p].push_back(
          djvm.gos().alloc(bulky, static_cast<NodeId>(p % kNodes)));
    }
  }

  switch (mode) {
    case RunMode::kGoverned: {
      djvm.plan().set_nominal_gap(hot, kStartGap);
      djvm.plan().set_nominal_gap(bulky, kStartGap);
      djvm.plan().resample_all();
      GovernorConfig gcfg;
      gcfg.overhead_budget = kBudget;
      gcfg.distance_threshold = kThreshold;
      // Phase B is inherently noisy at coarse rates: watch the sentinel at
      // only 2x the converged gap and demand a 4x-threshold spike so the
      // sentinel's own sampling noise cannot masquerade as a phase change.
      gcfg.sentinel_coarsen_shifts = 1;
      gcfg.phase_spike_factor = 4.0;
      djvm.governor().arm(gcfg);
      break;
    }
    case RunMode::kLegacy:
      djvm.plan().set_nominal_gap(hot, kStartGap);
      djvm.plan().set_nominal_gap(bulky, kStartGap);
      djvm.plan().resample_all();
      djvm.daemon().governor().arm(djvm::GovernorConfig::legacy(kThreshold));
      break;
    case RunMode::kOracle:
      break;  // full sampling (gap 1), governor disarmed
  }

  RunLog log;
  const auto wall_start = std::chrono::steady_clock::now();
  for (std::uint32_t epoch = 0; epoch < kEpochs; ++epoch) {
    const bool phase_b = epoch >= kPhaseEpochs;
    if (epoch == kPhaseEpochs) {
      log.hot_gap_at_flip = djvm.plan().nominal_gap(hot);
    }
    for (ThreadId t = 0; t < kThreads; ++t) {
      djvm.gos().set_phase(t, phase_b ? 2 : 1);
      std::uint64_t accesses = 0;
      if (!phase_b) {
        // Deterministic scan of the pair's bulky pool.
        for (ObjectId o : bulky_pools[t / 2]) {
          djvm.read(t, o);
          ++accesses;
        }
      } else {
        // Shifted pairing, random subset of the pair's hot pool.
        SplitMix64 rng(kSeed ^ (epoch * 0x9E3779B97F4A7C15ULL) ^
                       (t * 0x85EBCA6B0ULL));
        for (ObjectId o : hot_pools[((t + 1) % kThreads) / 2]) {
          if (rng.next_double() < kAccessProb) {
            djvm.read(t, o);
            ++accesses;
          }
        }
      }
      djvm.gos().clock(t).advance(accesses * kComputePerAccess);
    }
    djvm.barrier_all();

    const EpochResult e = djvm.run_epoch();
    EpochLog el;
    el.overhead = e.overhead_fraction;
    el.distance = e.rel_distance.value_or(-1.0);
    el.action = e.action;
    el.hot_gap = djvm.plan().nominal_gap(hot);
    el.bulky_gap = djvm.plan().nominal_gap(bulky);
    log.epochs.push_back(el);
  }

  log.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  if (with_export) {
    SnapshotWriter* w = djvm.snapshot_writer();
    w->flush();
    log.timeline_lines = w->appended();
    log.export_ok = w->all_ok() && w->submitted() == kEpochs;
  }
  log.final_tcm = djvm.daemon().latest();
  log.converged_flag = djvm.daemon().converged();
  log.rearms = djvm.governor().rearms();
  log.final_state = djvm.governor().state();
  log.hot_gap_final = djvm.plan().nominal_gap(hot);
  return log;
}

double mean_tail_distance(const RunLog& log, std::size_t tail) {
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = log.epochs.size() - tail; i < log.epochs.size(); ++i) {
    if (log.epochs[i].distance >= 0.0) {
      sum += log.epochs[i].distance;
      ++n;
    }
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace

int main() {
  std::cout << "=== Governor under a mid-run phase change ===\n";
  std::cout << "(budget " << kBudget * 100 << "% of app time, distance threshold "
            << kThreshold << ", phase flip at epoch " << kPhaseEpochs << ")\n\n";

  const RunLog governed = run(RunMode::kGoverned);
  const RunLog legacy = run(RunMode::kLegacy);
  const RunLog oracle = run(RunMode::kOracle);
  // Identical governed run with per-epoch snapshot + timeline export: the
  // async writer must not stall the epoch loop.  Its files go to a private
  // directory, removed at exit, so concurrent runs never clobber each other.
  const TempDir export_dir("bench_governor_phases_");
  const RunLog exported = run(RunMode::kGoverned, &export_dir);

  TextTable t({"Epoch", "Phase", "Gov ovh%", "Gov dist", "Gov action",
               "Gov hot gap", "Leg dist", "Leg hot gap"});
  for (std::uint32_t i = 0; i < kEpochs; ++i) {
    const EpochLog& g = governed.epochs[i];
    const EpochLog& l = legacy.epochs[i];
    t.add_row({TextTable::cell(static_cast<std::uint64_t>(i)),
               i < kPhaseEpochs ? "A" : "B",
               TextTable::cell_pct(g.overhead, 3),
               g.distance < 0 ? TextTable::na() : TextTable::cell(g.distance, 3),
               action_name(g.action),
               TextTable::cell(static_cast<std::uint64_t>(g.hot_gap)),
               l.distance < 0 ? TextTable::na() : TextTable::cell(l.distance, 3),
               TextTable::cell(static_cast<std::uint64_t>(l.hot_gap))});
  }
  t.print(std::cout);

  // --- acceptance (a): overhead stays within 1.5x of the budget ------------
  double max_overhead = 0.0;
  for (const EpochLog& e : governed.epochs) {
    max_overhead = std::max(max_overhead, e.overhead);
  }
  std::cout << "\nGoverned max rolling overhead: " << max_overhead * 100
            << "% (budget " << kBudget * 100 << "%, bound "
            << kBudget * 150 << "%)\n";

  // --- acceptance (b): re-convergence after the flip ------------------------
  const double gov_tail = mean_tail_distance(governed, 4);
  const double leg_tail = mean_tail_distance(legacy, 4);
  const double gov_err = absolute_error(governed.final_tcm, oracle.final_tcm);
  const double leg_err = absolute_error(legacy.final_tcm, oracle.final_tcm);
  std::cout << "Mean TCM distance over last 4 epochs: governed " << gov_tail
            << ", legacy " << leg_tail << "\n";
  std::cout << "Final map error vs full-sampling oracle: governed " << gov_err
            << ", legacy " << leg_err << "\n";
  std::cout << "Legacy hot gap at flip " << legacy.hot_gap_at_flip
            << " -> final " << legacy.hot_gap_final
            << " (converged flag stayed "
            << (legacy.converged_flag ? "true" : "false") << ")\n\n";

  BenchReport report("governor_phases");
  report.metric("max_rolling_overhead", max_overhead, "min", 0.30);
  report.metric("budget", kBudget);
  report.metric("rearms", static_cast<double>(governed.rearms));
  report.metric("governed_tail_distance", gov_tail, "min", 0.35);
  report.metric("legacy_tail_distance", leg_tail);
  report.metric("governed_oracle_error", gov_err, "min", 0.35);
  report.metric("legacy_oracle_error", leg_err);
  // Best-of-3 walls: the epoch loop runs ~15 ms, so single-shot timings are
  // at the mercy of scheduler noise on shared CI runners.
  double bare_wall = governed.wall_seconds;
  double export_wall = exported.wall_seconds;
  for (int i = 0; i < 2; ++i) {
    bare_wall = std::min(bare_wall, run(RunMode::kGoverned).wall_seconds);
    export_wall = std::min(
        export_wall, run(RunMode::kGoverned, &export_dir).wall_seconds);
  }
  const double export_ratio = bare_wall > 0.0 ? export_wall / bare_wall : 1.0;
  std::cout << "Governed epoch-loop wall (best of 3): " << bare_wall * 1e3
            << " ms bare, " << export_wall * 1e3
            << " ms with per-epoch export (ratio " << export_ratio << ")\n\n";
  report.metric("export_on_wall_ratio", export_ratio, "min", 0.40);

  report.check("per-epoch export (snapshot + timeline) never stalls the epoch loop",
               export_ratio <= 1.5 && exported.export_ok, export_ratio, 1.5,
               "<=");
  report.check("export run queued one timeline line per epoch",
               exported.timeline_lines == kEpochs,
               static_cast<double>(exported.timeline_lines), kEpochs, "==");
  report.check("governed overhead stays within 1.5x of budget across both phases",
               max_overhead <= 1.5 * kBudget, max_overhead, 1.5 * kBudget, "<=");
  report.check("governor detected the phase change (1 re-arm)",
               governed.rearms == 1, static_cast<double>(governed.rearms), 1, "==");
  report.check("governor re-converged after the flip (sentinel state, settled map)",
               governed.final_state == GovernorState::kSentinel &&
                   gov_tail <= 1.5 * kThreshold,
               gov_tail, 1.5 * kThreshold, "<=");
  report.check("legacy one-way path froze at phase-A rates and did not re-converge",
               legacy.converged_flag &&
                   legacy.hot_gap_final == legacy.hot_gap_at_flip &&
                   leg_tail > 1.5 * kThreshold,
               leg_tail, 1.5 * kThreshold, ">");
  report.check("governed final map is closer to the full-sampling oracle than legacy",
               gov_err < leg_err, gov_err, leg_err, "<");
  return report.finish();  // nonzero fails the CI acceptance step
}
