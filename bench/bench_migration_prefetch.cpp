// Ablation A4 — thread migration with vs without sticky-set prefetch, and
// validation of the cost model's fault prediction against the oracle.
//
// The paper's motivation (Section III): the indirect cost of a migration —
// remote object faults on the sticky set — dominates the direct context
// transfer, and prefetching the resolved sticky set absorbs it into one bulk
// message.
//
// The governed column drives the same mechanism through the closed loop
// instead of a manual engine call: shared mass homed at the partners' node
// pulls a thread off the node holding its private working set, the
// execution stage of run_epoch migrates it (resolution prefetch +
// follow-the-thread homes rescue the private pool), and the post-migration
// replay of that pool must then run fault-free.
#include <algorithm>
#include <iostream>
#include <unordered_set>

#include "governor/governor.hpp"
#include "harness.hpp"
#include "migration/cost_model.hpp"

using namespace djvm;
using namespace djvm::bench;

namespace {

struct Outcome {
  std::uint64_t post_faults = 0;
  std::uint64_t post_fault_bytes = 0;
  std::uint64_t prefetched = 0;
  SimTime sim_cost = 0;
  double predicted_faults = 0.0;
  std::uint64_t oracle_sticky = 0;
};

Outcome run(bool prefetch) {
  Config cfg;
  cfg.nodes = 2;
  cfg.threads = 2;
  cfg.footprinting = true;
  cfg.footprint_timer = FootprintTimerMode::kNonstop;
  cfg.footprint_rearm = sim_us(500);
  Djvm djvm(cfg);
  djvm.spawn_threads_round_robin(cfg.threads);

  SorParams p;
  p.rows = 256;
  p.cols = 2048;
  p.rounds = 2;
  SorWorkload w(p);
  w.build(djvm);

  // Oracle: record thread 0's accesses to detect the true sticky set of the
  // replayed window (accessed before AND after the migration point).
  std::unordered_set<ObjectId> before, after;
  bool migrated = false;
  djvm.add_access_observer([&](ThreadId t, ObjectId o, bool) {
    if (t != 0) return;
    (migrated ? after : before).insert(o);
  });

  w.run(djvm);

  Outcome out;
  const ClassFootprint fp = djvm.footprints().footprint(0);
  const MigrationCostModel model = djvm.cost_model();
  JavaStack& stack = djvm.stack(0);
  stack.push(1, 2);
  out.predicted_faults =
      static_cast<double>(model.estimate(stack.context_bytes(), fp).predicted_fault_count);

  // Migrate thread 0 mid-"interval" and replay its row block (the accesses a
  // migrant performs after moving).
  migrated = true;
  const auto& stats = djvm.gos().stats();
  if (prefetch) {
    // The matrix root is SOR's stack invariant: resolution walks root -> rows.
    std::vector<ObjectId> roots{w.matrix_root()};
    const MigrationOutcome mo = djvm.migration().migrate_with_resolution(
        0, 1, stack, roots, fp, kLandmarkTolerance);
    out.prefetched = mo.prefetched_objects;
    out.sim_cost = mo.sim_cost;
  } else {
    const MigrationOutcome mo = djvm.migration().migrate(0, 1, stack);
    out.sim_cost = mo.sim_cost;
  }
  const std::uint64_t faults0 = stats.object_faults;
  const std::uint64_t bytes0 = stats.fault_bytes;
  const SimTime clock0 = djvm.gos().clock(0).now();
  for (std::uint32_t r = 1; r <= 128; ++r) djvm.gos().read(0, w.row_object(r));
  out.post_faults = stats.object_faults - faults0;
  out.post_fault_bytes = stats.fault_bytes - bytes0;
  out.sim_cost += djvm.gos().clock(0).now() - clock0;
  stack.pop();

  for (ObjectId o : after) {
    if (before.contains(o)) ++out.oracle_sticky;
  }
  return out;
}

struct GovernedOutcome {
  std::uint64_t migrations = 0;       // executed by the loop
  std::uint64_t prefetched_objects = 0;
  std::uint64_t prefetched_bytes = 0;
  std::uint64_t homes_migrated = 0;
  std::uint64_t replay_faults = 0;    // pool re-read after a barrier, post-move
  bool co_located = false;
};

/// The execution stage performs the migration itself.  Thread 0 (node 0)
/// shares a pool homed at node 1 with TWO partners living there, so the
/// planner's pair mass at node 1 (2x the pool) beats the mover's modeled
/// cost (which charges its whole footprint) and pulls it *toward* the
/// shared mass — *away* from its private ref-chained working set, which
/// stays homed at node 0, carries no pair mass, and is exactly what the
/// sticky-set machinery must rescue: the stack invariant root resolves
/// it, prefetch ships it, and follow-the-thread home migration re-homes
/// it at the destination.
GovernedOutcome run_governed() {
  Config cfg;
  cfg.nodes = 2;
  cfg.threads = 3;
  cfg.oal_transfer = OalTransfer::kSend;
  cfg.footprinting = true;
  cfg.footprint_timer = FootprintTimerMode::kNonstop;
  cfg.footprint_rearm = sim_us(500);
  cfg.stack_sampling = true;
  cfg.stack_sampling_gap = sim_us(20);
  cfg.balance.max_migrations_per_epoch = 1;
  cfg.balance.min_score = 1.0;
  cfg.balance.cooldown_epochs = 2;
  Djvm djvm(cfg);
  djvm.spawn_thread(0);  // the migrant
  djvm.spawn_thread(1);  // partners at the pool's home
  djvm.spawn_thread(1);

  // Shared pool homed at node 1, read by everyone: thread 0's pair mass at
  // node 1 is twice the pool bytes — enough to out-score its migration
  // cost, which the model charges at the full footprint.
  const ClassId shared_k = djvm.registry().register_class("SharedPool", 256);
  std::vector<ObjectId> shared;
  for (int i = 0; i < 64; ++i) shared.push_back(djvm.gos().alloc(shared_k, 1));
  // Thread 0's private working set, homed at node 0 and chained from one
  // root so resolution can walk it.  No other thread touches it, so the
  // planner's map never sees it — only the sticky-set machinery can keep
  // it close to the migrant.
  const ClassId priv_k = djvm.registry().register_class("PrivatePool", 256);
  std::vector<ObjectId> priv;
  for (int i = 0; i < 32; ++i) priv.push_back(djvm.gos().alloc(priv_k, 0));
  for (std::size_t i = 1; i < priv.size(); ++i) {
    djvm.heap().add_ref(priv[0], priv[i]);
  }
  // Thread 0 holds the private root in a live frame: the stack sampler
  // mines it as an invariant, which the execution stage feeds to resolution.
  JavaStack& stk0 = djvm.stack(0);
  stk0.push(1, 2);
  stk0.top().set_ref(0, priv[0]);
  djvm.stack(1).push(1, 2);
  djvm.stack(2).push(1, 2);

  GovernedOutcome out;
  for (int epoch = 0; epoch < 8; ++epoch) {
    for (ThreadId t = 0; t < 3; ++t) {
      for (int r = 0; r < 4; ++r) {
        for (ObjectId o : shared) djvm.read(t, o);
        if (t == 0) {
          for (ObjectId o : priv) djvm.read(t, o);
        }
        // Advance inside the round so the stack sampler fires repeatedly
        // per epoch (invariants need min_rounds stable comparisons before
        // the first migration executes).
        djvm.gos().clock(t).advance(shared.size() * 4000);
      }
      // A home-side partner updates the shared pool: every epoch's barrier
      // invalidates thread 0's copies, keeping the pull current.
      if (t == 1) {
        for (ObjectId o : shared) djvm.write(t, o);
      }
    }
    djvm.barrier_all();
    const EpochResult res = djvm.run_epoch();
    for (const auto& m : res.migrations) {
      if (!m.executed) continue;
      out.prefetched_bytes += m.prefetched_bytes;
      out.homes_migrated += m.homes_migrated;
    }
  }
  out.migrations = djvm.governor().migrations_executed();
  out.prefetched_objects = out.prefetched_bytes / 256;
  out.co_located = djvm.gos().thread_node(0) == djvm.gos().thread_node(1);

  // Replay thread 0's private set after a barrier: fault-free only if the
  // sticky homes followed the migrant to node 1.
  djvm.barrier_all();
  const std::uint64_t faults0 = djvm.gos().stats().object_faults;
  for (ObjectId o : priv) djvm.gos().read(0, o);
  out.replay_faults = djvm.gos().stats().object_faults - faults0;
  return out;
}

}  // namespace

int main() {
  std::cout << "=== Ablation A4: migration cost with vs without SS prefetch ===\n";
  std::cout << "(SOR 256x2K, thread 0 migrates node 0 -> 1, replays its block)\n\n";

  const Outcome without = run(false);
  const Outcome with = run(true);

  TextTable t({"Variant", "Post-mig faults", "Fault bytes", "Prefetched objs",
               "Sim cost (ms)"});
  t.add_row({"No prefetch", TextTable::cell(without.post_faults),
             TextTable::cell(without.post_fault_bytes),
             TextTable::cell(std::uint64_t{0}),
             TextTable::cell(static_cast<double>(without.sim_cost) / 1e6, 2)});
  t.add_row({"Sticky-set prefetch", TextTable::cell(with.post_faults),
             TextTable::cell(with.post_fault_bytes),
             TextTable::cell(with.prefetched),
             TextTable::cell(static_cast<double>(with.sim_cost) / 1e6, 2)});
  t.print(std::cout);

  std::cout << "\nCost-model validation:\n";
  TextTable v({"Quantity", "Value"});
  v.add_row({"Predicted post-migration faults",
             TextTable::cell(without.predicted_faults, 0)});
  v.add_row({"Measured faults (no prefetch)", TextTable::cell(without.post_faults)});
  v.add_row({"Oracle sticky-set size (before & after)",
             TextTable::cell(without.oracle_sticky)});
  v.print(std::cout);

  const GovernedOutcome gov = run_governed();
  std::cout << "\nGoverned mode (execution stage performs the migration):\n";
  TextTable g({"Quantity", "Value"});
  g.add_row({"Migrations executed by the loop", TextTable::cell(gov.migrations)});
  g.add_row({"Prefetched objects", TextTable::cell(gov.prefetched_objects)});
  g.add_row({"Homes migrated (follow-the-thread)",
             TextTable::cell(gov.homes_migrated)});
  g.add_row({"Partners co-located", gov.co_located ? "yes" : "no"});
  g.add_row({"Post-move replay faults", TextTable::cell(gov.replay_faults)});
  g.print(std::cout);

  std::cout << "\nExpected shape: prefetch absorbs the resolved sticky set (faults\n"
               "drop by about the prefetched count) and lowers total simulated\n"
               "cost; the prediction lands within ~2x of the measured faults and\n"
               "is bounded by the oracle sticky-set size.  The residual gap is\n"
               "the footprint's conservatism: it only counts objects re-touched\n"
               "at distinct re-arm ticks, the paper's accuracy/cost trade-off.\n"
               "The governed column reaches the same fault-free replay through\n"
               "the closed loop alone.\n";

  BenchReport report("migration_prefetch");
  report.metric("post_faults_no_prefetch",
                static_cast<double>(without.post_faults));
  report.metric("post_faults_prefetch", static_cast<double>(with.post_faults),
                "min", 0.0, 2.0);
  report.metric("prefetched_objects", static_cast<double>(with.prefetched),
                "max", 0.10, 0.0);
  report.metric("governed_migrations", static_cast<double>(gov.migrations),
                "max", 0.0, 0.0);
  report.metric("governed_replay_faults",
                static_cast<double>(gov.replay_faults), "min", 0.0, 0.0);
  report.metric("governed_prefetched_objects",
                static_cast<double>(gov.prefetched_objects), "max", 0.10, 0.0);
  report.metric("governed_homes_migrated",
                static_cast<double>(gov.homes_migrated), "max", 0.10, 0.0);

  report.check("prefetch cuts post-migration faults below the bare migrate",
               with.post_faults < without.post_faults,
               static_cast<double>(with.post_faults),
               static_cast<double>(without.post_faults), "<");
  report.check("fault prediction lands within 2x of the measured faults",
               without.predicted_faults <=
                   2.0 * static_cast<double>(without.post_faults) + 1.0,
               without.predicted_faults,
               2.0 * static_cast<double>(without.post_faults) + 1.0, "<=");
  report.check("the governed loop executed the migration itself",
               gov.migrations >= 1, static_cast<double>(gov.migrations), 1.0,
               ">=");
  report.check("resolution prefetched the migrant's private pool",
               gov.prefetched_objects >= 1,
               static_cast<double>(gov.prefetched_objects), 1.0, ">=");
  report.check("follow-homes re-homed the private pool at the destination",
               gov.homes_migrated >= 1,
               static_cast<double>(gov.homes_migrated), 1.0, ">=");
  report.check("the governed loop co-located the partner pair",
               gov.co_located, gov.co_located ? 1.0 : 0.0, 1.0, ">=");
  report.check("the governed replay runs fault-free",
               gov.replay_faults == 0, static_cast<double>(gov.replay_faults),
               0.0, "<=");
  return report.finish();  // nonzero fails the CI acceptance step
}
