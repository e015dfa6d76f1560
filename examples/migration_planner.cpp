// Migration planning end-to-end: profile SOR with footprinting + stack
// sampling, mine stack invariants, resolve each thread's sticky set, and let
// the load balancer propose migrations whose locality gain beats the modeled
// cost — then execute the best one with sticky-set prefetch and show the
// post-migration fault savings.
//
// Build & run:  ./examples/migration_planner
#include <iostream>

#include "apps/sor.hpp"
#include "balance/load_balancer.hpp"
#include "common/table.hpp"
#include "core/djvm.hpp"
#include "sticky/resolution.hpp"

using namespace djvm;

int main() {
  Config cfg;
  cfg.nodes = 4;
  cfg.threads = 8;
  cfg.oal_transfer = OalTransfer::kLocalOnly;
  cfg.footprinting = true;
  cfg.footprint_timer = FootprintTimerMode::kTimerBased;
  cfg.footprint_rearm = sim_ms(2);
  cfg.stack_sampling = true;
  cfg.stack_sampling_gap = sim_ms(8);
  Djvm djvm(cfg);
  djvm.spawn_threads_round_robin(cfg.threads);

  SorParams p;
  p.rows = 512;
  p.cols = 2048;
  p.rounds = 4;
  SorWorkload w(p);
  std::cout << "Profiling SOR (" << p.rows << "x" << p.cols << ", "
            << cfg.threads << " threads on " << cfg.nodes << " nodes)...\n\n";
  execute_workload(djvm, w);
  djvm.pump_daemon();
  const SquareMatrix tcm = djvm.daemon().build_full();

  // --- per-thread profiles -----------------------------------------------------
  TextTable prof({"Thread", "Node", "SS footprint (KB)", "Stack invariants",
                  "Stack samples"});
  std::vector<ClassFootprint> footprints(cfg.threads);
  std::vector<std::uint64_t> contexts(cfg.threads);
  for (ThreadId t = 0; t < cfg.threads; ++t) {
    footprints[t] = djvm.footprints().footprint(t);
    contexts[t] = djvm.stack(t).context_bytes() + 1024;
    prof.add_row({TextTable::cell(std::uint64_t{t}),
                  TextTable::cell(std::uint64_t{djvm.gos().thread_node(t)}),
                  TextTable::cell(footprints[t].total() / 1024.0, 1),
                  TextTable::cell(std::uint64_t{djvm.last_invariants(t).size()}),
                  TextTable::cell(djvm.stack_samplers().stats(t).samples)});
  }
  prof.print(std::cout);

  // --- planning ------------------------------------------------------------------
  Placement current;
  current.node_of_thread.resize(cfg.threads);
  for (ThreadId t = 0; t < cfg.threads; ++t) {
    current.node_of_thread[t] = djvm.gos().thread_node(t);
  }
  const auto suggestions =
      plan_migrations(tcm, current, footprints, contexts, djvm.cost_model(),
                      cfg.nodes, cfg.costs.bytes_per_ns, 1);
  std::cout << "\nPlanner proposals (gain must beat modeled migration cost): "
            << suggestions.size() << '\n';
  if (suggestions.empty()) {
    std::cout << "  (none profitable: SOR's sticky sets outweigh its "
                 "boundary-row sharing,\n   so staying put is the right "
                 "call -- the cost model doing its job)\n";
  }
  TextTable st({"Thread", "From", "To", "Gain (KB)", "Cost (sim ms)", "Score"});
  for (const auto& s : suggestions) {
    st.add_row({TextTable::cell(std::uint64_t{s.thread}),
                TextTable::cell(std::uint64_t{s.from}),
                TextTable::cell(std::uint64_t{s.to}),
                TextTable::cell(s.gain_bytes / 1024.0, 1),
                TextTable::cell(static_cast<double>(s.cost) / 1e6, 2),
                TextTable::cell(s.score, 1)});
  }
  st.print(std::cout);

  // --- execute one migration with sticky-set prefetch -----------------------------
  const ThreadId migrant = suggestions.empty() ? 1 : suggestions.front().thread;
  const NodeId dest = suggestions.empty()
                          ? static_cast<NodeId>((djvm.gos().thread_node(1) + 1) %
                                                cfg.nodes)
                          : suggestions.front().to;
  JavaStack& stack = djvm.stack(migrant);
  stack.push(99, 2);
  stack.top().set_ref(0, w.row_object(1));
  std::vector<ObjectId> roots = djvm.last_invariants(migrant);
  if (roots.empty()) roots.push_back(w.row_object(1));

  const auto before = djvm.gos().stats().object_faults;
  const MigrationOutcome out = djvm.migration().migrate_with_resolution(
      migrant, dest, stack, roots, footprints[migrant], kLandmarkTolerance);
  // Replay the migrant's block to expose the residual faults.
  for (std::uint32_t r = 1; r <= p.rows / cfg.threads; ++r) {
    djvm.gos().read(migrant, w.row_object(r));
  }
  stack.pop();

  std::cout << "\nExecuted migration of thread " << migrant << " -> node " << dest
            << ":\n  context " << out.context_bytes << " B, prefetched "
            << out.prefetched_objects << " objects (" << out.prefetched_bytes
            << " B), resolution visited " << out.resolution.objects_visited
            << " objects, residual faults "
            << djvm.gos().stats().object_faults - before << '\n';
  return 0;
}
