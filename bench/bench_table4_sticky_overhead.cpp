// Table IV (the paper's "Overhead of sticky-set footprint profiling" table) —
// runtime cost of the three sticky-set profiling components:
//   (C1) stack sampling at 4 ms / 16 ms gaps, immediate vs lazy extraction;
//   (C2) sticky-set footprinting, nonstop vs 100 ms timer, 4X vs full;
//   (C3) sticky-set resolution, run eagerly at every interval close (the
//        paper's ad-hoc methodology; in production it runs only at migration).
// Single thread per application; each overhead isolated per the paper.
#include <iostream>

#include "harness.hpp"
#include "sticky/resolution.hpp"

using namespace djvm;
using namespace djvm::bench;

namespace {

std::vector<AppSpec> table4_apps() {
  // The paper uses SOR 1K x 1K here (vs 2K x 2K elsewhere).
  return {sor_spec(1024, 1024, 10), barnes_hut_spec(4096, 5), water_spec(512, 5)};
}

double run_with_resolution(const Config& cfg, const WorkloadFactory& make) {
  std::vector<double> times;
  // Summing each resolution's bytes keeps its result live, so the timed run
  // cannot drop the work.
  std::uint64_t resolved_bytes = 0;
  for (int rep = 0; rep < 3; ++rep) {
    Djvm djvm(cfg);
    djvm.spawn_threads_round_robin(cfg.threads);
    // Eager resolution at the end of each HLRC interval (ad-hoc measurement
    // mode; the cost normally vanishes across intervals without migrations).
    djvm.add_interval_observer([&djvm, &resolved_bytes](ThreadId t) {
      const auto roots = djvm.invariants(t);
      const ClassFootprint fp = djvm.footprints().footprint(t);
      if (!roots.empty() && fp.total() > 0.0) {
        resolved_bytes += resolve_sticky_set(djvm.heap(), djvm.plan(), roots, fp,
                                             kLandmarkTolerance)
                              .bytes;
      }
    });
    auto w = make();
    times.push_back(execute_workload(djvm, *w).run_seconds);
  }
  return median(times);
}

}  // namespace

int main() {
  std::cout << "=== Table IV: Overhead of sticky-set footprint profiling ===\n";
  std::cout << "(single thread; median of 3 runs; ms and % over baseline)\n\n";

  TextTable stack_t({"Benchmark", "Baseline", "Immediate 4ms", "Immediate 16ms",
                     "Lazy 4ms", "Lazy 16ms"});
  TextTable fp_t({"Benchmark", "Nonstop 4X", "Nonstop Full", "Timer(100ms) 4X",
                  "Timer(100ms) Full"});
  TextTable res_t({"Benchmark", "+ Sticky-set Resolution"});

  for (const AppSpec& app : table4_apps()) {
    Config base;
    base.nodes = 1;
    base.threads = 1;
    const double baseline = median_run_seconds(base, app.make);

    // --- C1: stack sampling, object sampling and tracking disabled ----------
    std::vector<std::string> srow{app.name, ms_cell(baseline)};
    for (ExtractionMode mode : {ExtractionMode::kImmediate, ExtractionMode::kLazy}) {
      for (SimTime gap : {sim_ms(4), sim_ms(16)}) {
        Config cfg = base;
        cfg.stack_sampling = true;
        cfg.stack_sampling_gap = gap;
        cfg.extraction = mode;
        srow.push_back(ms_pct_cell(median_run_seconds(cfg, app.make), baseline));
      }
    }
    stack_t.add_row(std::move(srow));

    // --- C2: footprinting, stack sampling and tracking disabled -------------
    std::vector<std::string> frow{app.name};
    for (FootprintTimerMode timer :
         {FootprintTimerMode::kNonstop, FootprintTimerMode::kTimerBased}) {
      for (std::uint32_t rate : {4u, 0u}) {
        Config cfg = base;
        cfg.footprinting = true;
        cfg.footprint_timer = timer;
        cfg.sampling_rate_x = rate;
        frow.push_back(ms_pct_cell(median_run_seconds(cfg, app.make), baseline));
      }
    }
    fp_t.add_row(std::move(frow));

    // --- C3: resolution, eagerly at every interval close ---------------------
    Config rescfg = base;
    rescfg.footprinting = true;
    rescfg.footprint_timer = FootprintTimerMode::kTimerBased;
    rescfg.sampling_rate_x = 4;
    rescfg.stack_sampling = true;
    const double without = median_run_seconds(rescfg, app.make);
    const double with = run_with_resolution(rescfg, app.make);
    res_t.add_row({app.name, ms_pct_cell(with, without)});
  }

  std::cout << "Stack sampling overhead (C1):\n";
  stack_t.print(std::cout);
  std::cout << "\nSticky-set footprinting overhead (C2):\n";
  fp_t.print(std::cout);
  std::cout << "\nSticky-set resolution overhead (C3, eager per-interval):\n";
  res_t.print(std::cout);
  std::cout << "\nPaper reference: stack sampling negligible for SOR/Water,\n"
               "slightly higher for Barnes-Hut (recursive traversal); lazy\n"
               "extraction beats immediate almost everywhere; full-sampling\n"
               "nonstop footprinting is the costliest (up to ~9%); the 100 ms\n"
               "timer at 4X makes it minimal; resolution adds a few percent.\n";
  return 0;
}
