// Ablation A3 — TCM construction scaling (paper Section II.A).
//
// OAL reorganization is O(MN) and TCM accrual O(MN^2) in shared objects M
// and threads N; the paper flags TCM computation as a potential scalability
// bottleneck and the reason adaptive sampling exists (sampling reduces M).
// This bench measures build time as M and N grow and as the sampling rate
// shrinks M.
#include <chrono>
#include <iostream>

#include "harness.hpp"
#include "ingest_helpers.hpp"

using namespace djvm;
using namespace djvm::bench;

namespace {

std::vector<OalArena> synth_logs(std::uint32_t objects, std::uint32_t threads,
                                 std::uint32_t readers_per_object) {
  // Every object read by `readers_per_object` consecutive threads; one
  // interval per thread.
  std::vector<std::vector<OalEntry>> entries(threads);
  for (ObjectId o = 0; o < objects; ++o) {
    for (std::uint32_t r = 0; r < readers_per_object; ++r) {
      const ThreadId t = static_cast<ThreadId>((o + r) % threads);
      entries[t].push_back(OalEntry{o, 0, 64, 1});
    }
  }
  std::vector<OalArena> logs;
  for (ThreadId t = 0; t < threads; ++t) {
    logs.push_back(interval_log(t, std::move(entries[t])));
  }
  return logs;
}

double time_build(const std::vector<OalArena>& logs, std::uint32_t threads) {
  const std::vector<const OalArena*> ptrs = log_ptrs(logs);
  const auto t0 = std::chrono::steady_clock::now();
  ArenaScratch scratch;
  const ReaderArena readers =
      TcmBuilder::reorganize_arena(ptrs, /*weighted=*/true, scratch);
  const SquareMatrix tcm = TcmBuilder::accrue_sparse(readers, threads).densify();
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  (void)tcm;
  return dt;
}

}  // namespace

int main() {
  std::cout << "=== Ablation A3: TCM construction cost, O(MN) + O(MN^2) ===\n\n";

  std::cout << "Scaling in M (objects), N = 16 threads, 4 readers/object:\n";
  TextTable tm({"M (objects)", "Build time (ms)"});
  for (std::uint32_t m : {10000u, 20000u, 40000u, 80000u, 160000u}) {
    tm.add_row({TextTable::cell(std::uint64_t{m}),
                TextTable::cell(time_build(synth_logs(m, 16, 4), 16) * 1e3, 2)});
  }
  tm.print(std::cout);

  std::cout << "\nScaling in N (threads), M = 40000, all threads share all objects\n"
               "(worst case: every object contributes N^2/2 pair updates):\n";
  TextTable tn({"N (threads)", "Build time (ms)"});
  for (std::uint32_t n : {4u, 8u, 16u, 32u, 64u}) {
    tn.add_row({TextTable::cell(std::uint64_t{n}),
                TextTable::cell(time_build(synth_logs(40000, n, n), n) * 1e3, 2)});
  }
  tn.print(std::cout);

  std::cout << "\nSampling reduces M: Barnes-Hut records at descending rates\n"
               "(16 threads), showing why the daemon tunes the rate down when\n"
               "TCM time becomes apparent:\n";
  TextTable ts({"Rate", "OAL entries", "Build time (ms)"});
  for (std::uint32_t rate : {0u, 16u, 4u, 1u}) {
    Config cfg;
    cfg.nodes = 8;
    cfg.threads = 16;
    cfg.oal_transfer = OalTransfer::kLocalOnly;
    cfg.sampling_rate_x = rate;
    RunOutput out = run_once(cfg, barnes_hut_spec(2048, 2).make);
    out.djvm->pump_daemon();
    const auto t0 = std::chrono::steady_clock::now();
    out.djvm->daemon().build_full();
    const double dt =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    ts.add_row({rate == 0 ? "Full" : std::to_string(rate) + "X",
                TextTable::cell(out.djvm->daemon().total_entries()),
                TextTable::cell(dt * 1e3, 2)});
  }
  ts.print(std::cout);

  std::cout << "\nExpected shape: ~linear in M, ~quadratic in N under all-share,\n"
               "and entries/build-time dropping with the sampling rate.\n";
  return 0;
}
