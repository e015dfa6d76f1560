// TCM construction at scale: dense-from-scratch vs the incremental whole-run
// CSR store, swept over threads x objects x reader skew.
//
// Stress protocol per sweep point: a profiling run delivers B OAL batches
// (one interval per thread, each a one-slice arena, built before any clock
// starts), and after each batch a whole-run correlation map is asked for.
// No caller in the tree does that — the planner reads each epoch's window
// map, and build_full() runs once at the end of a run — so the protocol is
// a stress test of the whole-run path, not a model of an epoch.  The
// dense-from-scratch pipeline (`build_reference`, the seed's hash-map
// reorganize + dense accrual) re-accrues the entire run-so-far on every
// delivery; the incremental pipeline reorganizes just the new batch into a
// CSR window, merges it into a persistent TcmStore in place, and accrues the
// store's pairs on demand.  Both sides produce the same map after every
// batch (checked to 1e-9); only the work to get there differs.
//
// The largest sweep point (64 threads x 120k objects x 12 batches, skewed
// readers) gates CI: the incremental store must hold a >= 5x speedup, and
// the equality check must stay within 1e-9.
//
// A separate arena-scale phase stretches to 256 threads x 1M objects — the
// regime the lock-free ingest path exists for — with the batches re-packed
// into fixed 4096-entry OalArenas (the ingest hand-off unit).  The per-batch
// dense rebuild protocol is deliberately not run there (it is the very
// O(run-so-far) wall the sweep above already prices); instead the phase
// gates that the incremental store (one window per batch, a whole-run map
// after each) and the daemon's window build run once over every arena of
// the run (one reorganize_arena, accrue_sparse, densify) both match one
// final build_reference to 1e-9.
#include <chrono>
#include <cstdio>
#include <vector>

#include "harness.hpp"
#include "ingest_helpers.hpp"
#include "profiling/accuracy.hpp"
#include "profiling/ingest.hpp"
#include "profiling/tcm.hpp"

namespace djvm {
namespace {

struct SweepPoint {
  std::uint32_t threads;
  ObjectId objects;
  int batches;
};

/// Skewed reader distribution: ~0.1% of objects are hot (every thread reads
/// them — shared pools, barriers' metadata), the tail is read by one thread
/// plus an occasional second (neighbour exchange).  Byte values are stable
/// across batches except every 16th object, whose observed size keeps
/// growing — exercising the store's max-combining update path.
std::vector<std::vector<OalArena>> make_batches(const SweepPoint& p) {
  const ObjectId hot = std::max<ObjectId>(1, p.objects / 1000);
  std::vector<std::vector<OalArena>> batches(static_cast<std::size_t>(p.batches));
  IntervalId next_interval = 0;
  for (int b = 0; b < p.batches; ++b) {
    std::vector<std::vector<OalEntry>> oal(p.threads);
    for (ObjectId o = 0; o < p.objects; ++o) {
      const std::uint32_t grow = (o % 16 == 0) ? static_cast<std::uint32_t>(b) : 0u;
      const OalEntry e{o, /*klass=*/0,
                       /*bytes=*/8 + static_cast<std::uint32_t>(o % 61) + grow,
                       /*gap=*/1 + static_cast<std::uint32_t>(o % 7)};
      if (o < hot) {
        for (ThreadId t = 0; t < p.threads; ++t) oal[t].push_back(e);
      } else {
        oal[o % p.threads].push_back(e);
        if (o % 3 == 0) {
          oal[(o * 5 + 1) % p.threads].push_back(e);
        }
      }
    }
    std::vector<OalArena>& logs = batches[static_cast<std::size_t>(b)];
    for (ThreadId t = 0; t < p.threads; ++t) {
      logs.push_back(interval_log(t, std::move(oal[t]),
                                  static_cast<NodeId>(t % 8), next_interval++));
    }
  }
  return batches;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct PointResult {
  double dense_seconds = 0.0;
  double incr_seconds = 0.0;
  double max_rel_error = 0.0;
};

PointResult run_point(const SweepPoint& p) {
  const auto batches = make_batches(p);
  PointResult out;

  // Dense-from-scratch: after each delivery, rebuild the run-so-far map.
  std::vector<SquareMatrix> dense_maps;
  {
    std::vector<OalArena> window;
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& batch : batches) {
      window.insert(window.end(), batch.begin(), batch.end());
      dense_maps.push_back(
          build_reference(window, p.threads, /*weighted=*/true));
    }
    out.dense_seconds = seconds_since(t0);
  }

  // Incremental store: merge the new batch in as one window, accrue and
  // densify on demand.  The accrual is part of the measured cost; the
  // equality check is not.
  std::vector<SquareMatrix> incr_maps;
  {
    TcmStore store(p.threads);
    ArenaScratch scratch;
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& batch : batches) {
      absorb_logs(store, batch, scratch);
      incr_maps.push_back(store_map(store));
    }
    out.incr_seconds = seconds_since(t0);
  }

  for (std::size_t b = 0; b < incr_maps.size(); ++b) {
    out.max_rel_error =
        std::max(out.max_rel_error, absolute_error(incr_maps[b], dense_maps[b]));
  }
  return out;
}

struct ArenaScaleResult {
  double incr_seconds = 0.0;
  double csr_seconds = 0.0;
  double reference_seconds = 0.0;
  double incr_error = 0.0;
  double csr_error = 0.0;
};

ArenaScaleResult run_arena_scale(const SweepPoint& p) {
  const auto batches = make_batches(p);
  std::vector<std::vector<OalArena>> packed;
  packed.reserve(batches.size());
  for (const auto& batch : batches) {
    packed.push_back(repack(batch, /*capacity=*/4096));
  }

  ArenaScaleResult out;

  // Incremental store, batch-at-a-time with a whole-run map per delivery:
  // each batch's arenas reorganize into one window, as the daemon's pending
  // arenas do at an epoch close.
  SquareMatrix incr;
  {
    TcmStore store(p.threads);
    ArenaScratch scratch;
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& batch : packed) {
      absorb_logs(store, batch, scratch);
      incr = store_map(store);
    }
    out.incr_seconds = seconds_since(t0);
  }

  // The daemon's window build, once over every arena of the run.
  SquareMatrix csr;
  {
    std::vector<const OalArena*> all;
    for (const auto& batch : packed) {
      for (const OalArena& a : batch) all.push_back(&a);
    }
    const auto t0 = std::chrono::steady_clock::now();
    ArenaScratch scratch;
    csr = TcmBuilder::accrue_sparse(
              TcmBuilder::reorganize_arena(all, /*weighted=*/true, scratch),
              p.threads)
              .densify();
    out.csr_seconds = seconds_since(t0);
  }

  // One final dense-from-scratch oracle over the concatenated run.
  {
    std::vector<OalArena> window;
    for (const auto& batch : batches) {
      window.insert(window.end(), batch.begin(), batch.end());
    }
    const auto t0 = std::chrono::steady_clock::now();
    const SquareMatrix ref =
        build_reference(window, p.threads, /*weighted=*/true);
    out.reference_seconds = seconds_since(t0);
    out.incr_error = absolute_error(incr, ref);
    out.csr_error = absolute_error(csr, ref);
  }
  return out;
}

}  // namespace
}  // namespace djvm

int main() {
  using namespace djvm;
  bench::BenchReport report("tcm_scale");

  const std::vector<SweepPoint> sweep = {
      {8, 20'000, 8},
      {16, 50'000, 8},
      {32, 100'000, 8},
      {64, 120'000, 12},
  };

  std::printf("%8s %10s %8s %12s %12s %9s %12s\n", "threads", "objects",
              "batches", "dense_ms", "incr_ms", "speedup", "max_rel_err");
  PointResult largest;
  double largest_speedup = 0.0;
  for (const SweepPoint& p : sweep) {
    // Best of two runs: the ratio is what gates, but both numerator and
    // denominator deserve a warm cache.
    PointResult r = run_point(p);
    const PointResult r2 = run_point(p);
    r.dense_seconds = std::min(r.dense_seconds, r2.dense_seconds);
    r.incr_seconds = std::min(r.incr_seconds, r2.incr_seconds);
    r.max_rel_error = std::max(r.max_rel_error, r2.max_rel_error);
    const double speedup =
        r.incr_seconds > 0.0 ? r.dense_seconds / r.incr_seconds : 0.0;
    std::printf("%8u %10llu %8d %12.2f %12.2f %8.2fx %12.3g\n", p.threads,
                static_cast<unsigned long long>(p.objects), p.batches,
                r.dense_seconds * 1e3, r.incr_seconds * 1e3, speedup,
                r.max_rel_error);
    if (&p == &sweep.back()) {
      largest = r;
      largest_speedup = speedup;
    }
  }

  // Arena-scale phase: the ingest hand-off unit at its target scale.
  const SweepPoint big{256, 1'000'000, 6};
  const ArenaScaleResult arena = run_arena_scale(big);
  std::printf(
      "arena scale %u threads x %llu objects x %d batches: "
      "incr %.2fs  csr %.2fs  reference %.2fs  err incr %.3g / csr %.3g\n",
      big.threads, static_cast<unsigned long long>(big.objects), big.batches,
      arena.incr_seconds, arena.csr_seconds, arena.reference_seconds,
      arena.incr_error, arena.csr_error);

  // Wall-clock seconds gate with latency tolerance (lower_is_better, +35%
  // headroom for runner-to-runner variance); the speedup ratio and the
  // equality bound are the primary acceptance criteria.
  report.latency_metric("incr_seconds_largest", largest.incr_seconds, 0.35);
  report.metric("dense_seconds_largest", largest.dense_seconds);
  report.metric("speedup_largest", largest_speedup, "max", 0.25);
  report.metric("max_rel_error", largest.max_rel_error, "min", 0.0, 1e-9);
  report.latency_metric("arena_incr_seconds_256t_1m", arena.incr_seconds, 0.35);
  report.latency_metric("arena_csr_seconds_256t_1m", arena.csr_seconds, 0.35);
  report.metric("arena_reference_seconds_256t_1m", arena.reference_seconds);
  report.metric("arena_incr_abs_error", arena.incr_error, "min", 0.0, 1e-9);
  report.metric("arena_csr_abs_error", arena.csr_error, "min", 0.0, 1e-9);

  report.check(
      "incremental-sparse >= 5x over dense-from-scratch at 64 threads x 120k "
      "objects (skewed readers)",
      largest_speedup >= 5.0, largest_speedup, 5.0, ">=");
  report.check("incremental and dense maps agree within 1e-9",
               largest.max_rel_error <= 1e-9, largest.max_rel_error, 1e-9,
               "<=");
  report.check(
      "arena incremental fold matches build_reference at 256 threads x 1M "
      "objects (<= 1e-9)",
      arena.incr_error <= 1e-9, arena.incr_error, 1e-9, "<=");
  report.check(
      "arena CSR pipeline matches build_reference at 256 threads x 1M "
      "objects (<= 1e-9)",
      arena.csr_error <= 1e-9, arena.csr_error, 1e-9, "<=");
  return report.finish();
}
