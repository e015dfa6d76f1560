// Long-haul memory: retention (decay/compact) on vs off under object churn.
//
// A whole-run TCM store on a server that runs for weeks tracks every object
// the workload ever touched; a churning workload (caches, request buffers,
// sliding datasets) makes that unbounded.  This bench drives the store with
// a sliding object population — every epoch merges a window of fresh objects
// and never revisits old ones — and compares:
//
//   retention-on  — advance_epoch + compact(idle_epochs, decay) each epoch:
//                   tracked objects and payload bytes must plateau at
//                   O(live windows), and the map restricted to live objects
//                   must equal the from-scratch reference exactly (1e-9);
//   retention-off — the pre-retention behavior: tracked objects grow
//                   monotonically with every window ever seen.
//
// The retention-on phase runs FIRST: peak RSS (VmHWM) only ever grows within
// a process, so ordering the small-memory phase first lets the second
// phase's growth show up in the delta.
#include <iostream>

#include "common/rng.hpp"
#include "harness.hpp"
#include "ingest_helpers.hpp"
#include "profiling/tcm.hpp"

using namespace djvm;
using namespace djvm::bench;

namespace {

constexpr std::uint32_t kThreads = 16;
constexpr int kEpochs = 150;
constexpr std::uint64_t kWindow = 2000;   // fresh object ids per epoch
constexpr int kIntervalsPerEpoch = 200;
constexpr int kEntriesPerInterval = 20;
constexpr std::uint32_t kIdleEpochs = 4;
constexpr double kDecay = 0.0;  // drop outright (decay>0 only delays the drop)

/// One epoch's OAL batch: kIntervalsPerEpoch intervals, one arena each.
std::vector<OalArena> epoch_batch(int epoch) {
  SplitMix64 rng(0xC0FFEE ^ static_cast<std::uint64_t>(epoch));
  std::vector<OalArena> out;
  const ObjectId base = static_cast<ObjectId>(epoch) * kWindow;
  for (int r = 0; r < kIntervalsPerEpoch; ++r) {
    const auto thread = static_cast<ThreadId>(rng.next_below(kThreads));
    std::vector<OalEntry> entries;
    for (int e = 0; e < kEntriesPerInterval; ++e) {
      OalEntry entry;
      entry.obj = base + rng.next_below(kWindow);
      entry.klass = 0;
      entry.bytes = static_cast<std::uint32_t>(16 + rng.next_below(240));
      entry.gap = static_cast<std::uint32_t>(1 + rng.next_below(8));
      entries.push_back(entry);
    }
    out.push_back(interval_log(
        thread, std::move(entries), kInvalidNode,
        static_cast<IntervalId>(epoch * kIntervalsPerEpoch + r)));
  }
  return out;
}

struct PhaseResult {
  std::vector<std::size_t> objects_per_epoch;
  std::size_t mem_quarter = 0;   ///< memory_bytes at the 1/4 mark
  std::size_t mem_final = 0;
  std::size_t objects_final = 0;
  std::uint64_t rss_after_kb = 0;
  SquareMatrix final_map;
};

PhaseResult run_phase(bool retention) {
  PhaseResult out;
  TcmStore store(kThreads);
  ArenaScratch scratch;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    absorb_logs(store, epoch_batch(epoch), scratch);
    if (retention) {
      store.advance_epoch();
      store.compact(kIdleEpochs, kDecay);
    }
    out.objects_per_epoch.push_back(store.object_count());
    if (epoch == kEpochs / 4) out.mem_quarter = store.memory_bytes();
  }
  out.mem_final = store.memory_bytes();
  out.objects_final = store.object_count();
  out.final_map = store_map(store);
  out.rss_after_kb = peak_rss_kb();
  return out;
}

/// Reference map over the intervals retention keeps: windows young enough to
/// survive the final compact (age = kEpochs - epoch < kIdleEpochs).
SquareMatrix live_reference() {
  std::vector<OalArena> live;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    if (kEpochs - epoch < static_cast<int>(kIdleEpochs)) {
      auto batch = epoch_batch(epoch);
      live.insert(live.end(), std::make_move_iterator(batch.begin()),
                  std::make_move_iterator(batch.end()));
    }
  }
  return build_reference(live, kThreads);
}

double max_abs_diff(const SquareMatrix& a, const SquareMatrix& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < a.size(); ++j) {
      worst = std::max(worst, std::abs(a.at(i, j) - b.at(i, j)));
    }
  }
  return worst;
}

}  // namespace

int main() {
  std::cout << "=== Long-haul whole-run store memory: retention on vs off ===\n"
            << "(" << kEpochs << " epochs, " << kWindow
            << " fresh objects/epoch, idle bound " << kIdleEpochs
            << " epochs)\n\n";

  // Retention first: VmHWM is monotone, see file comment.
  const PhaseResult ret = run_phase(/*retention=*/true);
  const PhaseResult off = run_phase(/*retention=*/false);

  TextTable t({"Run", "Objects @25%", "Objects final", "Payload @25%",
               "Payload final", "Peak RSS after (KB)"});
  const auto row = [&](const char* name, const PhaseResult& p) {
    t.add_row({name,
               TextTable::cell(static_cast<std::uint64_t>(
                   p.objects_per_epoch[kEpochs / 4])),
               TextTable::cell(static_cast<std::uint64_t>(p.objects_final)),
               TextTable::cell(static_cast<std::uint64_t>(p.mem_quarter)),
               TextTable::cell(static_cast<std::uint64_t>(p.mem_final)),
               TextTable::cell(p.rss_after_kb)});
  };
  row("retention-on", ret);
  row("retention-off", off);
  t.print(std::cout);

  // Monotone growth without retention (every epoch adds a fresh window).
  bool off_monotone = true;
  for (int e = 1; e < kEpochs; ++e) {
    off_monotone &= off.objects_per_epoch[e] > off.objects_per_epoch[e - 1];
  }
  // Plateau with retention: bounded by the live-window count everywhere
  // after warmup, and no payload growth past the quarter mark.
  std::size_t ret_max_after_warmup = 0;
  for (int e = static_cast<int>(kIdleEpochs); e < kEpochs; ++e) {
    ret_max_after_warmup =
        std::max(ret_max_after_warmup, ret.objects_per_epoch[e]);
  }
  const double accuracy_err = max_abs_diff(ret.final_map, live_reference());

  std::cout << "\nretention-off monotone growth: "
            << (off_monotone ? "yes" : "NO") << "\n"
            << "retention-on max tracked after warmup: " << ret_max_after_warmup
            << " (bound " << (kIdleEpochs + 1) * kWindow << ")\n"
            << "retention map vs live-records reference, max |diff|: "
            << accuracy_err << "\n\n";

  BenchReport report("long_haul_memory");
  report.metric("retention_objects_final",
                static_cast<double>(ret.objects_final), "min", 0.10);
  report.metric("full_objects_final", static_cast<double>(off.objects_final));
  report.metric("retention_payload_final_bytes",
                static_cast<double>(ret.mem_final), "min", 0.25);
  report.metric("full_payload_final_bytes",
                static_cast<double>(off.mem_final));
  report.metric("payload_ratio_full_over_retention",
                static_cast<double>(off.mem_final) /
                    static_cast<double>(ret.mem_final),
                "max", 0.25);
  report.metric("retention_rss_after_kb",
                static_cast<double>(ret.rss_after_kb));
  report.metric("full_rss_after_kb", static_cast<double>(off.rss_after_kb));
  report.metric("accuracy_max_abs_diff", accuracy_err);

  report.check("retention-off tracked objects grow monotonically",
               off_monotone, off_monotone ? 1 : 0, 1, "==");
  report.check("retention-on tracked objects plateau at the live-window bound",
               ret_max_after_warmup <= (kIdleEpochs + 1) * kWindow,
               static_cast<double>(ret_max_after_warmup),
               static_cast<double>((kIdleEpochs + 1) * kWindow), "<=");
  report.check("retention-on payload stops growing after warmup",
               ret.mem_final <= ret.mem_quarter,
               static_cast<double>(ret.mem_final),
               static_cast<double>(ret.mem_quarter), "<=");
  report.check("retention-off holds >5x the retention payload",
               off.mem_final > 5 * ret.mem_final,
               static_cast<double>(off.mem_final),
               static_cast<double>(5 * ret.mem_final), ">");
  report.check("retention map matches live-records reference at 1e-9",
               accuracy_err <= 1e-9, accuracy_err, 1e-9, "<=");
  report.check("peak RSS did not regress during the retention phase "
               "(retention ran first; VmHWM is monotone)",
               ret.rss_after_kb <= off.rss_after_kb,
               static_cast<double>(ret.rss_after_kb),
               static_cast<double>(off.rss_after_kb), "<=");
  return report.finish();
}
