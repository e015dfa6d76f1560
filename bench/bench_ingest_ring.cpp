// Ingest transport at thread scale: real producer threads handing closed
// intervals to one consumer through (a) the legacy transport — one
// heap-materialized record per interval pushed into a shared batch vector
// under a mutex, the seed's per-record hand-off made thread-safe the obvious
// way (the record type is local to this bench) — and (b) the lock-free
// path — per-thread OAL arenas published over SPSC rings
// (profiling/ingest.hpp).
//
// The timed section is the transport itself (producer hand-off + consumer
// drain, including the legacy side's per-record frees), not the TCM fold,
// which is identical work on both sides and would only dilute the ratio
// under test.  The sweep varies interval density: the legacy path pays a
// malloc + mutex + free per *interval* regardless of how few entries it
// carries, so the sparse point — one sampled entry per interval, the
// governed steady state once rates are backed off — is where the redesign
// matters most and is the point that gates (>= 5x).  Denser intervals
// amortize the fixed costs over more copied bytes and the ratio compresses
// toward the memcpy floor; those points are reported for the curve.
//
// The loss invariant gates alongside throughput: every appended entry must
// come out the consumer end, counted — the ring path has no drop branch,
// and backpressure shows up in the counters instead of in missing entries.
//
// A separate correctness phase drives the same interval stream through two
// hubs at opposite arena geometries — roomy arenas that never split vs tiny
// ones that split constantly under shallow-ring backpressure — and requires
// identical full-run maps (<= 1e-9): the transport chunking must be
// invisible to the fold.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "ingest_helpers.hpp"
#include "profiling/accuracy.hpp"
#include "profiling/correlation_daemon.hpp"
#include "profiling/ingest.hpp"

namespace djvm {
namespace {

constexpr std::uint32_t kProducers = 4;

struct Shape {
  std::uint64_t intervals_per_producer;
  std::uint32_t entries_per_interval;

  [[nodiscard]] std::uint64_t expected_entries() const {
    return static_cast<std::uint64_t>(kProducers) * intervals_per_producer *
           entries_per_interval;
  }
};

/// Pregenerated per-producer entry stream (entries_per_interval per
/// interval, contiguous).  Synthesis runs before the clock starts so the
/// timed section measures the transport, not the workload that feeds it.
std::vector<OalEntry> make_stream(const Shape& shape, std::uint32_t producer) {
  std::vector<OalEntry> stream;
  stream.reserve(shape.intervals_per_producer * shape.entries_per_interval);
  for (std::uint64_t i = 0; i < shape.intervals_per_producer; ++i) {
    for (std::uint32_t e = 0; e < shape.entries_per_interval; ++e) {
      stream.push_back({/*obj=*/(i + e * 7 + producer) % 512,
                        /*klass=*/0, /*bytes=*/64, /*gap=*/1});
    }
  }
  return stream;
}

std::span<const OalEntry> interval_slice(const Shape& shape,
                                         const std::vector<OalEntry>& stream,
                                         std::uint64_t interval) {
  return {stream.data() + interval * shape.entries_per_interval,
          shape.entries_per_interval};
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The legacy transport's unit: one closed interval's OAL in its own heap
/// vector, the per-interval record the seed handed to the daemon.
struct LegacyRecord {
  ThreadId thread = kInvalidThread;
  IntervalId interval = 0;
  NodeId node = kInvalidNode;
  std::uint32_t start_pc = 0;
  std::uint32_t end_pc = 0;
  std::vector<OalEntry> entries;
};

/// Legacy transport (kept as the bench baseline after its retirement):
/// materialize a record per interval, lock, push.
double run_legacy(const Shape& shape, std::uint64_t& entries_out) {
  std::mutex mu;
  std::vector<LegacyRecord> shared;
  std::atomic<std::uint32_t> live{kProducers};
  std::uint64_t drained = 0;

  std::vector<std::vector<OalEntry>> streams;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    streams.push_back(make_stream(shape, p));
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> producers;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < shape.intervals_per_producer; ++i) {
        const std::span<const OalEntry> oal =
            interval_slice(shape, streams[p], i);
        LegacyRecord r;
        r.thread = p;
        r.interval = i;
        r.node = static_cast<NodeId>(p);
        // The legacy API forces a per-interval heap vector: this allocation
        // and copy are what the arena path designs away.
        r.entries.assign(oal.begin(), oal.end());
        std::lock_guard<std::mutex> lock(mu);
        shared.push_back(std::move(r));
      }
      live.fetch_sub(1, std::memory_order_release);
    });
  }
  std::vector<LegacyRecord> local;
  auto drain = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      local.swap(shared);
    }
    for (const LegacyRecord& r : local) drained += r.entries.size();
    local.clear();  // per-record frees: the flip side of the per-record mallocs
  };
  while (live.load(std::memory_order_acquire) != 0) {
    drain();
    if (drained == 0) std::this_thread::yield();
  }
  for (std::thread& t : producers) t.join();
  drain();
  const double dt = seconds_since(t0);
  entries_out = drained;
  return dt;
}

/// Lock-free transport: arena append, SPSC publish, pop + recycle.
double run_ring(const Shape& shape, std::uint64_t& entries_out,
                IngestCounters& counters_out) {
  IngestKnobs cfg;
  cfg.arena_entries = 4096;
  cfg.ring_depth = 8;
  IngestHub hub(cfg);
  hub.ensure_lanes(kProducers);
  std::atomic<std::uint32_t> live{kProducers};
  std::uint64_t drained = 0;

  std::vector<std::vector<OalEntry>> streams;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    streams.push_back(make_stream(shape, p));
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> producers;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < shape.intervals_per_producer; ++i) {
        hub.append(p, p, i, static_cast<NodeId>(p), 0, 0,
                   interval_slice(shape, streams[p], i));
      }
      hub.flush(p);
      live.fetch_sub(1, std::memory_order_release);
    });
  }
  auto consume = [&](OalArena* a) {
    drained += a->entries.size();
    hub.recycle(a);
  };
  while (live.load(std::memory_order_acquire) != 0) {
    OalArena* a = hub.try_pop();
    if (a != nullptr) {
      consume(a);
    } else {
      std::this_thread::yield();
    }
  }
  for (std::thread& t : producers) t.join();
  while (OalArena* a = hub.try_pop()) consume(a);
  for (OalArena* s : hub.take_stranded()) consume(s);
  const double dt = seconds_since(t0);
  entries_out = drained;
  counters_out = hub.counters();
  return dt;
}

struct PointResult {
  double ratio = 0.0;
  double ring_seconds = 0.0;
  double legacy_seconds = 0.0;
  std::uint64_t lost = 0;
  bool counts_ok = false;
};

PointResult run_point(const Shape& shape) {
  PointResult out;
  out.legacy_seconds = 1e300;
  out.ring_seconds = 1e300;
  std::uint64_t legacy_entries = 0;
  std::uint64_t ring_entries = 0;
  // Best of three: the ratio gates, so both sides get their best schedule.
  for (int rep = 0; rep < 3; ++rep) {
    std::uint64_t n = 0;
    out.legacy_seconds = std::min(out.legacy_seconds, run_legacy(shape, n));
    legacy_entries = n;
    IngestCounters c{};
    out.ring_seconds = std::min(out.ring_seconds, run_ring(shape, n, c));
    ring_entries = n;
    out.lost += c.entries_published - c.entries_drained;
  }
  out.ratio = out.ring_seconds > 0.0 ? out.legacy_seconds / out.ring_seconds : 0.0;
  out.counts_ok = legacy_entries == shape.expected_entries() &&
                  ring_entries == shape.expected_entries();
  return out;
}

/// Correctness: the same stream through opposite arena geometries must
/// yield the same full-run map.
double map_error() {
  KlassRegistry reg;
  Heap heap(reg, 2);
  SamplingPlan plan(heap);
  const ClassId klass = reg.register_class("X", 64);

  constexpr std::uint32_t kThreads = 8;
  CorrelationDaemon via_roomy(plan, kThreads);
  CorrelationDaemon via_splitty(plan, kThreads);
  IngestKnobs roomy;  // default 4096-entry arenas: no interval ever splits
  IngestKnobs splitty;
  splitty.arena_entries = 64;  // force splits and many arenas
  splitty.ring_depth = 2;
  IngestHub roomy_hub(roomy);
  IngestHub splitty_hub(splitty);
  roomy_hub.ensure_lanes(kThreads);
  splitty_hub.ensure_lanes(kThreads);

  for (std::uint64_t epoch = 0; epoch < 4; ++epoch) {
    std::vector<OalArena> batch;
    for (ThreadId t = 0; t < kThreads; ++t) {
      for (std::uint64_t i = 0; i < 50; ++i) {
        std::vector<OalEntry> entries;
        for (std::uint64_t e = 0; e < 5 + (t + i) % 4; ++e) {
          entries.push_back({(epoch + t + i * 3 + e) % 96, klass, 64,
                             1 + static_cast<std::uint32_t>(e % 2)});
        }
        batch.push_back(interval_log(t, std::move(entries),
                                     static_cast<NodeId>(t % 3), epoch * 50 + i));
      }
    }
    for (const OalArena& log : batch) {
      append_slices(roomy_hub, log);
      append_slices(splitty_hub, log);
    }
    via_roomy.ingest(roomy_hub);
    via_splitty.ingest(splitty_hub);
    via_roomy.run_epoch();
    via_splitty.run_epoch();
  }
  return absolute_error(via_splitty.build_full(), via_roomy.build_full());
}

}  // namespace
}  // namespace djvm

int main() {
  using namespace djvm;
  bench::BenchReport report("ingest_ring");

  // Sparse first (the gated point), then the density curve.
  const std::vector<Shape> sweep = {
      {400'000, 1},  // governed steady state: rates backed off, tiny OALs
      {100'000, 4},
      {25'000, 16},
  };

  std::printf("%10s %10s %12s %12s %9s\n", "intervals", "entries/iv",
              "legacy_ms", "ring_ms", "ratio");
  PointResult gated;
  std::uint64_t lost_total = 0;
  bool counts_ok = true;
  for (const Shape& s : sweep) {
    const PointResult r = run_point(s);
    std::printf("%10llu %10u %12.3f %12.3f %8.2fx\n",
                static_cast<unsigned long long>(s.intervals_per_producer *
                                                kProducers),
                s.entries_per_interval, r.legacy_seconds * 1e3,
                r.ring_seconds * 1e3, r.ratio);
    if (&s == &sweep.front()) gated = r;
    lost_total += r.lost;
    counts_ok = counts_ok && r.counts_ok;
  }
  const double err = map_error();

  report.latency_metric("ring_seconds_sparse", gated.ring_seconds, 0.35);
  report.metric("legacy_seconds_sparse", gated.legacy_seconds);
  report.metric("throughput_ratio_sparse", gated.ratio, "max", 0.30);
  report.metric("entries_lost", static_cast<double>(lost_total), "min", 0.0,
                0.0);
  report.metric("map_abs_error", err, "min", 0.0, 1e-9);

  report.check(
      "ring ingest >= 5x the record+mutex submit transport at one entry per "
      "interval (backed-off steady state)",
      gated.ratio >= 5.0, gated.ratio, 5.0, ">=");
  report.check("no path loses entries (published == drained, counts exact)",
               lost_total == 0 && counts_ok, static_cast<double>(lost_total),
               0.0, "==");
  report.check("full-run maps agree across arena geometries within 1e-9",
               err <= 1e-9, err, 1e-9, "<=");
  return report.finish();
}
