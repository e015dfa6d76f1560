// Test and bench helper: OAL input built as log arenas (profiling/oal.hpp),
// the one OAL representation every consumer reads.  Hand-built input is a
// vector of arenas — one slice per closed interval via interval_log(), or
// re-packed into fixed-capacity arenas via repack() — and reaches a
// CorrelationDaemon through a real ingest hub (ArenaFeeder).  Raw OAL
// streams come out of a running Gos by draining its hub (drain_hub).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/matrix.hpp"
#include "profiling/correlation_daemon.hpp"
#include "profiling/ingest.hpp"
#include "profiling/oal.hpp"
#include "profiling/tcm.hpp"

namespace djvm {

/// Appends one closed interval to `log` as a new slice: `header` supplies
/// the context fields, the entry range is filled in.  The layout
/// IngestHub::append produces when the interval fits the open arena.
inline void append_interval(OalArena& log, ArenaInterval header,
                            std::span<const OalEntry> entries) {
  header.begin = static_cast<std::uint32_t>(log.entries.size());
  log.entries.insert(log.entries.end(), entries.begin(), entries.end());
  header.end = static_cast<std::uint32_t>(log.entries.size());
  log.intervals.push_back(header);
}

/// One closed interval as a one-slice arena (the node defaults to
/// ArenaInterval's: unplaced).
inline OalArena interval_log(ThreadId thread, std::vector<OalEntry> entries,
                             NodeId node = kInvalidNode,
                             IntervalId interval = 0) {
  OalArena log;
  log.entries = std::move(entries);
  log.intervals.push_back(
      ArenaInterval{thread, interval, node, 0, 0, 0,
                    static_cast<std::uint32_t>(log.entries.size())});
  return log;
}

/// Re-packs the slices of `logs` into arenas of at most `capacity` entries,
/// splitting a slice across arenas exactly as IngestHub::append does (each
/// piece carries the full header).
inline std::vector<OalArena> repack(std::span<const OalArena> logs,
                                    std::uint32_t capacity) {
  std::vector<OalArena> out;
  for (const OalArena& log : logs) {
    for (const ArenaInterval& iv : log.intervals) {
      std::uint32_t off = iv.begin;
      while (off < iv.end) {
        if (out.empty() || out.back().entries.size() >= capacity) {
          out.emplace_back();
          out.back().entries.reserve(capacity);
        }
        OalArena& a = out.back();
        const auto take = std::min<std::uint32_t>(
            capacity - static_cast<std::uint32_t>(a.entries.size()),
            iv.end - off);
        append_interval(a, iv, {log.entries.data() + off, take});
        off += take;
      }
    }
  }
  return out;
}

/// Pointer view of `logs`: the distributed reducer's input form (the form
/// drained arenas arrive in).
inline std::vector<const OalArena*> log_ptrs(std::span<const OalArena> logs) {
  std::vector<const OalArena*> out;
  out.reserve(logs.size());
  for (const OalArena& log : logs) out.push_back(&log);
  return out;
}

/// The production fold — one TcmAccumulator batch over `logs` — densified.
inline SquareMatrix fold_map(std::span<const OalArena> logs,
                             std::uint32_t threads, bool weighted = true) {
  TcmAccumulator acc(threads, weighted);
  acc.add(logs);
  return acc.dense();
}

/// Re-appends every slice of `log` to `hub`, each on the lane of its thread
/// (the lanes must exist): a producer replaying a logged stream.
inline void append_slices(IngestHub& hub, const OalArena& log) {
  for (const ArenaInterval& iv : log.intervals) {
    hub.append(iv.thread, iv.thread, iv.interval, iv.node, iv.start_pc,
               iv.end_pc, {log.entries.data() + iv.begin, iv.end - iv.begin});
  }
}

/// Drains every arena `hub` holds — published, parked and still open — into
/// owned copies, in pop order, and recycles the originals.  Producers must
/// be quiesced (the IngestHub::take_stranded contract): the simulator's
/// producers run on the caller's thread, so a Gos hub qualifies between
/// accesses.
inline std::vector<OalArena> drain_hub(IngestHub& hub) {
  std::vector<OalArena> out;
  const auto take = [&](OalArena* a) {
    out.push_back(*a);
    hub.recycle(a);
  };
  while (OalArena* a = hub.try_pop()) take(a);
  for (OalArena* a : hub.take_stranded()) take(a);
  return out;
}

/// Feeds hand-built arenas to a CorrelationDaemon through the arena ingest
/// path (the daemon's only delivery path).  Declare the feeder BEFORE the
/// daemon uses it each epoch — the daemon recycles drained arenas back into
/// the feeder's hub at its next run_epoch/build_full, so the hub must
/// outlive those calls.
class ArenaFeeder {
 public:
  explicit ArenaFeeder(IngestKnobs cfg = {}) : hub_(cfg) {}

  /// Publishes every slice of `logs` through the hub (lane == the slice's
  /// thread) and drains them into `daemon` via ingest().
  void feed(CorrelationDaemon& daemon, std::vector<OalArena> logs) {
    std::uint32_t lanes = 1;
    for (const OalArena& log : logs) {
      for (const ArenaInterval& iv : log.intervals) {
        if (iv.thread + 1u > lanes) lanes = iv.thread + 1u;
      }
    }
    hub_.ensure_lanes(lanes);
    for (const OalArena& log : logs) append_slices(hub_, log);
    for (std::uint32_t lane = 0; lane < lanes; ++lane) hub_.flush(lane);
    daemon.ingest(hub_);
  }

  [[nodiscard]] IngestHub& hub() noexcept { return hub_; }

 private:
  IngestHub hub_;
};

}  // namespace djvm
