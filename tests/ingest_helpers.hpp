// Test and bench helper: OAL input built as log arenas (profiling/oal.hpp),
// the one OAL representation every consumer reads.  Hand-built input is a
// vector of arenas — one slice per closed interval via interval_log(), or
// re-packed into fixed-capacity arenas via repack() — and reaches a
// CorrelationDaemon through a real ingest hub (ArenaFeeder).  Raw OAL
// streams come out of a running Gos by draining its hub (drain_hub).  The
// TCM oracle (build_reference) lives here too, next to the production CSR
// path (fold_map) it checks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <span>
#include <unordered_map>
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

/// Pointer view of `logs`: TcmBuilder::reorganize_arena's input form (the
/// form drained arenas arrive in).
inline std::vector<const OalArena*> log_ptrs(std::span<const OalArena> logs) {
  std::vector<const OalArena*> out;
  out.reserve(logs.size());
  for (const OalArena& log : logs) out.push_back(&log);
  return out;
}

/// The production window map over `logs`: one CSR reorganize, sparse
/// accrual, densify.
inline SquareMatrix fold_map(std::span<const OalArena> logs,
                             std::uint32_t threads, bool weighted = true) {
  ArenaScratch scratch;
  return TcmBuilder::accrue_sparse(
             TcmBuilder::reorganize_arena(log_ptrs(logs), weighted, scratch),
             threads)
      .densify();
}

/// Reorganizes `logs` (HT-weighted) and merges them into `store` as one
/// window.
inline void absorb_logs(TcmStore& store, std::span<const OalArena> logs,
                        ArenaScratch& scratch) {
  store.absorb(
      TcmBuilder::reorganize_arena(log_ptrs(logs), /*weighted=*/true, scratch));
}

/// The store's whole-run map.
inline SquareMatrix store_map(const TcmStore& store) {
  return TcmBuilder::accrue_sparse(store.csr(), store.threads()).densify();
}

/// The TCM oracle: the seed's textbook pipeline, kept for equivalence tests
/// and as the "dense from scratch" side of bench_tcm_scale.  A hash map from
/// object id to a per-object reader vector (one rehash + one linear reader
/// scan per entry, each byte value the maximum over the window's
/// intervals), then a dense accrual: cell (i, j) accumulates
/// min(bytes_i, bytes_j) per object shared by threads i and j.
inline SquareMatrix build_reference(std::span<const OalArena> logs,
                                    std::uint32_t threads,
                                    bool weighted = true) {
  std::unordered_map<ObjectId, std::size_t> index;
  std::vector<std::vector<std::pair<ThreadId, double>>> readers_of;
  index.reserve(1024);
  for (const OalArena& log : logs) {
    for (const ArenaInterval& iv : log.intervals) {
      for (std::uint32_t i = iv.begin; i < iv.end; ++i) {
        const OalEntry& e = log.entries[i];
        const double bytes = weighted ? static_cast<double>(e.bytes) * e.gap
                                      : static_cast<double>(e.bytes);
        auto [it, inserted] = index.try_emplace(e.obj, readers_of.size());
        if (inserted) readers_of.emplace_back();
        auto& readers = readers_of[it->second];
        auto rit = std::find_if(
            readers.begin(), readers.end(),
            [&](const auto& p) { return p.first == iv.thread; });
        if (rit == readers.end()) {
          readers.emplace_back(iv.thread, bytes);
        } else {
          rit->second = std::max(rit->second, bytes);
        }
      }
    }
  }
  SquareMatrix tcm(threads);
  for (const auto& r : readers_of) {
    for (std::size_t i = 0; i < r.size(); ++i) {
      for (std::size_t j = i + 1; j < r.size(); ++j) {
        if (r[i].first < threads && r[j].first < threads) {
          tcm.add_symmetric(r[i].first, r[j].first,
                            std::min(r[i].second, r[j].second));
        }
      }
    }
  }
  return tcm;
}

/// The whole-run oracle: per object, a std::map of max-combined readers
/// (HT-weighted), put through the daemon's retention rules, then accrued
/// densely — an independent model of TcmStore under RetentionPolicy.
struct StoreOracle {
  struct Object {
    std::map<ThreadId, double> readers;
    std::uint32_t last_touch = 0;
    std::uint32_t decay_epoch = 0xFFFFFFFFu;
  };
  std::map<ObjectId, Object> objects;
  std::uint32_t clock = 0;
  std::size_t dropped = 0;

  void absorb(std::span<const OalArena> logs, std::uint32_t threads) {
    for (const OalArena& log : logs) {
      for (const ArenaInterval& iv : log.intervals) {
        if (iv.thread >= threads) continue;
        for (std::uint32_t i = iv.begin; i < iv.end; ++i) {
          const OalEntry& e = log.entries[i];
          const double bytes = static_cast<double>(e.bytes) * e.gap;
          Object& o = objects[e.obj];
          auto [it, fresh] = o.readers.try_emplace(iv.thread, bytes);
          if (!fresh) it->second = std::max(it->second, bytes);
          o.last_touch = clock;
        }
      }
    }
  }

  /// One epoch of the daemon's retention: advance, compact on the period.
  TcmCompactStats retain(const RetentionPolicy& p) {
    TcmCompactStats stats;
    if (!p.active()) return stats;
    ++clock;
    if (p.compact_period == 0 || clock % p.compact_period != 0) return stats;
    for (auto it = objects.begin(); it != objects.end();) {
      Object& o = it->second;
      if (clock - o.last_touch >= p.idle_epochs &&
          !(p.decay > 0.0 && o.decay_epoch == clock)) {
        double top = 0.0;
        for (const auto& [t, b] : o.readers) top = std::max(top, b);
        if (p.decay > 0.0 && p.decay * top >= 1.0) {
          for (auto& [t, b] : o.readers) b *= p.decay;
          o.decay_epoch = clock;
          ++stats.decayed_objects;
        } else {
          stats.dropped_readers += o.readers.size();
          it = objects.erase(it);
          ++stats.dropped_objects;
          continue;
        }
      }
      ++it;
    }
    dropped += stats.dropped_objects;
    return stats;
  }

  [[nodiscard]] SquareMatrix map(std::uint32_t threads) const {
    SquareMatrix m(threads);
    for (const auto& [id, o] : objects) {
      for (auto i = o.readers.begin(); i != o.readers.end(); ++i) {
        for (auto j = std::next(i); j != o.readers.end(); ++j) {
          m.add_symmetric(i->first, j->first, std::min(i->second, j->second));
        }
      }
    }
    return m;
  }
};

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
