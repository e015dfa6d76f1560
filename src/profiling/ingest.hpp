// Lock-free OAL ingest: per-thread log arenas (profiling/oal.hpp) handed to
// the correlation daemon over single-producer/single-consumer rings.
//
// A heap-allocated log per interval close, funneled through one serial
// hand-off, pays allocation and copying costs that grow with thread count.
// Here each worker thread owns a *lane*:
//
//   producer (worker thread)                 consumer (daemon pump)
//   ------------------------                 ----------------------
//   append() into the open fixed-size  ->   outbound SPSC ring  ->  fold
//   OalArena; publish when full              (arena pointers)        & recycle
//                                       <-   recycled SPSC ring  <-
//
// No locks anywhere on the hot path: the rings are bounded power-of-two
// SPSC queues with acquire/release head/tail, and arenas are reused through
// the recycle ring so steady state allocates nothing.  When the outbound
// ring is full the arena is *parked* producer-side (a backpressure event,
// counted so the overhead meter and the timeline can see the stall) and
// re-offered before the next publish — entries are never dropped, silently
// or otherwise; the counters prove it (published == drained + in flight).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "profiling/oal.hpp"

namespace djvm {

/// Bounded lock-free single-producer/single-consumer ring.  Exactly one
/// thread may call push() and exactly one may call pop(); capacity rounds up
/// to a power of two.  A full ring rejects the push (the caller owns the
/// backpressure policy) — nothing blocks and nothing is overwritten.
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity) {
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  /// Producer only.  False when the ring is full (the value is untouched).
  [[nodiscard]] bool push(T value) {
    const std::size_t t = tail_.load(std::memory_order_relaxed);
    if (t - head_.load(std::memory_order_acquire) == slots_.size()) {
      return false;
    }
    slots_[t & mask_] = std::move(value);
    tail_.store(t + 1, std::memory_order_release);
    return true;
  }

  /// Consumer only.  False when the ring is empty (`out` is untouched).
  [[nodiscard]] bool pop(T& out) {
    const std::size_t h = head_.load(std::memory_order_relaxed);
    if (h == tail_.load(std::memory_order_acquire)) return false;
    out = std::move(slots_[h & mask_]);
    head_.store(h + 1, std::memory_order_release);
    return true;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }
  /// Approximate occupancy (exact from either endpoint's own thread).
  [[nodiscard]] std::size_t size() const noexcept {
    return tail_.load(std::memory_order_acquire) -
           head_.load(std::memory_order_acquire);
  }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;
  /// Consumer and producer cursors on separate cache lines: the whole point
  /// of SPSC is that each side writes only its own.
  alignas(64) std::atomic<std::size_t> head_{0};
  alignas(64) std::atomic<std::size_t> tail_{0};
};

/// Modeled worker-side cost of one backpressure event: the producer parks
/// the arena on its overflow deque and re-offers it later — a few hundred
/// nanoseconds of pointer shuffling on the worker thread.  Djvm::run_epoch
/// bills this into the epoch sample's rate-dependent bucket so a chronically
/// full ring surfaces on the overhead meter instead of hiding in lost
/// throughput.
inline constexpr double kRingBackpressureSeconds = 400e-9;

/// Aggregated hub counters (sums over lanes; each is monotonic).  The loss
/// invariant the bench gate checks: entries_published == entries_drained
/// once every producer has flushed and the consumer has drained — there is
/// no drop path, and backpressure_events counts the stalls instead.
struct IngestCounters {
  std::uint64_t arenas_published = 0;
  std::uint64_t entries_published = 0;
  std::uint64_t backpressure_events = 0;  ///< publishes that found the ring full
  std::uint64_t arenas_drained = 0;
  std::uint64_t entries_drained = 0;
  std::uint64_t arenas_allocated = 0;  ///< lifetime allocations (recycling hides reuse)
};

/// The ingest hub: one lane per producer thread, the daemon as the single
/// consumer.  Producer-side calls (append/flush on lane i) must come from
/// lane i's owning thread; consumer-side calls (try_pop/recycle/
/// take_stranded) from the single draining thread.  ensure_lanes may be
/// called concurrently with consumption (growth takes a mutex no hot-path
/// call touches).
class IngestHub {
 public:
  explicit IngestHub(IngestKnobs cfg = {});
  ~IngestHub();
  IngestHub(const IngestHub&) = delete;
  IngestHub& operator=(const IngestHub&) = delete;

  /// Grows the lane table to at least `count` lanes (never shrinks).
  void ensure_lanes(std::uint32_t count);
  [[nodiscard]] std::uint32_t lane_count() const noexcept {
    return lane_count_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const IngestKnobs& config() const noexcept { return cfg_; }

  // --- producer side ---------------------------------------------------------
  /// Appends one closed interval's entries to `lane`'s open arena, splitting
  /// across arenas when one fills (full arenas publish immediately).  The
  /// common case — the interval fits the open arena — stays inline so a
  /// sparse interval close costs two bounds checks and two appends; arena
  /// turnover and splits take the out-of-line slow path.
  void append(std::uint32_t lane, ThreadId thread, IntervalId interval,
              NodeId node, std::uint32_t start_pc, std::uint32_t end_pc,
              std::span<const OalEntry> entries) {
    Lane& ln = *lanes_[lane];
    OalArena* a = ln.open;
    if (a == nullptr || entries.empty() ||
        a->entries.size() + entries.size() > cfg_.arena_entries) {
      append_slow(ln, lane, thread, interval, node, start_pc, end_pc, entries);
      return;
    }
    const auto begin = static_cast<std::uint32_t>(a->entries.size());
    a->entries.insert(a->entries.end(), entries.begin(), entries.end());
    a->intervals.push_back(
        ArenaInterval{thread, interval, node, start_pc, end_pc, begin,
                      static_cast<std::uint32_t>(begin + entries.size())});
    if (a->entries.size() >= cfg_.arena_entries) {
      publish(ln, a);
      ln.open = nullptr;
    }
  }
  /// Publishes `lane`'s open arena even if only partially filled (epoch
  /// boundary, producer exit).  No-op when the open arena is empty.
  void flush(std::uint32_t lane);

  // --- consumer side ---------------------------------------------------------
  /// Pops the next published arena, round-robin across lanes; nullptr when
  /// every outbound ring is empty.  The caller must hand the arena back via
  /// recycle() when done.
  [[nodiscard]] OalArena* try_pop();
  /// Returns a drained arena to its lane for reuse.
  void recycle(OalArena* arena);
  /// Collects arenas the rings cannot carry — parked (backpressured) and
  /// open ones — from every lane.  Caller must guarantee every producer has
  /// quiesced (joined, or running on the consumer's own thread, the
  /// simulator's case): this reads producer-side state directly.
  [[nodiscard]] std::vector<OalArena*> take_stranded();

  [[nodiscard]] IngestCounters counters() const;

 private:
  struct Lane {
    explicit Lane(const IngestKnobs& cfg)
        : outbound(cfg.ring_depth), recycled(cfg.ring_depth) {}

    SpscRing<OalArena*> outbound;  ///< producer -> consumer (full arenas)
    SpscRing<OalArena*> recycled;  ///< consumer -> producer (empty arenas)

    // Producer-side state (owning thread + destructor/take_stranded only).
    OalArena* open = nullptr;
    std::deque<OalArena*> parked;  ///< FIFO backpressure overflow
    std::vector<std::unique_ptr<OalArena>> owned;  ///< allocation registry

    // Consumer-side state.
    std::vector<OalArena*> spare;  ///< recycle-ring overflow, retried later

    // Single-writer counters, read cross-thread by counters().
    std::atomic<std::uint64_t> published{0};
    std::atomic<std::uint64_t> entries_published{0};
    std::atomic<std::uint64_t> backpressure{0};
    std::atomic<std::uint64_t> allocated{0};
    std::atomic<std::uint64_t> drained{0};
    std::atomic<std::uint64_t> entries_drained{0};
  };

  /// Open arena with at least one entry of room (publishing a full one and
  /// pulling from the recycle ring / allocating as needed).  Producer side.
  OalArena* ensure_open(Lane& ln, std::uint32_t lane);
  /// append() cases the inline fast path rejects: no open arena yet, or the
  /// interval does not fit and must split across arenas.
  void append_slow(Lane& ln, std::uint32_t lane, ThreadId thread,
                   IntervalId interval, NodeId node, std::uint32_t start_pc,
                   std::uint32_t end_pc, std::span<const OalEntry> entries);
  /// Offers `arena` to the outbound ring, draining parked arenas first so
  /// FIFO order holds; parks it (counted) when the ring is full.
  void publish(Lane& ln, OalArena* arena);
  void count_drained(Lane& ln, const OalArena& arena);

  IngestKnobs cfg_;
  /// Lane storage: pointers are stable across growth (unique_ptr), so
  /// hot-path access never takes lanes_mutex_ — only growth does.
  std::vector<std::unique_ptr<Lane>> lanes_;
  mutable std::mutex lanes_mutex_;
  std::atomic<std::uint32_t> lane_count_{0};
  std::uint32_t rr_ = 0;  ///< consumer round-robin cursor
};

}  // namespace djvm
