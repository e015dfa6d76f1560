#include "profiling/ingest.hpp"

#include <algorithm>

namespace djvm {

IngestHub::IngestHub(IngestKnobs cfg) : cfg_(cfg) {
  cfg_.arena_entries = std::max<std::uint32_t>(1, cfg_.arena_entries);
  cfg_.ring_depth = std::max<std::uint32_t>(1, cfg_.ring_depth);
}

IngestHub::~IngestHub() {
  // Arenas are owned by their lane's registry; rings and parked queues hold
  // raw pointers into it, so destruction order is: drop the queue views
  // (trivially, with the lanes), then the registry frees every arena exactly
  // once.  Callers must have quiesced producers and consumer by now.
}

void IngestHub::ensure_lanes(std::uint32_t count) {
  if (lane_count_.load(std::memory_order_acquire) >= count) return;
  std::lock_guard<std::mutex> lock(lanes_mutex_);
  while (lanes_.size() < count) {
    lanes_.push_back(std::make_unique<Lane>(cfg_));
  }
  lane_count_.store(static_cast<std::uint32_t>(lanes_.size()),
                    std::memory_order_release);
}

OalArena* IngestHub::ensure_open(Lane& ln, std::uint32_t lane) {
  if (ln.open != nullptr && ln.open->entries.size() < cfg_.arena_entries) {
    return ln.open;
  }
  if (ln.open != nullptr) {
    publish(ln, ln.open);
    ln.open = nullptr;
  }
  OalArena* a = nullptr;
  if (!ln.recycled.pop(a)) {
    auto fresh = std::make_unique<OalArena>();
    fresh->lane = lane;
    fresh->entries.reserve(cfg_.arena_entries);
    // Worst case one slice per entry (sparse single-entry intervals): reserve
    // up front so the hot path never reallocates either vector.
    fresh->intervals.reserve(cfg_.arena_entries);
    a = fresh.get();
    ln.owned.push_back(std::move(fresh));
    ln.allocated.fetch_add(1, std::memory_order_relaxed);
  }
  ln.open = a;
  return a;
}

void IngestHub::publish(Lane& ln, OalArena* arena) {
  // Re-offer parked arenas first: FIFO keeps a lane's slices in interval
  // order, and a drained consumer frees ring slots between epochs.
  while (!ln.parked.empty()) {
    if (!ln.outbound.push(ln.parked.front())) break;
    ln.parked.pop_front();
  }
  const std::uint64_t n = arena->entries.size();
  if (!ln.parked.empty() || !ln.outbound.push(arena)) {
    // Full ring: the arena stays with the producer — a counted stall, never
    // a drop.  It is still *published* for the loss accounting (the entries
    // exist and will reach the consumer via a later re-offer or
    // take_stranded).
    ln.backpressure.fetch_add(1, std::memory_order_relaxed);
    ln.parked.push_back(arena);
  }
  ln.published.fetch_add(1, std::memory_order_relaxed);
  ln.entries_published.fetch_add(n, std::memory_order_relaxed);
}

void IngestHub::append_slow(Lane& ln, std::uint32_t lane, ThreadId thread,
                            IntervalId interval, NodeId node,
                            std::uint32_t start_pc, std::uint32_t end_pc,
                            std::span<const OalEntry> entries) {
  if (entries.empty()) return;
  std::size_t off = 0;
  while (off < entries.size()) {
    OalArena* a = ensure_open(ln, lane);
    const std::size_t room = cfg_.arena_entries - a->entries.size();
    const std::size_t take = std::min(room, entries.size() - off);
    const auto begin = static_cast<std::uint32_t>(a->entries.size());
    a->entries.insert(a->entries.end(), entries.begin() + off,
                      entries.begin() + off + take);
    a->intervals.push_back(ArenaInterval{
        thread, interval, node, start_pc, end_pc, begin,
        static_cast<std::uint32_t>(begin + take)});
    off += take;
    if (a->entries.size() >= cfg_.arena_entries) {
      publish(ln, a);
      ln.open = nullptr;
    }
  }
}

void IngestHub::flush(std::uint32_t lane) {
  Lane& ln = *lanes_[lane];
  if (ln.open == nullptr) return;
  if (ln.open->empty()) return;  // keep the empty arena open for reuse
  publish(ln, ln.open);
  ln.open = nullptr;
}

void IngestHub::count_drained(Lane& ln, const OalArena& arena) {
  ln.drained.fetch_add(1, std::memory_order_relaxed);
  ln.entries_drained.fetch_add(arena.entries.size(), std::memory_order_relaxed);
}

OalArena* IngestHub::try_pop() {
  const std::uint32_t n = lane_count_.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < n; ++i) {
    Lane& ln = *lanes_[(rr_ + i) % n];
    OalArena* a = nullptr;
    if (ln.outbound.pop(a)) {
      rr_ = (rr_ + i + 1) % n;
      count_drained(ln, *a);
      return a;
    }
  }
  return nullptr;
}

void IngestHub::recycle(OalArena* arena) {
  Lane& ln = *lanes_[arena->lane];
  arena->clear();
  ln.spare.push_back(arena);
  // Top up the recycle ring from the spare pile (LIFO is fine: recycled
  // arenas are interchangeable).
  while (!ln.spare.empty() && ln.recycled.push(ln.spare.back())) {
    ln.spare.pop_back();
  }
}

std::vector<OalArena*> IngestHub::take_stranded() {
  std::vector<OalArena*> out;
  const std::uint32_t n = lane_count_.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < n; ++i) {
    Lane& ln = *lanes_[i];
    // Parked first (they were published before anything still open).
    while (!ln.parked.empty()) {
      OalArena* a = ln.parked.front();
      ln.parked.pop_front();
      count_drained(ln, *a);
      out.push_back(a);
    }
    if (ln.open != nullptr && !ln.open->empty()) {
      OalArena* a = ln.open;
      ln.open = nullptr;
      // Open arenas were never published: count both sides here so the
      // published == drained invariant closes.
      ln.published.fetch_add(1, std::memory_order_relaxed);
      ln.entries_published.fetch_add(a->entries.size(),
                                     std::memory_order_relaxed);
      count_drained(ln, *a);
      out.push_back(a);
    }
  }
  return out;
}

IngestCounters IngestHub::counters() const {
  IngestCounters c;
  const std::uint32_t n = lane_count_.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < n; ++i) {
    const Lane& ln = *lanes_[i];
    c.arenas_published += ln.published.load(std::memory_order_relaxed);
    c.entries_published += ln.entries_published.load(std::memory_order_relaxed);
    c.backpressure_events += ln.backpressure.load(std::memory_order_relaxed);
    c.arenas_drained += ln.drained.load(std::memory_order_relaxed);
    c.entries_drained += ln.entries_drained.load(std::memory_order_relaxed);
    c.arenas_allocated += ln.allocated.load(std::memory_order_relaxed);
  }
  return c;
}

}  // namespace djvm
