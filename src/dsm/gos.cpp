#include "dsm/gos.hpp"

#include <algorithm>
#include <cassert>

#include "runtime/object.hpp"

namespace djvm {

namespace {
/// Allocation bookkeeping cost.
constexpr SimTime kAllocCost = 60;
/// Per-request fixed bytes of a fetch request / control message payload.
constexpr std::uint64_t kRequestBytes = 32;
}  // namespace

Gos::Gos(Heap& heap, Network& net, SamplingPlan& plan, const Config& cfg)
    : heap_(heap), net_(net), plan_(plan), cfg_(cfg), costs_(cfg.costs),
      nodes_(cfg.nodes), locks_(cfg.nodes), tracking_(cfg.oal_transfer),
      node_stats_(cfg.nodes), ingest_(cfg.ingest) {
  last_write_epoch_.reserve(1024);
  // Hand the plan the copy sets so resampling walks (and their cost
  // attribution) follow what each node actually caches.
  plan_.set_copy_view(this);
  refresh_dispatch();
}

Gos::~Gos() { plan_.set_copy_view(nullptr); }

void Gos::refresh_dispatch() {
  std::uint32_t d = 0;
  if (tracking_ != OalTransfer::kDisabled) d |= kDispatchTracking;
  if (footprinting_) d |= kDispatchFootprint;
  if (observe_ && hooks_ != nullptr) d |= kDispatchObserve;
  if (stack_sampling_) d |= kDispatchStack;
  dispatch_ = d;
  for (ThreadState& ts : threads_) ts.dispatch = d;
}

ThreadId Gos::spawn_thread(NodeId node) {
  assert(node < nodes_.size());
  ThreadState ts;
  ts.node = node;
  ts.dispatch = dispatch_;
  threads_.push_back(std::move(ts));
  ingest_.ensure_lanes(static_cast<std::uint32_t>(threads_.size()));
  return static_cast<ThreadId>(threads_.size() - 1);
}

void Gos::grow_node(NodeState& ns) const {
  const std::size_t n = heap_.object_count();
  if (ns.state.size() < n) {
    ns.state.resize(n, static_cast<std::uint8_t>(CopyState::kInvalid));
    ns.fetch_epoch.resize(n, 0);
  }
}

ObjectId Gos::alloc(ClassId klass, NodeId home) {
  const ObjectId id = heap_.alloc(klass, home);
  plan_.on_alloc(id);
  NodeState& ns = nodes_[home];
  grow_node(ns);
  ns.state[static_cast<std::size_t>(id)] = static_cast<std::uint8_t>(CopyState::kHome);
  grow_to(last_write_epoch_, heap_.object_count(), 0u);
  return id;
}

ObjectId Gos::alloc_array(ClassId klass, NodeId home, std::uint32_t length) {
  const ObjectId id = heap_.alloc_array(klass, home, length);
  plan_.on_alloc(id);
  NodeState& ns = nodes_[home];
  grow_node(ns);
  ns.state[static_cast<std::size_t>(id)] = static_cast<std::uint8_t>(CopyState::kHome);
  grow_to(last_write_epoch_, heap_.object_count(), 0u);
  return id;
}

ObjectId Gos::alloc_for_thread(ThreadId t, ClassId klass) {
  threads_[t].clock.advance(kAllocCost);
  return alloc(klass, threads_[t].node);
}

ObjectId Gos::alloc_array_for_thread(ThreadId t, ClassId klass, std::uint32_t length) {
  threads_[t].clock.advance(kAllocCost);
  return alloc_array(klass, threads_[t].node, length);
}

bool Gos::node_has_copy(NodeId node, ObjectId obj) const {
  const NodeState& ns = nodes_[node];
  const auto oi = static_cast<std::size_t>(obj);
  if (oi >= ns.state.size()) return heap_.meta(obj).home == node;
  const auto st = static_cast<CopyState>(ns.state[oi]);
  if (st == CopyState::kHome) return true;
  if (st == CopyState::kInvalid) return false;
  const std::uint32_t we =
      oi < last_write_epoch_.size() ? last_write_epoch_[oi] : 0;
  return !(we > ns.fetch_epoch[oi] && we <= ns.view_epoch);
}

void Gos::access(ThreadId t, ObjectId obj, bool is_write) {
  ThreadState& ts = threads_[t];
  ts.clock.advance(costs_.access_fast_path);
  ++stats_.accesses;

  NodeState& ns = nodes_[ts.node];
  const auto oi = static_cast<std::size_t>(obj);
  if (oi >= ns.state.size()) [[unlikely]] {
    grow_node(ns);
    grow_to(last_write_epoch_, heap_.object_count(), 0u);
  }

  // --- consistency check (the inlined 2-bit state test) ---------------------
  const auto st = static_cast<CopyState>(ns.state[oi]);
  bool valid;
  if (st == CopyState::kHome) {
    valid = true;
  } else if (st == CopyState::kInvalid) {
    valid = false;
  } else {
    // Lazy invalidation: stale only if a newer release exists that this node
    // has synchronized past (HLRC write-notice semantics).
    const std::uint32_t we = last_write_epoch_[oi];
    valid = !(we > ns.fetch_epoch[oi] && we <= ns.view_epoch);
  }
  if (!valid) [[unlikely]] {
    object_fault(ts, ns, obj);
  }

  // --- per-object bookkeeping (one record, one cache line) -------------------
  // The merged ObjectBook serves the OAL, footprint, and dirty stamp checks.
  // Its lookup is one directory load; one [[unlikely]] page-present check
  // covers all three, and a missing page is allocated on first touch.
  const std::uint32_t dispatch = ts.dispatch;
  if ((dispatch & (kDispatchTracking | kDispatchFootprint)) != 0 || is_write) {
    ObjectBook* rec = find_book(ts, oi);
    if (rec == nullptr) [[unlikely]] {
      rec = add_book_page(ts, oi);
    }
    ObjectBook& bk = *rec;

    // --- correlation tracking (false-invalid overlay) ------------------------
    // The interval stamp gates first: the false-invalid overlay traps the
    // FIRST access to each object per interval into the service routine,
    // which cancels the overlay and logs iff the object is sampled.
    // Re-accesses take a single well-predicted branch.
    if (dispatch & kDispatchTracking) {
      if (bk.oal_stamp != ts.interval_stamp) [[unlikely]] {
        bk.oal_stamp = ts.interval_stamp;
        // The *accessing* node's copy decides: a per-(node, class) gap shift
        // changes what that node logs, wherever the object is homed.
        const CopySample s = plan_.sample(ts.node, obj);
        if (s.sampled) log_access(ts, obj, s);
      }
    }

    // --- sticky-set footprinting (repeated re-armed tracking) ----------------
    if (dispatch & kDispatchFootprint) {
      if (ts.clock.now() >= ts.fp_next_boundary) [[unlikely]] {
        refresh_footprint_state(ts);
      }
      // The tick stamp gates first, so each object's answer is computed at
      // most once per re-arm tick.
      if (ts.fp_on_phase && bk.fp_stamp != ts.fp_tick &&
          plan_.is_sampled(ts.node, obj)) {
        footprint_touch(ts, bk, obj);
      }
    }

    // --- dirty tracking for writes -------------------------------------------
    if (is_write) {
      if (bk.dirty_stamp != ts.release_stamp) {
        bk.dirty_stamp = ts.release_stamp;
        ts.dirty.push_back(obj);
        if (static_cast<CopyState>(ns.state[oi]) == CopyState::kValid) {
          ns.state[oi] = static_cast<std::uint8_t>(CopyState::kDirty);
        }
      }
    }
  }

  // --- raw access observation (baseline / oracle) ----------------------------
  if (dispatch & kDispatchObserve) [[unlikely]] {
    hooks_->on_access(t, obj, is_write);
  }

  // --- stack-sampling timer ---------------------------------------------------
  if (dispatch & kDispatchStack) {
    if (ts.clock.now() >= ts.next_stack_sample) [[unlikely]] {
      ts.next_stack_sample = ts.clock.now() + stack_gap_;
      ++stats_.stack_samples;
      if (hooks_) hooks_->on_stack_sample(t);
    }
  }
}

void Gos::object_fault(ThreadState& ts, NodeState& ns, ObjectId obj) {
  ts.clock.advance(costs_.access_fault_fixed);
  const ObjectMeta& m = heap_.meta(obj);
  const SimTime dt = net_.round_trip(ts.node, m.home, MsgCategory::kObjectData,
                                     kRequestBytes, m.size_bytes + kRequestBytes);
  ts.clock.advance(dt);
  const auto oi = static_cast<std::size_t>(obj);
  ns.state[oi] = static_cast<std::uint8_t>(CopyState::kValid);
  ns.fetch_epoch[oi] = global_epoch_;
  // Counted for the snapshot summary.
  plan_.note_copy_registered(ts.node, obj);
  ++stats_.object_faults;
  stats_.fault_bytes += m.size_bytes;
}

void Gos::log_access(ThreadState& ts, ObjectId obj, const CopySample& s) {
  ts.clock.advance(kLogServiceCost);
  // Bytes and gap come from the logging node's own answer, so the HT weight
  // matches the selection probability this node sampled under.
  ts.oal.push_back(OalEntry{obj, heap_.meta(obj).klass, s.bytes, s.gap});
  ++stats_.oal_entries;
  ++node_stats_[ts.node].oal_entries;
}

void Gos::refresh_footprint_state(ThreadState& ts) {
  const SimTime now = ts.clock.now();
  ts.fp_tick = static_cast<std::uint32_t>(now / fp_rearm_) + 1;
  ts.fp_on_phase = fp_mode_ == FootprintTimerMode::kNonstop ||
                   ((now / fp_phase_) & 1) == 0;
  const SimTime next_tick = static_cast<SimTime>(ts.fp_tick) * fp_rearm_;
  const SimTime next_phase = (now / fp_phase_ + 1) * fp_phase_;
  ts.fp_next_boundary = std::min(next_tick, next_phase);
}

void Gos::footprint_touch(ThreadState& ts, ObjectBook& bk, ObjectId obj) {
  bk.fp_stamp = ts.fp_tick;
  ts.clock.advance(kFootprintServiceCost);
  if (bk.fp_count == 0) ts.fp_objects.push_back(obj);
  ++bk.fp_count;
  ++stats_.footprint_touches;
  ++node_stats_[ts.node].footprint_touches;
}

Gos::ObjectBook* Gos::add_book_page(ThreadState& ts, std::size_t oi) {
  const std::size_t page = oi >> kBookPageShift;
  if (page >= ts.book.size()) ts.book.resize(page + 1);
  // Value-initialized: every record reads as never stamped, exactly like the
  // zero-filled tail a dense table would have grown.
  ts.book[page] = std::make_unique<ObjectBook[]>(kBookPageObjects);
  return find_book(ts, oi);
}

std::size_t Gos::book_memory_bytes() const noexcept {
  std::size_t pages = 0;
  for (const ThreadState& ts : threads_) {
    for (const BookPage& p : ts.book) pages += p != nullptr;
  }
  return pages * kBookPageBytes;
}

std::vector<FootprintTouch> Gos::footprint_touches(ThreadId t) const {
  const ThreadState& ts = threads_[t];
  std::vector<FootprintTouch> out;
  out.reserve(ts.fp_objects.size());
  for (ObjectId obj : ts.fp_objects) {
    // Every footprinted object was touched, so its page is present.
    out.push_back(
        FootprintTouch{obj, find_book(ts, static_cast<std::size_t>(obj))->fp_count});
  }
  return out;
}

void Gos::flush_dirty(ThreadId t) {
  ThreadState& ts = threads_[t];
  if (ts.dirty.empty()) {
    ++ts.release_stamp;
    return;
  }
  ++global_epoch_;
  NodeState& ns = nodes_[ts.node];
  grow_node(ns);
  grow_to(last_write_epoch_, heap_.object_count(), 0u);
  for (ObjectId obj : ts.dirty) {
    const ObjectMeta& m = heap_.meta(obj);
    const auto oi = static_cast<std::size_t>(obj);
    last_write_epoch_[oi] = global_epoch_;
    if (m.home != ts.node) {
      // Diff propagation to home (simplified: whole-object diff payload).
      const SimTime dt = net_.send(
          {ts.node, m.home, MsgCategory::kObjectData, m.size_bytes / 2 + kRequestBytes, false});
      ts.clock.advance(dt);
      ++stats_.diffs_sent;
      stats_.diff_bytes += m.size_bytes / 2;
      // Our copy holds the latest content.
      ns.state[oi] = static_cast<std::uint8_t>(CopyState::kValid);
      ns.fetch_epoch[oi] = global_epoch_;
    }
  }
  ts.dirty.clear();
  ++ts.release_stamp;
}

void Gos::close_interval(ThreadId t, NodeId sync_dest) {
  ThreadState& ts = threads_[t];
  if (hooks_) hooks_->on_interval_close(t);
  for (ObjectId obj : ts.fp_objects) {
    find_book(ts, static_cast<std::size_t>(obj))->fp_count = 0;
  }
  ts.fp_objects.clear();
  if (tracking_ != OalTransfer::kDisabled && !ts.oal.empty()) {
    if (tracking_ == OalTransfer::kSend) {
      // The OAL rides the sync message when that goes to the coordinator.
      const bool piggy = sync_dest == coordinator_;
      const std::uint64_t wire =
          kIntervalHeaderWireBytes + ts.oal.size() * kOalEntryWireBytes;
      const SimTime dt =
          net_.send({ts.node, coordinator_, MsgCategory::kOal, wire, piggy});
      ts.clock.advance(dt);
      ++stats_.oal_messages;
      stats_.oal_send_ns += dt;
    }
    // Lock-free hand-off: the OAL goes straight into this thread's lane
    // arena (lane index == thread id).
    ingest_.append(t, t, ts.interval_id, ts.node, ts.interval_start_pc,
                   ts.phase_pc, ts.oal);
  }
  ts.oal.clear();
  ts.interval_start_pc = ts.phase_pc;
  ++ts.interval_stamp;  // re-arms at-most-once tracking (false-invalid reset)
  ++ts.interval_id;
  ++stats_.intervals_closed;
}

void Gos::acquire(ThreadId t, LockId lock) {
  ThreadState& ts = threads_[t];
  LockState& ls = locks_.state(lock);
  close_interval(t, ls.home);
  const SimTime dt =
      net_.round_trip(ts.node, ls.home, MsgCategory::kControl, kRequestBytes, kRequestBytes);
  ts.clock.advance(dt);
  // Serialize behind the previous holder.
  ts.clock.align_to(ls.last_release);
  ++ls.acquisitions;
  // Acquire semantics: this thread (and its node's cache) now sees all
  // released writes.
  ts.view_epoch = global_epoch_;
  nodes_[ts.node].view_epoch = global_epoch_;
  ++stats_.lock_acquires;
}

void Gos::release(ThreadId t, LockId lock) {
  ThreadState& ts = threads_[t];
  LockState& ls = locks_.state(lock);
  flush_dirty(t);
  close_interval(t, ls.home);
  const SimTime dt =
      net_.send({ts.node, ls.home, MsgCategory::kControl, kRequestBytes, false});
  ts.clock.advance(dt);
  ls.last_release = std::max(ls.last_release, ts.clock.now());
}

void Gos::barrier_all() {
  std::vector<ThreadId> all(threads_.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<ThreadId>(i);
  barrier(all);
}

void Gos::barrier(std::span<const ThreadId> group) {
  // Release phase: every thread flushes its writes and reports arrival to the
  // master (node 0); OALs piggyback on the arrival message when the
  // coordinator lives there.
  const NodeId master = 0;
  SimTime latest = 0;
  for (ThreadId t : group) {
    ThreadState& ts = threads_[t];
    flush_dirty(t);
    close_interval(t, master);
    const SimTime dt =
        net_.send({ts.node, master, MsgCategory::kControl, kRequestBytes, false});
    ts.clock.advance(dt);
    latest = std::max(latest, ts.clock.now());
  }
  // Master broadcasts the go signal; everyone leaves at the same instant
  // (the slowest broadcast leg defines the release time, keeping the BSP
  // execution deterministic).
  SimTime slowest_leg = 0;
  for (ThreadId t : group) {
    ThreadState& ts = threads_[t];
    const SimTime dt =
        net_.send({master, ts.node, MsgCategory::kControl, kRequestBytes, false});
    slowest_leg = std::max(slowest_leg, dt);
  }
  for (ThreadId t : group) {
    ThreadState& ts = threads_[t];
    ts.clock.align_to(latest + slowest_leg);
    ts.view_epoch = global_epoch_;
    nodes_[ts.node].view_epoch = global_epoch_;
  }
  ++stats_.barriers;
}

void Gos::move_thread(ThreadId t, NodeId to) {
  assert(to < nodes_.size());
  ThreadState& ts = threads_[t];
  ts.node = to;
  // The migrant carries its happens-before knowledge: merge it into the
  // destination's view so copies staler than the writes this thread has
  // synchronized with are (lazily) invalidated.  Without this, migrating to
  // a node that sat out recent barriers would read stale data.
  NodeState& dst = nodes_[to];
  dst.view_epoch = std::max(dst.view_epoch, ts.view_epoch);
}

void Gos::prefetch(ThreadId t, std::span<const ObjectId> objs, MsgCategory category) {
  if (objs.empty()) return;
  ThreadState& ts = threads_[t];
  NodeState& ns = nodes_[ts.node];
  grow_node(ns);
  std::uint64_t bytes = 0;
  for (ObjectId obj : objs) {
    const auto oi = static_cast<std::size_t>(obj);
    if (node_has_copy(ts.node, obj)) continue;
    const ObjectMeta& m = heap_.meta(obj);
    bytes += m.size_bytes;
    ns.state[oi] = static_cast<std::uint8_t>(CopyState::kValid);
    ns.fetch_epoch[oi] = global_epoch_;
    plan_.note_copy_registered(ts.node, obj);
    ++stats_.prefetched_objects;
  }
  if (bytes == 0) return;
  stats_.prefetched_bytes += bytes;
  // One aggregated request/reply pair (the point of prefetching: one round
  // trip instead of many).
  const SimTime dt = net_.round_trip(
      ts.node, heap_.meta(objs.front()).home, category,
      kRequestBytes + 8 * objs.size(), bytes + kRequestBytes);
  ts.clock.advance(dt);
}

std::size_t Gos::migrate_homes(std::span<const ObjectId> objs, NodeId to) {
  if (objs.empty()) return 0;
  NodeState& dst = nodes_[to];
  grow_node(dst);
  // Payload is accumulated per source node so each source ships one
  // aggregated message (the batched analog of prefetch).
  std::vector<std::uint64_t> bytes_from(nodes_.size(), 0);
  std::size_t moved = 0;
  for (ObjectId obj : objs) {
    const ObjectMeta& m = heap_.meta(obj);
    if (m.home == to) continue;  // also skips duplicates already moved
    const NodeId from = m.home;
    NodeState& src = nodes_[from];
    grow_node(src);
    const auto oi = static_cast<std::size_t>(obj);
    bytes_from[from] += m.size_bytes;
    dst.state[oi] = static_cast<std::uint8_t>(CopyState::kHome);
    dst.fetch_epoch[oi] = global_epoch_;
    src.state[oi] = static_cast<std::uint8_t>(CopyState::kValid);
    src.fetch_epoch[oi] = global_epoch_;
    heap_.set_home(obj, to);
    // Bill the new home's re-key visit and re-register the old home's
    // retained payload as an ordinary cached copy.
    plan_.on_home_migrated(obj, from, to);
    ++stats_.home_migrations;
    ++moved;
  }
  for (std::size_t from = 0; from < bytes_from.size(); ++from) {
    if (bytes_from[from] == 0) continue;
    net_.send({static_cast<NodeId>(from), to, MsgCategory::kObjectData,
               bytes_from[from] + kRequestBytes, false});
  }
  return moved;
}

void Gos::enable_stack_sampling(SimTime gap) {
  stack_sampling_ = true;
  stack_gap_ = std::max<SimTime>(1, gap);
  for (ThreadState& ts : threads_) {
    ts.next_stack_sample = ts.clock.now() + stack_gap_;
  }
  refresh_dispatch();
}

void Gos::disable_stack_sampling() {
  stack_sampling_ = false;
  refresh_dispatch();
}

void Gos::enable_footprinting(FootprintTimerMode mode, SimTime phase, SimTime rearm) {
  footprinting_ = true;
  fp_mode_ = mode;
  fp_phase_ = std::max<SimTime>(1, phase);
  fp_rearm_ = std::max<SimTime>(1, rearm);
  for (ThreadState& ts : threads_) {
    ts.fp_next_boundary = 0;  // force a refresh on the next access
  }
  refresh_dispatch();
}

void Gos::disable_footprinting() {
  footprinting_ = false;
  refresh_dispatch();
}

}  // namespace djvm
