// Global Object Space: the home-based lazy-release-consistency (HLRC) object
// sharing layer of the distributed JVM (paper Section II.A, Fig. 2).
//
// Every shared object has a *home node* (its creator).  Other nodes hold
// cache copies, fetched on access fault and lazily invalidated: a copy
// becomes stale only when (a) some thread released a newer version and
// (b) the caching node has synchronized (acquire/barrier) past that release.
// Writes are flushed home as diffs at release time.
//
// The profiling subsystems hang off this class:
//  * correlation tracking — the false-invalid overlay forces the first access
//    to each sampled object per interval through the service routine, which
//    appends an OAL entry (at-most-once logging); interval close hands the
//    OAL to the Gos-owned ingest hub (profiling/ingest.hpp);
//  * sticky-set footprinting — a timer re-arms tracking on sampled objects
//    every `footprint_rearm`, recording repeated in-interval touches;
//  * stack sampling — a per-thread simulated-time timer fires the sampler.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/config.hpp"
#include "common/sim_clock.hpp"
#include "common/types.hpp"
#include "dsm/locks.hpp"
#include "dsm/protocol_stats.hpp"
#include "net/network.hpp"
#include "profiling/ingest.hpp"
#include "profiling/oal.hpp"
#include "profiling/sampling.hpp"
#include "runtime/heap.hpp"

namespace djvm {

/// Simulated cost of the GOS service routine handling a correlation-fault
/// (log + cancel false-invalid), with no network involved.  Public so the
/// governor's pump hook can convert `ProtocolStats::oal_entries` deltas
/// back into the CPU time the GOS charged for them.
inline constexpr SimTime kLogServiceCost = 120;
/// Simulated cost of a footprinting re-arm touch (service entry only).
inline constexpr SimTime kFootprintServiceCost = 80;

/// Repeated-tracking observation for one object within one interval: how
/// many distinct re-arm ticks (ticks advance every Config::footprint_rearm
/// of simulated time) the thread touched it at.  Objects touched at >= 2
/// ticks are sticky candidates (Fig. 4).
struct FootprintTouch {
  ObjectId obj = kInvalidObject;
  std::uint32_t ticks = 0;
};

/// The Global Object Space.  Implements CopySetView so the sampling plan's
/// resampling walks cover exactly the copies each node caches (the paper's
/// locally-paid resampling cost) instead of the objects it homes.
class Gos : public CopySetView {
 public:
  /// Observer interface for the subsystems layered on the GOS.  Callbacks
  /// fire outside the hot path (timer crossings, interval boundaries) except
  /// `on_access`, which fires per access only when observation is enabled.
  class Hooks {
   public:
    virtual ~Hooks() = default;
    /// Stack-sampling timer crossed for `thread`.
    virtual void on_stack_sample(ThreadId thread) { (void)thread; }
    /// `thread` is about to close its current interval (footprint touches
    /// for the interval are still readable at this point).
    virtual void on_interval_close(ThreadId thread) { (void)thread; }
    /// Raw access trace (enabled via set_observe_accesses; used by the
    /// page-based baseline and by oracle recorders in benches).
    virtual void on_access(ThreadId thread, ObjectId obj, bool write) {
      (void)thread;
      (void)obj;
      (void)write;
    }
  };

  Gos(Heap& heap, Network& net, SamplingPlan& plan, const Config& cfg);
  ~Gos() override;

  // --- threads --------------------------------------------------------------
  ThreadId spawn_thread(NodeId node);
  [[nodiscard]] std::uint32_t thread_count() const noexcept {
    return static_cast<std::uint32_t>(threads_.size());
  }
  [[nodiscard]] NodeId thread_node(ThreadId t) const { return threads_[t].node; }
  [[nodiscard]] SimClock& clock(ThreadId t) { return threads_[t].clock; }
  [[nodiscard]] IntervalId interval_of(ThreadId t) const { return threads_[t].interval_id; }
  /// Labels the running phase (the paper's interval context start/end PC).
  void set_phase(ThreadId t, std::uint32_t pc) { threads_[t].phase_pc = pc; }

  // --- allocation (via GOS so new classes inherit the default rate) ----------
  ObjectId alloc(ClassId klass, NodeId home);
  ObjectId alloc_array(ClassId klass, NodeId home, std::uint32_t length);
  ObjectId alloc_for_thread(ThreadId t, ClassId klass);
  ObjectId alloc_array_for_thread(ThreadId t, ClassId klass, std::uint32_t length);

  // --- the access hot path ---------------------------------------------------
  void read(ThreadId t, ObjectId obj) { access(t, obj, false); }
  void write(ThreadId t, ObjectId obj) { access(t, obj, true); }

  // --- synchronisation -------------------------------------------------------
  void acquire(ThreadId t, LockId lock);
  void release(ThreadId t, LockId lock);
  /// Barrier across every spawned thread.
  void barrier_all();
  /// Barrier across a subset (all threads of a workload phase).
  void barrier(std::span<const ThreadId> group);

  // --- migration & locality mechanisms ---------------------------------------
  /// Reassigns the thread's node.  Its current interval continues (the
  /// at-most-once log survives migration, as in Fig. 4's analysis).
  void move_thread(ThreadId t, NodeId to);
  /// Bulk-fetches `objs` into `t`'s node cache (one aggregated message).
  void prefetch(ThreadId t, std::span<const ObjectId> objs,
                MsgCategory category = MsgCategory::kObjectData);
  /// Home migration: moves every object in `objs` not already homed at
  /// `to`, shipping one aggregated payload per source node instead of a
  /// message per object (the follow-the-thread path of the execution stage).
  /// The new home holds the object, the old home keeps a valid cached copy,
  /// and each object's sampling re-key visit is billed through
  /// SamplingPlan::on_home_migrated.  Returns the number of homes moved.
  std::size_t migrate_homes(std::span<const ObjectId> objs, NodeId to);

  // --- profiling configuration ------------------------------------------------
  // Each setter refreshes the per-thread dispatch mask, so the access hot
  // path tests one precomputed word instead of cascading over the tracking /
  // footprinting / observe / stack-sampling flags on every access.
  void set_tracking(OalTransfer mode) {
    tracking_ = mode;
    refresh_dispatch();
  }
  [[nodiscard]] OalTransfer tracking() const noexcept { return tracking_; }
  void set_coordinator(NodeId n) { coordinator_ = n; }
  [[nodiscard]] NodeId coordinator() const noexcept { return coordinator_; }
  void set_hooks(Hooks* hooks) {
    hooks_ = hooks;
    refresh_dispatch();
  }
  void enable_stack_sampling(SimTime gap);
  void disable_stack_sampling();
  void enable_footprinting(FootprintTimerMode mode, SimTime phase, SimTime rearm);
  void disable_footprinting();
  void set_observe_accesses(bool on) {
    observe_ = on;
    refresh_dispatch();
  }

  // --- profiling outputs -------------------------------------------------------
  /// The OAL ingest hub, built from Config::ingest: one lane per spawned
  /// thread (lane index == thread id, grown on every spawn).  Each interval
  /// close appends the thread's OAL straight into its lane's open arena;
  /// wire accounting (kSend shipping, piggybacking) is billed separately at
  /// the close.  The correlation daemon is the usual consumer; offline tools
  /// read the raw OAL stream by draining the hub themselves.
  [[nodiscard]] IngestHub& ingest() noexcept { return ingest_; }
  /// Per-object distinct-tick counts for `t`'s current interval (built on
  /// demand from the internal counters).
  [[nodiscard]] std::vector<FootprintTouch> footprint_touches(ThreadId t) const;

  /// Objects per page of a thread's ObjectBook (see ThreadState::book): 256
  /// 16-byte records, one 4 KB memory page.
  static constexpr unsigned kBookPageShift = 8;
  static constexpr std::size_t kBookPageObjects = std::size_t{1} << kBookPageShift;
  static constexpr std::size_t kBookPageBytes = kBookPageObjects * 16;
  /// Bytes of ObjectBook pages held by every thread together (the page
  /// directories, one pointer per page slot, are not counted).
  [[nodiscard]] std::size_t book_memory_bytes() const noexcept;

  [[nodiscard]] const ProtocolStats& stats() const noexcept { return stats_; }
  /// Profiling activity attributed to one worker node (the node a thread ran
  /// on when it paid the cost; threads that migrate charge their new node).
  [[nodiscard]] const NodeProfilingStats& node_stats(NodeId node) const {
    return node_stats_[node];
  }
  void reset_stats() {
    stats_.reset();
    for (NodeProfilingStats& ns : node_stats_) ns.reset();
  }

  [[nodiscard]] Heap& heap() noexcept { return heap_; }
  [[nodiscard]] Network& net() noexcept { return net_; }
  [[nodiscard]] SamplingPlan& plan() noexcept { return plan_; }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

  // --- CopySetView (the sampling plan's window into the copy sets) -----------
  /// True when `node` holds a valid (or home) copy of `obj` right now.
  [[nodiscard]] bool node_has_copy(NodeId node, ObjectId obj) const override;
  [[nodiscard]] std::uint32_t copy_node_count() const override {
    return static_cast<std::uint32_t>(nodes_.size());
  }

 private:
  struct NodeState {
    std::vector<std::uint8_t> state;        ///< CopyState per object
    std::vector<std::uint32_t> fetch_epoch; ///< release epoch of cached copy
    std::uint32_t view_epoch = 0;           ///< last sync'ed global epoch
  };

  /// Per-(thread, object) profiling bookkeeping, merged into one record so a
  /// single cache line serves every per-access stamp check (OAL at-most-once,
  /// dirty tracking, footprint re-arm).  All-zero means never stamped:
  /// interval and release stamps and footprint ticks all start at 1.
  struct ObjectBook {
    std::uint32_t oal_stamp = 0;   ///< interval epoch of the last OAL log
    std::uint32_t dirty_stamp = 0; ///< release epoch of the last dirty mark
    std::uint32_t fp_stamp = 0;    ///< last footprint re-arm tick tag
    std::uint32_t fp_count = 0;    ///< distinct footprint ticks this interval
  };
  static_assert(sizeof(ObjectBook) * kBookPageObjects == kBookPageBytes);
  using BookPage = std::unique_ptr<ObjectBook[]>;

  /// Per-thread dispatch mask bits: which per-access profiling branches are
  /// live.  Precomputed on every configuration change so the hot path reads
  /// one word off the ThreadState instead of the flag cascade.
  enum : std::uint32_t {
    kDispatchTracking = 1u << 0,
    kDispatchFootprint = 1u << 1,
    kDispatchObserve = 1u << 2,
    kDispatchStack = 1u << 3,
  };

  struct ThreadState {
    NodeId node = 0;
    SimClock clock;
    /// Latest global release epoch this thread has synchronized past; when
    /// the thread migrates, this is merged into the destination node's view
    /// so the migrant cannot read copies staler than its happens-before
    /// knowledge (a node left idle across barriers keeps an old view).
    std::uint32_t view_epoch = 0;
    IntervalId interval_id = 0;
    std::uint32_t interval_stamp = 1;  ///< at-most-once epoch for OAL logging
    std::uint32_t dispatch = 0;        ///< precomputed per-access branch mask
    std::uint32_t phase_pc = 0;
    std::uint32_t interval_start_pc = 0;
    std::vector<OalEntry> oal;
    /// ObjectBook pages indexed by `obj >> kBookPageShift`.  A page is null
    /// until the thread's first bookkept access to one of its objects, so
    /// the book grows with what the thread touches, not with the heap.
    std::vector<BookPage> book;
    std::vector<ObjectId> dirty;            ///< written since last release
    std::uint32_t release_stamp = 1;
    // footprinting
    std::vector<ObjectId> fp_objects;       ///< objects touched this interval
    std::uint32_t fp_tick = 0;              ///< cached current re-arm tick
    bool fp_on_phase = true;                ///< cached on/off phase flag
    SimTime fp_next_boundary = 0;           ///< when tick/phase must be recomputed
    // stack sampling
    SimTime next_stack_sample = 0;
  };

  void access(ThreadId t, ObjectId obj, bool is_write);
  /// `ts`'s record for object index `oi`, or nullptr while its page is absent.
  static ObjectBook* find_book(const ThreadState& ts, std::size_t oi) noexcept {
    const std::size_t page = oi >> kBookPageShift;
    return page < ts.book.size() && ts.book[page]
               ? &ts.book[page][oi & (kBookPageObjects - 1)]
               : nullptr;
  }
  /// Allocates the zero-filled page holding `oi` and returns its record.
  static ObjectBook* add_book_page(ThreadState& ts, std::size_t oi);
  void object_fault(ThreadState& ts, NodeState& ns, ObjectId obj);
  void log_access(ThreadState& ts, ObjectId obj, const CopySample& s);
  void footprint_touch(ThreadState& ts, ObjectBook& bk, ObjectId obj);
  void refresh_footprint_state(ThreadState& ts);
  void refresh_dispatch();
  void flush_dirty(ThreadId t);
  void close_interval(ThreadId t, NodeId sync_dest);
  void grow_node(NodeState& ns) const;
  template <typename T>
  static void grow_to(std::vector<T>& v, std::size_t n, T fill) {
    if (v.size() < n) v.resize(n, fill);
  }

  Heap& heap_;
  Network& net_;
  SamplingPlan& plan_;
  Config cfg_;
  SimCosts costs_;

  std::vector<NodeState> nodes_;
  std::vector<ThreadState> threads_;
  LockTable locks_;
  std::uint32_t global_epoch_ = 1;
  std::vector<std::uint32_t> last_write_epoch_;

  OalTransfer tracking_ = OalTransfer::kDisabled;
  NodeId coordinator_ = 0;
  Hooks* hooks_ = nullptr;
  bool observe_ = false;
  /// Mask inherited by freshly spawned threads (refresh_dispatch keeps the
  /// live threads' copies in sync).
  std::uint32_t dispatch_ = 0;

  // stack sampling timer
  bool stack_sampling_ = false;
  SimTime stack_gap_ = 0;

  // footprinting timer
  bool footprinting_ = false;
  FootprintTimerMode fp_mode_ = FootprintTimerMode::kNonstop;
  SimTime fp_phase_ = 1;
  SimTime fp_rearm_ = 1;

  ProtocolStats stats_;
  std::vector<NodeProfilingStats> node_stats_;  ///< indexed by NodeId
  IngestHub ingest_;
};

}  // namespace djvm
