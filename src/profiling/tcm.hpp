// Thread correlation map (TCM) construction (paper Section II.A).
//
// The coordinator reorganizes per-thread OALs into per-object reader lists
// and then accrues, for every pair of threads that touched an object in the
// profiled window, the object's byte contribution.  With sampling, each
// logged entry carries its class gap at logging time; multiplying by the gap
// (Horvitz-Thompson weighting) makes the sampled TCM an unbiased estimate of
// the full-sampling map, so the paper's error metrics compare like with like.
//
// Every pipeline reads OAL log arenas (profiling/oal.hpp), and all share the
// same semantics:
//
//  * `TcmBuilder::build_reference` — the textbook O(MN^2)-style pipeline the
//    seed shipped: a hash map from object id to a per-object `vector<pair>`
//    of readers (one rehash + one linear reader scan per entry), then a
//    dense accrual into a fresh SquareMatrix.  Kept as the oracle for
//    equivalence tests and as the "dense from scratch" side of
//    `bench_tcm_scale`.
//  * the incremental sparse pipeline — `reorganize_arena` bucket-sorts a
//    batch's entries into one contiguous CSR arena (no per-object vectors,
//    no hashing while object ids stay compact), and `TcmAccumulator` folds
//    such batches into a persistent sparse state: per-object reader lists
//    threaded through one pool, pair weights in a flat upper-triangular
//    accumulator.  Work per fold is O(sum over objects of readers^2) for
//    *new* information only — re-logged entries that do not raise a reader's
//    byte value cost a short list walk and no pair updates — and the dense
//    N x N matrix is materialized only on demand (`dense()`).
//  * the distributed CSR reducer (profiling/distributed_tcm.hpp), built on
//    the same reorganize and merge machinery.
//
// Tests assert the pipelines agree within 1e-9 (bit-exact in practice, since
// byte weights are integer-valued doubles).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/matrix.hpp"
#include "common/types.hpp"
#include "profiling/oal.hpp"

namespace djvm {

/// Reference to one interval slice inside an ingest log arena — the unit the
/// distributed reducer buckets per node (a drained arena mixes slices from
/// many threads, and with thread migration potentially many nodes).
struct ArenaSliceRef {
  const OalArena* log = nullptr;
  std::uint32_t slice = 0;  ///< index into OalArena::intervals
};

/// One batch of OAL entries reorganized into a flat CSR arena: object k's
/// deduplicated readers live in `readers[offsets[k] .. offsets[k+1])`.  One
/// contiguous buffer instead of a `vector<pair>` per object, built by bucket
/// sort (direct-indexed while object ids stay compact, spilling to a hash
/// map otherwise) with stamp-based per-thread dedup inside each segment.
struct ReaderArena {
  std::vector<ObjectId> objects;                     ///< unique objects, first-appearance order
  std::vector<ClassId> klass;                        ///< class of each object (parallel to objects)
  std::vector<std::uint32_t> offsets;                ///< size objects.size() + 1
  std::vector<std::pair<ThreadId, double>> readers;  ///< CSR payload, max-combined per thread

  [[nodiscard]] std::size_t object_count() const noexcept { return objects.size(); }
  [[nodiscard]] std::span<const std::pair<ThreadId, double>> readers_of(
      std::size_t k) const noexcept {
    return {readers.data() + offsets[k], offsets[k + 1] - offsets[k]};
  }
};

/// Object id -> dense slot assignment shared by the arena reorganize and the
/// accumulator: direct-indexed while ids stay compact (heap ids are
/// allocated densely, the common case for every producer in the tree), with
/// a hash-map spill past the cap so one stray sparse id cannot size an
/// allocation.
class ObjectSlotMap {
 public:
  /// Slot of `obj`, assigning the next dense slot on first sight (`fresh`
  /// reports which).
  std::int32_t get_or_assign(ObjectId obj, bool& fresh);
  /// True when `obj` already holds a slot.
  [[nodiscard]] bool contains(ObjectId obj) const;
  [[nodiscard]] std::int32_t count() const noexcept { return count_; }
  /// Forgets the listed objects' slots in O(listed) (callers track their
  /// touched set; the direct table keeps its allocation).
  void release(std::span<const ObjectId> touched);

 private:
  std::vector<std::int32_t> table_;  ///< ObjectId -> slot (-1 = unassigned)
  std::unordered_map<ObjectId, std::int32_t> spill_;  ///< ids past the cap
  std::int32_t count_ = 0;
};

/// Reusable scratch for `reorganize_arena`: the slot map, bucket counters,
/// flattened-entry buffers, and per-thread dedup stamps are released — not
/// freed — between calls, so steady-state folding (one drained arena per
/// fold) stops re-allocating and re-zeroing the O(max object id) direct
/// table on every delivery.
struct ArenaScratch {
  ObjectSlotMap slots;
  std::vector<std::uint32_t> counts;    ///< per-slot bucket sizes
  std::vector<std::uint32_t> flat_slot; ///< flattened entries: object slot...
  std::vector<std::pair<ThreadId, double>> flat_reader;  ///< ...and payload
  std::vector<std::uint32_t> cursor;    ///< scatter cursors
  std::vector<std::uint64_t> stamp;     ///< per-thread dedup stamps
  std::vector<std::uint32_t> pos;       ///< per-thread write-back positions
  std::uint64_t epoch = 0;  ///< stamp epoch, persists across calls (never reset)
};

/// Builds TCMs out of OAL log arenas.
class TcmBuilder {
 public:
  /// Step 1: reorganize the arenas' interval slices into the flat CSR arena
  /// (bucket sort, no per-object allocations).  Each slice provides the
  /// logging thread for its entry range.
  [[nodiscard]] static ReaderArena reorganize_arena(
      std::span<const OalArena> logs, bool weighted, ArenaScratch& scratch);

  /// Reorganize over individual arena slices (the distributed reducer's
  /// per-node buckets of drained arenas).
  [[nodiscard]] static ReaderArena reorganize_arena(
      std::span<const ArenaSliceRef> slices, bool weighted,
      ArenaScratch& scratch);

  /// Merges two CSR arenas into one (reader lists union per object,
  /// max-combining per thread) through the same bucket-sort machinery — the
  /// reduction-tree step of the distributed reducer, with no per-object
  /// hashing (the slot map is direct-indexed like every other pass).  Byte
  /// values are already weighted; they pass through untouched.
  [[nodiscard]] static ReaderArena merge_arenas(const ReaderArena& a,
                                                const ReaderArena& b,
                                                ArenaScratch& scratch);

  /// Step 2 (sparse): accrue an arena into an upper-triangular accumulator.
  /// Cell (i, j) accumulates min(bytes_i, bytes_j) per object shared by
  /// threads i and j.
  [[nodiscard]] static UpperTriangle accrue_sparse(const ReaderArena& arena,
                                                   std::uint32_t threads);

  /// The seed's textbook pipeline (hash-map reorganize + dense accrual),
  /// kept as the equivalence oracle and bench baseline.
  [[nodiscard]] static SquareMatrix build_reference(
      std::span<const OalArena> logs, std::uint32_t threads,
      bool weighted = true);
};

/// Per-class decomposition of an accumulator's pair mass against a thread
/// placement — the sparse answer to "which classes produced these cells".
/// Every pair cell the accumulator holds came from one object, and every
/// object belongs to one class, so the walk over the per-object reader lists
/// splits each cell's mass by the owning class without densifying a per-class
/// matrix (classes x N^2 would defeat the sparse pipeline).  All vectors are
/// ClassId-indexed and may be shorter than the registry when trailing classes
/// contributed nothing.
struct TcmClassAttribution {
  /// Pair mass crossing node boundaries under the given placement — the
  /// class's contribution to the co-location partition cut.
  std::vector<double> cut_bytes;
  /// Pair mass kept node-local (the class's already-satisfied share).
  std::vector<double> local_bytes;
  /// Per-(class, thread) pair mass, for attributing thread-level balancer
  /// decisions (migration suggestions) back to the classes that drove them.
  std::vector<std::vector<double>> thread_mass;
  /// HT-weighted bytes of entries whose object is homed away from the node
  /// that logged them (thread-home-affinity mass).  Filled by callers that
  /// know homes (the daemon); the accumulator itself never sees the heap.
  std::vector<double> home_mass;

  [[nodiscard]] bool empty() const noexcept {
    // home_mass counts: an epoch of purely single-reader remote-home traffic
    // (no co-access pairs at all) still carries influence evidence.
    return cut_bytes.empty() && local_bytes.empty() && home_mass.empty();
  }
  /// Total pair mass seen (cut + local over every class).
  [[nodiscard]] double total_pair_bytes() const noexcept {
    double t = 0.0;
    for (double v : cut_bytes) t += v;
    for (double v : local_bytes) t += v;
    return t;
  }
  /// Pair mass of one class (0 for classes past the vectors).
  [[nodiscard]] double class_pair_bytes(ClassId id) const noexcept {
    const auto i = static_cast<std::size_t>(id);
    return (i < cut_bytes.size() ? cut_bytes[i] : 0.0) +
           (i < local_bytes.size() ? local_bytes[i] : 0.0);
  }
};

/// Result of one `TcmAccumulator::compact` retention pass.
struct TcmCompactStats {
  std::size_t dropped_objects = 0;  ///< stale objects fully evicted
  std::size_t decayed_objects = 0;  ///< stale objects down-weighted, kept
  std::size_t freed_readers = 0;    ///< pool nodes returned to the free list
};

/// Persistent incremental sparse TCM accumulator: fold arena batches in as
/// deltas (`add`), merge partials (`merge`), and densify on demand.  The
/// invariant maintained per object o and thread pair {i, j} is
/// pair(i, j) == min(bytes_i(o), bytes_j(o)) summed over objects, so folding
/// batches one at a time, in any split, yields exactly the map a from-scratch
/// build over the concatenated batches produces.
///
/// Long-haul retention: a whole-run accumulator grows with every object the
/// workload ever touches, which is unbounded on a server that runs for
/// weeks.  The retention pass (`advance_epoch` + `compact`) bounds it: an
/// object untouched for `idle_epochs` retention epochs either decays (every
/// reader byte value scaled by `decay`, the pair mass it contributed scaled
/// to match — the invariant above is preserved exactly, just over decayed
/// byte values) or, when `decay` is 0 or the decayed mass has shrunk below
/// one byte, is dropped outright (its exact pair contribution subtracted,
/// its reader nodes returned to a free list, its slot compacted away).
/// Because every drop/decay is recomputed from the object's own reader list,
/// live objects are never perturbed: the map restricted to touched objects
/// stays bit-for-bit the map a from-scratch build over their entries yields.
class TcmAccumulator {
 public:
  explicit TcmAccumulator(std::uint32_t threads, bool weighted = true);

  /// Folds one batch of log arenas in as a delta.  The batch is
  /// CSR-reorganized first (one reorganize per call, across every arena in
  /// the span), so in-batch duplicates cost one stamp check, not a
  /// reader-list walk.  Folding a stream in any split of batches yields the
  /// same map.
  void add(std::span<const OalArena> logs);

  /// Folds one object's (thread, already-weighted bytes) reader list in.
  /// `klass` tags the object for per-class cell attribution; kInvalidClass
  /// (partials built outside the arena path) leaves it untagged, and those
  /// objects are skipped by attribute_cells.  Callers must bound `klass`
  /// against their class registry: attribute_cells sizes its class-indexed
  /// vectors by the largest tag seen (the daemon sanitizes arena entries
  /// before folding for exactly this reason).
  void add_readers(ObjectId obj,
                   std::span<const std::pair<ThreadId, double>> readers,
                   ClassId klass = kInvalidClass);

  /// Splits the accumulated pair mass by owning class against
  /// `node_of_thread` (the balancer's current co-location partition): for
  /// every object, each reader-pair cell min(bytes_i, bytes_j) lands in the
  /// object's class as cut mass (readers on different nodes) or local mass.
  /// Threads beyond `node_of_thread` count as local (no placement claim).
  /// Sparse: walks the reader lists, never densifies.  home_mass is left
  /// empty for the caller to fill.
  [[nodiscard]] TcmClassAttribution attribute_cells(
      std::span<const NodeId> node_of_thread) const;

  /// Merges another accumulator over the same thread count (the reduction
  /// monoid: per-object reader lists union with max-combining; pair weights
  /// are replayed so cross-partial pairs appear).
  void merge(const TcmAccumulator& other);

  /// Drops all accumulated state (keeps allocations for reuse).
  void reset();

  /// Advances the retention clock: objects folded in after this call are
  /// stamped with the new epoch.  Call once per profiling epoch when
  /// retention is on; never calling it keeps every object forever (the
  /// pre-retention behavior).
  void advance_epoch() noexcept { ++epoch_; }
  [[nodiscard]] std::uint32_t epoch() const noexcept { return epoch_; }

  /// One retention pass: objects untouched for at least `idle_epochs`
  /// retention epochs are decayed (readers scaled by `decay` in (0, 1),
  /// pair mass adjusted to keep the accumulator invariant) or dropped
  /// (`decay` == 0, or the decayed mass fell below one byte).  Idempotent
  /// within one epoch: a second pass finds nothing new to decay and nothing
  /// left to drop.  O(stale reader-list mass + tracked objects).
  TcmCompactStats compact(std::uint32_t idle_epochs, double decay);

  /// Payload bytes currently held (vector capacities + pair cells).  The
  /// ObjectSlotMap's direct index table is excluded: it is O(max object id
  /// ever seen) by design and shared-capacity across resets, so it would
  /// drown the signal this accessor exists to expose — whether retention
  /// keeps the per-object state bounded.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

  /// Densifies the pair accumulator into the symmetric N x N map.
  [[nodiscard]] SquareMatrix dense() const { return pairs_.densify(); }

  [[nodiscard]] std::uint32_t threads() const noexcept { return threads_; }
  [[nodiscard]] bool weighted() const noexcept { return weighted_; }
  /// Objects with at least one folded reader.
  [[nodiscard]] std::size_t objects_tracked() const noexcept {
    return touched_.size();
  }
  /// Total (object, thread) reader entries currently held (free-listed pool
  /// nodes excluded).
  [[nodiscard]] std::size_t reader_entries() const noexcept {
    return live_readers_;
  }
  [[nodiscard]] const UpperTriangle& pairs() const noexcept { return pairs_; }

 private:
  /// Reader-list node in the shared pool (per-object singly linked list; the
  /// lists are short — most objects have few readers — so pointer chasing
  /// through one contiguous pool beats a vector allocation per object).
  struct Reader {
    ThreadId thread;
    double bytes;
    std::int32_t next;
  };

  static constexpr std::int32_t kNone = -1;
  /// decay_epoch_ sentinel: slot never decayed.
  static constexpr std::uint32_t kNeverDecayed = 0xFFFFFFFFu;

  std::int32_t assign_slot(ObjectId obj);

  void add_one(ObjectId obj, ThreadId thread, double bytes);

  /// Pool node for a new list head, reusing the free list when possible.
  std::int32_t alloc_reader(ThreadId thread, double bytes, std::int32_t next);

  std::uint32_t threads_;
  bool weighted_;
  ObjectSlotMap slots_;
  ArenaScratch scratch_;                  ///< reused by add()'s reorganize
  std::vector<ObjectId> touched_;         ///< slot -> object id
  std::vector<ClassId> klass_;            ///< slot -> owning class (cell attribution)
  std::vector<std::int32_t> heads_;       ///< slot -> first Reader index (kNone = empty)
  std::vector<std::uint32_t> last_touch_; ///< slot -> retention epoch last folded
  std::vector<std::uint32_t> decay_epoch_;///< slot -> epoch last decayed
  std::vector<Reader> pool_;
  UpperTriangle pairs_;
  std::int32_t free_head_ = kNone;        ///< freed pool nodes, chained via next
  std::size_t live_readers_ = 0;
  std::uint32_t epoch_ = 0;               ///< retention clock
};

}  // namespace djvm
