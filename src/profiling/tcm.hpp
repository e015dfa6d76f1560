// Thread correlation map (TCM) construction (paper Section II.A).
//
// The coordinator reorganizes per-thread OALs into per-object reader lists
// and then accrues, for every pair of threads that touched an object in the
// profiled window, the object's byte contribution.  With sampling, each
// logged entry carries its class gap at logging time; multiplying by the gap
// (Horvitz-Thompson weighting) makes the sampled TCM an unbiased estimate of
// the full-sampling map, so the paper's error metrics compare like with like.
//
// There is one representation: CSR (compressed sparse row), one contiguous
// run of (thread, bytes) readers per object.
//
//  * `TcmBuilder::reorganize_arena` bucket-sorts a window's OAL log arenas
//    (profiling/oal.hpp) into one `ReaderArena` — no per-object vectors, no
//    hashing while object ids stay compact — and `accrue_sparse` turns it
//    into the window's pair map; `attribute_cells` splits the same pair mass
//    by owning class.
//  * `TcmStore` is the whole-run state: a CSR arena sorted by object id that
//    absorbs each window in place (readers max-combined per thread), ages
//    stale objects out under a retention policy, and is accrued into pairs
//    only when a whole-run map is asked for.
//
// Byte weights are integer bytes x integer gaps, so every path produces the
// same map bit for bit whatever the order of summation; tests hold them to
// the seed's hash-map oracle within 1e-9.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/matrix.hpp"
#include "common/types.hpp"
#include "profiling/oal.hpp"

namespace djvm {

/// OAL entries reorganized into a flat CSR arena: object k's deduplicated
/// readers live in `readers[offsets[k] .. offsets[k+1])`, max-combined per
/// thread.  One contiguous buffer instead of a `vector<pair>` per object,
/// built by bucket sort (direct-indexed while object ids stay compact,
/// spilling to a hash map otherwise) with stamp-based per-thread dedup
/// inside each segment.  A reorganized window lists objects in
/// first-appearance order with their class in `klass`; a TcmStore keeps its
/// objects in id order and no classes.
struct ReaderArena {
  std::vector<ObjectId> objects;                     ///< unique objects
  std::vector<ClassId> klass;                        ///< class of each object (windows only)
  std::vector<std::uint32_t> offsets;                ///< size objects.size() + 1
  std::vector<std::pair<ThreadId, double>> readers;  ///< CSR payload

  [[nodiscard]] std::size_t object_count() const noexcept { return objects.size(); }
  [[nodiscard]] std::span<const std::pair<ThreadId, double>> readers_of(
      std::size_t k) const noexcept {
    return {readers.data() + offsets[k], offsets[k + 1] - offsets[k]};
  }
};

/// Object id -> dense slot assignment for the arena reorganize:
/// direct-indexed while ids stay compact (heap ids are allocated densely,
/// the common case for every producer in the tree), with a hash-map spill
/// past the cap so one stray sparse id cannot size an allocation.
class ObjectSlotMap {
 public:
  /// Ids at or past this cap take the hash-map spill.
  static constexpr ObjectId kDirectCap = ObjectId{1} << 24;

  /// Slot of `obj`, assigning the next dense slot on first sight (`fresh`
  /// reports which).
  std::int32_t get_or_assign(ObjectId obj, bool& fresh);
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
/// freed — between calls, so steady-state epochs stop re-allocating and
/// re-zeroing the O(max object id) direct table on every window.
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

/// Per-class decomposition of a window's pair mass against a thread
/// placement — the sparse answer to "which classes produced these cells".
/// Every pair cell came from one object, and every object belongs to one
/// class, so the walk over the per-object reader lists splits each cell's
/// mass by the owning class without densifying a per-class matrix
/// (classes x N^2 would defeat the sparse pipeline).  All vectors are
/// ClassId-indexed and may be shorter than the registry when trailing
/// classes contributed nothing.
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
  /// know homes (the daemon); the arena itself never sees the heap.
  std::vector<double> home_mass;

  [[nodiscard]] bool empty() const noexcept {
    // home_mass counts: an epoch of purely single-reader remote-home traffic
    // (no co-access pairs at all) still carries influence evidence.
    return cut_bytes.empty() && local_bytes.empty() && home_mass.empty();
  }
};

/// Builds TCMs out of OAL log arenas.
class TcmBuilder {
 public:
  /// Reorganizes the arenas' interval slices into one flat CSR arena (bucket
  /// sort, no per-object allocations).  Each slice provides the logging
  /// thread for its entry range.
  [[nodiscard]] static ReaderArena reorganize_arena(
      std::span<const OalArena* const> logs, bool weighted,
      ArenaScratch& scratch);

  /// Accrues an arena into an upper-triangular accumulator: cell (i, j)
  /// accumulates min(bytes_i, bytes_j) per object shared by threads i and j.
  /// Readers at or past `threads` are skipped.
  [[nodiscard]] static UpperTriangle accrue_sparse(const ReaderArena& arena,
                                                   std::uint32_t threads);

  /// Splits the arena's pair mass by owning class against `node_of_thread`
  /// (the balancer's current co-location partition): each reader-pair cell
  /// min(bytes_i, bytes_j) lands in the object's class as cut mass (readers
  /// on different nodes) or local mass.  Threads beyond `node_of_thread`
  /// count as local (no placement claim); readers at or past `threads` and
  /// objects of class kInvalidClass are skipped.  Callers bound class ids
  /// against their registry: the class-indexed vectors size to the largest
  /// class seen.  home_mass is left empty for the caller to fill.
  [[nodiscard]] static TcmClassAttribution attribute_cells(
      const ReaderArena& arena, std::span<const NodeId> node_of_thread,
      std::uint32_t threads);
};

/// Result of one `TcmStore::compact` retention pass.
struct TcmCompactStats {
  std::size_t dropped_objects = 0;  ///< stale objects evicted
  std::size_t decayed_objects = 0;  ///< stale objects down-weighted, kept
  std::size_t dropped_readers = 0;  ///< reader entries evicted with them
};

/// The whole-run TCM state: a CSR arena whose objects are strictly
/// increasing by id, one reader per thread per object, each byte value the
/// maximum over every window absorbed — so accruing it yields exactly the
/// map a from-scratch build over the concatenated windows produces.  Each
/// object also carries the retention epoch it was last touched and last
/// decayed in.  The store holds no pair cells (`csr()` is accrued on
/// demand) and no class tags (only windows are attributed).
///
/// Long-haul retention: a whole-run map grows with every object the workload
/// ever touches, which is unbounded on a server that runs for weeks.  The
/// retention pass (`advance_epoch` + `compact`) bounds it: an object
/// untouched for `idle_epochs` retention epochs either decays (every reader
/// byte value scaled by `decay`) or, when `decay` is 0 or its decayed
/// largest reader falls below one byte, is dropped.  Live objects are never
/// perturbed: the map restricted to touched objects stays the map a
/// from-scratch build over their entries yields.
class TcmStore {
 public:
  explicit TcmStore(std::uint32_t threads);

  /// Merges one window in place.  The window is put in id order, then a
  /// forward co-scan max-combines readers of objects already held and counts
  /// what is new; only if something grew does one back-to-front pass move
  /// each segment once into the grown arrays.  Readers at or past the
  /// store's thread count are skipped, and an object with no other reader is
  /// not touched.
  void absorb(const ReaderArena& window);

  /// Advances the retention clock: objects absorbed after this call are
  /// stamped with the new epoch.  Call once per profiling epoch when
  /// retention is on; never calling it keeps every object forever.
  void advance_epoch() noexcept { ++epoch_; }
  [[nodiscard]] std::uint32_t epoch() const noexcept { return epoch_; }

  /// One retention pass: objects untouched for at least `idle_epochs`
  /// retention epochs are decayed (readers scaled by `decay` in (0, 1), at
  /// most once per epoch) or dropped (`decay` == 0, or the decayed largest
  /// reader fell below one byte).  One stable filter-and-scale pass over the
  /// store; a second call within the same epoch finds nothing to do.
  TcmCompactStats compact(std::uint32_t idle_epochs, double decay);

  /// The store's objects (strictly increasing ids) and their readers; accrue
  /// with TcmBuilder::accrue_sparse for the whole-run map.
  [[nodiscard]] const ReaderArena& csr() const noexcept { return csr_; }
  [[nodiscard]] std::uint32_t threads() const noexcept { return threads_; }
  [[nodiscard]] std::size_t object_count() const noexcept {
    return csr_.object_count();
  }
  [[nodiscard]] std::size_t reader_entries() const noexcept {
    return csr_.readers.size();
  }

  /// Payload bytes currently held (vector capacities).  The id-order table
  /// `absorb` scans is excluded: it is O(a window's id range) by design, so
  /// it would drown the signal this accessor exists to expose — whether
  /// retention keeps the per-object state bounded.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  /// decay_epoch_ sentinel: object never decayed.
  static constexpr std::uint32_t kNeverDecayed = 0xFFFFFFFFu;

  /// Fills order_ with the window's slots in ascending object-id order.
  void order_window(const ReaderArena& window);
  /// Stamps the threads of readers [begin, end) with a fresh tag.
  void stamp_readers(std::uint32_t begin, std::uint32_t end);

  std::uint32_t threads_;
  ReaderArena csr_;                       ///< objects by id; klass unused
  std::vector<std::uint32_t> last_touch_; ///< per object: epoch last absorbed
  std::vector<std::uint32_t> decay_epoch_;///< per object: epoch last decayed
  std::uint32_t epoch_ = 0;               ///< retention clock
  // absorb() scratch, kept between calls.
  std::vector<std::int32_t> rank_;        ///< id - lowest id -> window slot
  std::vector<std::uint32_t> order_;      ///< window slots by id
  std::vector<std::uint64_t> stamp_;      ///< per-thread membership tags
  std::vector<std::uint32_t> pos_;        ///< per-thread reader index
  std::uint64_t tag_ = 0;
};

}  // namespace djvm
