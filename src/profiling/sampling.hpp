// Adaptive per-class object sampling (paper Section II.B).
//
// Each class carries a *nominal* sampling gap (a power of two) and a *real*
// gap (the nearest prime, to defeat cyclic allocation patterns).  An object
// is sampled iff one of its sequence numbers is divisible by the real gap;
// arrays own one sequence number per element, and a sampled array logs an
// *amortized* sample size of (sampled elements x element size) instead of its
// full length, which keeps correlation estimates unbiased across array sizes.
//
// Rates use the paper's nX notation: "nX" = n sampled objects per 4 KB page,
// i.e. nominal gap = page_size / (instance_size * n), clamped to >= 1 (full).
//
// On top of the cluster-wide per-class gap, each worker node may carry a
// *gap shift* per class: the node's effective nominal gap is the class gap
// doubled `shift` times (effective real gap = its nearest prime).
//
// Sampling is decided **per cached copy**, the paper's cost model: "upon
// receiving a change notice for a specific class, every thread will iterate
// through all objects of that class *it caches*".  Each node reads the
// sampled bit of its own copy under its *own* effective gap, so a
// per-(node, class) shift changes what that node samples and logs — and the
// resampling walk it pays for covers the objects it caches, not the objects
// it happens to home.  The legacy home-node model (the object's home owns
// one cluster-wide bit; resampling visits are billed to homes) is kept
// behind CostAttribution::kHomeNode for ablation benches.
//
// No answer is cached: every query computes the bit, the amortized bytes
// and the gap from the object's metadata and the reader's current gap, so a
// rate change takes effect at once.  The resampling walks only bill the
// visits the paper's model charges for.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "runtime/heap.hpp"

namespace djvm {

/// Per-class activity accumulated over one daemon epoch, the governor's
/// benefit/cost input: `entries` drives the cost side (each OAL entry pays
/// fixed CPU + wire bytes), `estimated_bytes` (Horvitz-Thompson scaled) the
/// benefit side (correlation information contributed to the TCM).
struct ClassEpochStats {
  std::uint64_t entries = 0;
  std::uint64_t estimated_bytes = 0;  ///< logged bytes x gap (HT estimate)
};

/// Read-only view of the GOS per-node copy sets.  The plan uses it to walk
/// exactly the copies a node caches during per-node resampling passes and to
/// attribute cluster-wide resampling visits to every caching node.  Without
/// a registered view (standalone plans in unit tests) each object is treated
/// as cached only at its home, which degenerates to the home-node model.
class CopySetView {
 public:
  virtual ~CopySetView() = default;
  /// True when `node` currently holds a valid (or home) copy of `obj`.
  [[nodiscard]] virtual bool node_has_copy(NodeId node, ObjectId obj) const = 0;
  /// Number of nodes in the cluster the copy sets span.
  [[nodiscard]] virtual std::uint32_t copy_node_count() const = 0;
};

/// One copy's sampling answer: the sampled bit, the amortized sample size in
/// bytes (0 when unsampled) and the real gap both were decided under (0 for
/// ids outside the heap).
struct CopySample {
  bool sampled = false;
  std::uint32_t bytes = 0;
  std::uint32_t gap = 0;
};

/// Cluster-wide sampling state: per-class gaps, per-(node, class) gap
/// shifts, and the bill of the paper's "resampling" pass.  Sampled bits are
/// computed on demand from the object's metadata and the reader's gap.
class SamplingPlan {
 public:
  explicit SamplingPlan(Heap& heap);

  // --- rate configuration --------------------------------------------------
  /// Applies rate `rate_x` (nX) to every registered class and makes it the
  /// default inherited by classes registered later; 0 = full sampling.
  void set_rate_all(std::uint32_t rate_x);

  /// Applies rate `rate_x` to one class; 0 = full sampling.
  void set_rate(ClassId id, std::uint32_t rate_x);

  /// Sets a class's nominal gap directly (real gap = nearest prime; a
  /// nominal gap of 1 means full sampling, real gap 1).
  void set_nominal_gap(ClassId id, std::uint32_t nominal);

  /// Halves the class's nominal gap (doubles its sampling rate); saturates
  /// at full sampling.  Returns the new nominal gap.
  std::uint32_t halve_gap(ClassId id);

  [[nodiscard]] std::uint32_t real_gap(ClassId id) const;
  [[nodiscard]] std::uint32_t nominal_gap(ClassId id) const;

  // --- cost attribution model ----------------------------------------------
  /// Switches between the cached-copy model (default: each caching node owns
  /// its copy's bit and pays its own resampling) and the legacy home-node
  /// model (one cluster-wide bit under the home's gap, visits billed to
  /// homes).  Answers follow the new model at once.
  void set_cost_attribution(CostAttribution mode) noexcept { attribution_ = mode; }
  [[nodiscard]] CostAttribution cost_attribution() const noexcept {
    return attribution_;
  }

  /// Registers (or clears, with nullptr) the GOS copy sets the resampling
  /// walks iterate.  The view must outlive its registration; the GOS
  /// deregisters itself on destruction.
  void set_copy_view(const CopySetView* view) noexcept { copies_ = view; }

  // --- per-(node, class) effective gaps -------------------------------------
  /// Sets `node`'s backoff shift for class `id` (effective nominal gap =
  /// class nominal << shift).  A shift of 0 restores the cluster gap.  The
  /// node's answers change at once; pair with resample_classes_on_node to
  /// bill the change notice.
  void set_node_gap_shift(NodeId node, ClassId id, std::uint32_t shift);
  [[nodiscard]] std::uint32_t node_gap_shift(NodeId node, ClassId id) const;
  /// Drops every per-node shift back to the cluster view (snapshot loads and
  /// governor re-arms).  Bills nothing.
  void clear_node_gap_shifts();
  /// True when any (node, class) carries a nonzero shift.
  [[nodiscard]] bool has_node_gap_shifts() const;
  /// Number of node rows in the shift table (<= cluster nodes; rows appear
  /// when a node first receives a shift).
  [[nodiscard]] std::size_t shift_node_count() const noexcept {
    return node_shift_.size();
  }
  [[nodiscard]] std::uint32_t effective_nominal_gap(NodeId node, ClassId id) const;
  [[nodiscard]] std::uint32_t effective_real_gap(NodeId node, ClassId id) const {
    return reader_gap(node, heap_.registry().at(id));
  }

  /// The nX rate implied by `rate_x` for a class of instance size `s`:
  /// nominal gap = max(1, page / (s * n)).  Exposed for tests.
  [[nodiscard]] static std::uint32_t nominal_gap_for_rate(std::uint32_t instance_size,
                                                          std::uint32_t rate_x);

  // --- per-object queries (hot path) ---------------------------------------
  /// The answer for `reader`'s copy of `obj` under that node's effective
  /// gap: a node without a shift for the class reads the class base gap.
  /// Under the home-node model the reader is always the object's home.  Ids
  /// at or past object_count() are unsampled with gap 0 — a gap of 1 would
  /// read as sampled-every-access and inflate Horvitz-Thompson estimates
  /// built from a bogus entry.
  [[nodiscard]] CopySample sample(NodeId reader, ObjectId obj) const {
    if (obj >= heap_.object_count()) return {};
    const ObjectMeta& m = heap_.meta(obj);
    if (attribution_ == CostAttribution::kHomeNode) reader = m.home;
    const Klass& k = heap_.registry().all()[static_cast<std::size_t>(m.klass)];
    return compute_bits(m, k, reader_gap(reader, k));
  }
  /// Cluster-view answer: the class base gap (the home's effective gap
  /// under the home-node model).
  [[nodiscard]] CopySample sample(ObjectId obj) const {
    return sample(kInvalidNode, obj);
  }
  [[nodiscard]] bool is_sampled(ObjectId obj) const { return sample(obj).sampled; }
  [[nodiscard]] bool is_sampled(NodeId node, ObjectId obj) const {
    return sample(node, obj).sampled;
  }
  /// Amortized sample size in bytes (0 when unsampled): full object size for
  /// scalars, sampled_elements x element_size for arrays.
  [[nodiscard]] std::uint32_t sample_bytes(ObjectId obj) const { return sample(obj).bytes; }
  [[nodiscard]] std::uint32_t sample_bytes(NodeId node, ObjectId obj) const {
    return sample(node, obj).bytes;
  }
  /// Real gap the answer was decided under (0 = not a heap object).
  [[nodiscard]] std::uint32_t gap_of(ObjectId obj) const { return sample(obj).gap; }
  [[nodiscard]] std::uint32_t gap_of(NodeId node, ObjectId obj) const {
    return sample(node, obj).gap;
  }
  /// Horvitz-Thompson estimate of the object's full byte contribution:
  /// sample_bytes x gap.  For arrays this reconstructs ~ length x elem size;
  /// for scalars, size x gap compensates the 1/gap selection probability.
  [[nodiscard]] std::uint64_t estimated_full_bytes(ObjectId obj) const;

  // --- maintenance ----------------------------------------------------------
  /// Assigns the cluster default rate to a class on its first allocation
  /// (called from the GOS allocation path).
  void on_alloc(ObjectId obj);

  /// Counts a copy registration when `node` faults `obj` in (or prefetches
  /// it) for the snapshot v3 summary.
  void note_copy_registered(NodeId node, ObjectId obj);

  /// Home migration: the new home pays one visit (it re-keys the object
  /// under its own gap — under the home-node model the answer follows the
  /// home at once), and the old home's now-cached copy is re-registered.
  void on_home_migrated(ObjectId obj, NodeId from, NodeId to);

  /// Bills the change notice for the listed classes in a single heap pass
  /// ("Upon receiving a change notice for a specific class, every thread
  /// will iterate through all objects of that class it caches...").  Returns
  /// copy visits paid: one per (caching node, object) pair under cached-copy
  /// attribution, one per object under the home-node model.
  std::size_t resample_classes(const std::vector<ClassId>& ids);

  /// Like resample_classes, but bills only the objects `node` actually
  /// caches (home copies included) — a per-node gap shift only concerns
  /// that node's copies.  Under the home-node model the walk degenerates to
  /// objects homed at `node`.
  std::size_t resample_classes_on_node(NodeId node, const std::vector<ClassId>& ids);

  /// Full resampling pass over the heap; returns copy visits paid.
  std::size_t resample_all();

  /// Copy visits paid by resampling passes since the last drain, attributed
  /// to the node that did the walk (the node caching the copy pays the
  /// recompute).  The daemon drains this to build per-node overhead samples.
  [[nodiscard]] std::vector<std::uint64_t> drain_resampled_by_node();

  // --- per-node copy bookkeeping (snapshot v3 summary) ----------------------
  /// Cumulative copy-bit registrations on `node` (fault-ins, prefetches,
  /// re-registrations after home migration).
  [[nodiscard]] std::uint64_t copy_registrations(NodeId node) const {
    return node < copy_registrations_.size() ? copy_registrations_[node] : 0;
  }
  /// Cumulative resampling copy visits `node` has paid (never drained).
  [[nodiscard]] std::uint64_t resample_visits(NodeId node) const {
    return node < resample_visits_.size() ? resample_visits_[node] : 0;
  }
  /// Node rows present in either bookkeeping counter.
  [[nodiscard]] std::size_t bookkeeping_node_count() const noexcept {
    return std::max(copy_registrations_.size(), resample_visits_.size());
  }
  /// Restores the bookkeeping counters from a snapshot (absolute values;
  /// the decode path calls this after billing its change notice so the
  /// restored totals are exactly the stored ones).
  void seed_copy_bookkeeping(std::vector<std::uint64_t> registrations,
                             std::vector<std::uint64_t> visits);

  /// Count of sampled elements in an array [start_seq, start_seq+len) under
  /// gap `g` (number of multiples of g in that range).  Exposed for tests.
  [[nodiscard]] static std::uint32_t sampled_elements(std::uint32_t start_seq,
                                                      std::uint32_t length,
                                                      std::uint32_t gap) {
    if (gap <= 1) return length;
    const std::uint64_t hi = static_cast<std::uint64_t>(start_seq) + length - 1;
    const std::uint64_t lo = start_seq;
    return static_cast<std::uint32_t>(hi / gap - (lo - 1) / gap);
  }

  // --- per-epoch class stats (governor benefit/cost inputs) -----------------
  /// Resets the per-class accumulators (cluster and per-node) at the start
  /// of a daemon epoch.
  void begin_epoch_stats();
  /// Accumulates one OAL entry of class `id` (`gap` = real gap at logging).
  void note_epoch_entry(ClassId id, std::uint32_t bytes, std::uint32_t gap);
  /// Attributes one OAL entry to the worker node that logged it (the daemon
  /// reads the node off the interval record); cluster totals are kept by
  /// note_epoch_entry, which the daemon calls alongside.
  void note_epoch_node_entry(NodeId node, ClassId id, std::uint32_t bytes,
                             std::uint32_t gap);
  /// Per-class stats of the current epoch, indexed by ClassId (may be
  /// shorter than the registry if trailing classes logged nothing).
  [[nodiscard]] const std::vector<ClassEpochStats>& epoch_stats() const noexcept {
    return epoch_stats_;
  }
  /// Per-node per-class stats of the current epoch, indexed [node][class]
  /// (rows appear when a node first logs; may be shorter than the cluster).
  [[nodiscard]] const std::vector<std::vector<ClassEpochStats>>& node_epoch_stats()
      const noexcept {
    return node_epoch_stats_;
  }

  [[nodiscard]] const Heap& heap() const noexcept { return heap_; }
  [[nodiscard]] Heap& heap() noexcept { return heap_; }

 private:
  /// The sampling decision for one object under one gap: scalars are
  /// sampled iff their sequence number is a multiple of the gap, arrays log
  /// the bytes of their sampled elements.
  [[nodiscard]] static CopySample compute_bits(const ObjectMeta& m, const Klass& k,
                                               std::uint32_t gap) {
    if (k.is_array) {
      const std::uint32_t n = sampled_elements(m.start_seq, m.length, gap);
      return {n > 0, n * k.instance_size, gap};
    }
    const bool s = gap <= 1 || m.start_seq % gap == 0;
    return {s, s ? m.size_bytes : 0u, gap};
  }
  /// `reader`'s effective real gap for class `k`: the cached shifted gap
  /// where the node carries a shift, the class base gap otherwise.
  [[nodiscard]] std::uint32_t reader_gap(NodeId reader, const Klass& k) const {
    const auto ni = static_cast<std::size_t>(reader);
    const auto ci = static_cast<std::size_t>(k.id);
    if (ni < node_real_gap_.size() && ci < node_real_gap_[ni].size() &&
        node_real_gap_[ni][ci] != 0) [[unlikely]] {
      return node_real_gap_[ni][ci];
    }
    return k.sampling.real_gap;
  }
  /// Flags the listed classes in a table indexed by ClassId.
  [[nodiscard]] std::vector<std::uint8_t> class_mask(const std::vector<ClassId>& ids) const;
  /// True when `node` holds a copy of `obj` (home counts); falls back to
  /// home-only when no copy view is registered.
  [[nodiscard]] bool node_caches(NodeId node, ObjectId obj) const;
  /// Charges one cluster-resample visit of `obj` to every caching node and
  /// returns the visits charged.
  std::size_t note_resampled_copies(ObjectId obj);
  /// Re-derives the cached effective real gap for (node, id) after the
  /// class's base gap or the node's shift moved.
  void refresh_node_gap(NodeId node, ClassId id);
  void note_resampled(NodeId payer) {
    if (resampled_by_node_.size() <= payer) resampled_by_node_.resize(payer + 1, 0);
    ++resampled_by_node_[payer];
    if (resample_visits_.size() <= payer) resample_visits_.resize(payer + 1, 0);
    ++resample_visits_[payer];
  }

  Heap& heap_;
  std::uint32_t default_rate_x_ = 0;
  CostAttribution attribution_ = CostAttribution::kCachedCopy;
  const CopySetView* copies_ = nullptr;
  std::vector<ClassEpochStats> epoch_stats_;
  std::vector<std::vector<ClassEpochStats>> node_epoch_stats_;
  /// Per-node backoff doublings on top of the class nominal gap, and the
  /// cached effective real gap where the shift is nonzero (0 = use base).
  std::vector<std::vector<std::uint8_t>> node_shift_;
  std::vector<std::vector<std::uint32_t>> node_real_gap_;
  /// Drainable window of resample visits (per paying node) plus the
  /// cumulative totals and registration counts (snapshot v3 summary).
  std::vector<std::uint64_t> resampled_by_node_;
  std::vector<std::uint64_t> resample_visits_;
  std::vector<std::uint64_t> copy_registrations_;
};

}  // namespace djvm
