#include "profiling/sampling.hpp"

#include <algorithm>
#include <cassert>

#include "common/primes.hpp"

namespace djvm {

SamplingPlan::SamplingPlan(Heap& heap) : heap_(heap) {
  // Tag anything allocated before the plan was attached.
  for (ObjectId o = 0; o < heap_.object_count(); ++o) on_alloc(o);
}

std::uint32_t SamplingPlan::nominal_gap_for_rate(std::uint32_t instance_size,
                                                 std::uint32_t rate_x) {
  if (rate_x == 0) return 1;  // full sampling
  const std::uint64_t denom = static_cast<std::uint64_t>(instance_size) * rate_x;
  if (denom == 0) return 1;
  const std::uint64_t gap = kPageSize / denom;
  return static_cast<std::uint32_t>(std::max<std::uint64_t>(1, gap));
}

void SamplingPlan::set_nominal_gap(ClassId id, std::uint32_t nominal) {
  Klass& k = heap_.registry().at(id);
  k.sampling.nominal_gap = std::max<std::uint32_t>(1, nominal);
  k.sampling.real_gap =
      (k.sampling.nominal_gap <= 1)
          ? 1
          : static_cast<std::uint32_t>(nearest_prime(k.sampling.nominal_gap));
  k.sampling.initialized = true;
  // Shifted nodes derive their effective gap from the base: keep their
  // cached real gaps in step with the new nominal.
  for (std::size_t n = 0; n < node_shift_.size(); ++n) {
    refresh_node_gap(static_cast<NodeId>(n), id);
  }
}

void SamplingPlan::set_rate(ClassId id, std::uint32_t rate_x) {
  const Klass& k = heap_.registry().at(id);
  set_nominal_gap(id, nominal_gap_for_rate(k.instance_size, rate_x));
}

void SamplingPlan::set_rate_all(std::uint32_t rate_x) {
  default_rate_x_ = rate_x;
  for (Klass& k : heap_.registry().all()) set_rate(k.id, rate_x);
  resample_all();
}

std::uint32_t SamplingPlan::halve_gap(ClassId id) {
  Klass& k = heap_.registry().at(id);
  const std::uint32_t next = std::max<std::uint32_t>(1, k.sampling.nominal_gap / 2);
  set_nominal_gap(id, next);
  return next;
}

std::uint32_t SamplingPlan::real_gap(ClassId id) const {
  return heap_.registry().at(id).sampling.real_gap;
}

std::uint32_t SamplingPlan::nominal_gap(ClassId id) const {
  return heap_.registry().at(id).sampling.nominal_gap;
}

namespace {
/// Effective nominal gaps are clamped here so a large base gap with a large
/// shift cannot overflow (and the prime lookup stays in a sane range).
constexpr std::uint64_t kMaxEffectiveNominal = 1u << 24;
constexpr std::uint32_t kMaxNodeShift = 31;
}  // namespace

void SamplingPlan::refresh_node_gap(NodeId node, ClassId id) {
  const auto ni = static_cast<std::size_t>(node);
  const auto ci = static_cast<std::size_t>(id);
  if (ni >= node_shift_.size() || ci >= node_shift_[ni].size()) return;
  const std::uint32_t shift = node_shift_[ni][ci];
  if (shift == 0) {
    node_real_gap_[ni][ci] = 0;  // 0 = fall through to the base real gap
    return;
  }
  const Klass& k = heap_.registry().at(id);
  const std::uint64_t nominal = std::min<std::uint64_t>(
      static_cast<std::uint64_t>(k.sampling.nominal_gap) << shift,
      kMaxEffectiveNominal);
  node_real_gap_[ni][ci] =
      nominal <= 1 ? 1 : static_cast<std::uint32_t>(nearest_prime(nominal));
}

void SamplingPlan::set_node_gap_shift(NodeId node, ClassId id, std::uint32_t shift) {
  const auto ni = static_cast<std::size_t>(node);
  const auto ci = static_cast<std::size_t>(id);
  const std::size_t classes = heap_.registry().size();
  assert(ci < classes);
  if (node_shift_.size() <= ni) {
    node_shift_.resize(ni + 1);
    node_real_gap_.resize(ni + 1);
  }
  for (std::size_t n = 0; n < node_shift_.size(); ++n) {
    if (node_shift_[n].size() < classes) {
      node_shift_[n].resize(classes, 0);
      node_real_gap_[n].resize(classes, 0);
    }
  }
  node_shift_[ni][ci] =
      static_cast<std::uint8_t>(std::min(shift, kMaxNodeShift));
  refresh_node_gap(node, id);
}

std::uint32_t SamplingPlan::node_gap_shift(NodeId node, ClassId id) const {
  const auto ni = static_cast<std::size_t>(node);
  const auto ci = static_cast<std::size_t>(id);
  if (ni >= node_shift_.size() || ci >= node_shift_[ni].size()) return 0;
  return node_shift_[ni][ci];
}

void SamplingPlan::clear_node_gap_shifts() {
  node_shift_.clear();
  node_real_gap_.clear();
}

bool SamplingPlan::has_node_gap_shifts() const {
  for (const auto& row : node_shift_) {
    for (std::uint8_t s : row) {
      if (s != 0) return true;
    }
  }
  return false;
}

std::uint32_t SamplingPlan::effective_nominal_gap(NodeId node, ClassId id) const {
  const Klass& k = heap_.registry().at(id);
  const std::uint32_t shift = node_gap_shift(node, id);
  if (shift == 0) return k.sampling.nominal_gap;
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(
      static_cast<std::uint64_t>(k.sampling.nominal_gap) << shift,
      kMaxEffectiveNominal));
}

void SamplingPlan::on_alloc(ObjectId obj) {
  // Classes loaded after the cluster-wide rate was chosen inherit it on
  // their first allocation (class loading is lazy in a JVM).
  const Klass& k = heap_.registry().at(heap_.meta(obj).klass);
  if (!k.sampling.initialized) set_rate(k.id, default_rate_x_);
}

bool SamplingPlan::node_caches(NodeId node, ObjectId obj) const {
  if (copies_ != nullptr) return copies_->node_has_copy(node, obj);
  return heap_.meta(obj).home == node;
}

void SamplingPlan::note_copy_registered(NodeId node, ObjectId /*obj*/) {
  if (node == kInvalidNode) return;
  if (copy_registrations_.size() <= node) copy_registrations_.resize(node + 1, 0);
  ++copy_registrations_[node];
}

void SamplingPlan::on_home_migrated(ObjectId obj, NodeId from, NodeId to) {
  // The new home pays one visit to re-key the object under its own gap.
  note_resampled(to);
  // The old home keeps the payload as an ordinary cached copy now.
  note_copy_registered(from, obj);
}

std::size_t SamplingPlan::note_resampled_copies(ObjectId obj) {
  // "Every thread will iterate through all objects of that class it caches":
  // each caching node pays one visit for its own copy.  Without copy-set
  // knowledge (or under the legacy model) the home pays a single visit.
  if (attribution_ == CostAttribution::kCachedCopy && copies_ != nullptr) {
    std::size_t visits = 0;
    const std::uint32_t nodes = copies_->copy_node_count();
    for (std::uint32_t n = 0; n < nodes; ++n) {
      if (copies_->node_has_copy(static_cast<NodeId>(n), obj)) {
        note_resampled(static_cast<NodeId>(n));
        ++visits;
      }
    }
    if (visits > 0) return visits;
  }
  note_resampled(heap_.meta(obj).home);
  return 1;
}

std::vector<std::uint8_t> SamplingPlan::class_mask(const std::vector<ClassId>& ids) const {
  std::vector<std::uint8_t> wanted(heap_.registry().size(), 0);
  for (ClassId id : ids) {
    if (static_cast<std::size_t>(id) < wanted.size()) {
      wanted[static_cast<std::size_t>(id)] = 1;
    }
  }
  return wanted;
}

std::size_t SamplingPlan::resample_classes(const std::vector<ClassId>& ids) {
  if (ids.empty()) return 0;
  const std::vector<std::uint8_t> wanted = class_mask(ids);
  std::size_t visited = 0;
  for (ObjectId o = 0; o < heap_.object_count(); ++o) {
    const auto ci = static_cast<std::size_t>(heap_.meta(o).klass);
    if (ci < wanted.size() && wanted[ci] != 0) {
      visited += note_resampled_copies(o);
    }
  }
  return visited;
}

std::size_t SamplingPlan::resample_classes_on_node(NodeId node,
                                                   const std::vector<ClassId>& ids) {
  if (ids.empty()) return 0;
  const std::vector<std::uint8_t> wanted = class_mask(ids);
  std::size_t visited = 0;
  for (ObjectId o = 0; o < heap_.object_count(); ++o) {
    const ObjectMeta& m = heap_.meta(o);
    const auto ci = static_cast<std::size_t>(m.klass);
    if (ci >= wanted.size() || wanted[ci] == 0) continue;
    // Under cached-copy attribution the walk covers exactly the copies this
    // node holds — remote-homed objects it caches included; the legacy
    // model walks the objects it homes.  The walking node pays every visit.
    const bool walks = attribution_ == CostAttribution::kCachedCopy
                           ? node_caches(node, o)
                           : m.home == node;
    if (!walks) continue;
    note_resampled(node);
    ++visited;
  }
  return visited;
}

std::size_t SamplingPlan::resample_all() {
  std::size_t visited = 0;
  for (ObjectId o = 0; o < heap_.object_count(); ++o) {
    visited += note_resampled_copies(o);
  }
  return visited;
}

std::vector<std::uint64_t> SamplingPlan::drain_resampled_by_node() {
  std::vector<std::uint64_t> out;
  out.swap(resampled_by_node_);
  return out;
}

void SamplingPlan::seed_copy_bookkeeping(std::vector<std::uint64_t> registrations,
                                         std::vector<std::uint64_t> visits) {
  copy_registrations_ = std::move(registrations);
  resample_visits_ = std::move(visits);
}

std::uint64_t SamplingPlan::estimated_full_bytes(ObjectId obj) const {
  // The bytes and the gap come from one answer, so the HT estimate stays
  // consistent; an unsampled object has no bytes.
  const CopySample s = sample(obj);
  return static_cast<std::uint64_t>(s.bytes) * s.gap;
}

void SamplingPlan::begin_epoch_stats() {
  epoch_stats_.assign(heap_.registry().size(), ClassEpochStats{});
  for (auto& row : node_epoch_stats_) {
    row.assign(heap_.registry().size(), ClassEpochStats{});
  }
}

void SamplingPlan::note_epoch_entry(ClassId id, std::uint32_t bytes,
                                    std::uint32_t gap) {
  const auto idx = static_cast<std::size_t>(id);
  // Entries come from externally submitted records: an unknown class id
  // (e.g. a default-initialized kInvalidClass) must not size the vector.
  if (idx >= heap_.registry().size()) return;
  if (idx >= epoch_stats_.size()) epoch_stats_.resize(idx + 1);
  ClassEpochStats& s = epoch_stats_[idx];
  ++s.entries;
  s.estimated_bytes += static_cast<std::uint64_t>(bytes) * std::max<std::uint32_t>(1, gap);
}

void SamplingPlan::note_epoch_node_entry(NodeId node, ClassId id,
                                         std::uint32_t bytes, std::uint32_t gap) {
  const auto ci = static_cast<std::size_t>(id);
  if (ci >= heap_.registry().size()) return;
  const auto ni = static_cast<std::size_t>(node);
  // Records come from external submission: an invalid node id must not size
  // the table (kInvalidNode is the u16 all-ones sentinel).
  if (node == kInvalidNode) return;
  if (node_epoch_stats_.size() <= ni) node_epoch_stats_.resize(ni + 1);
  auto& row = node_epoch_stats_[ni];
  if (row.size() <= ci) row.resize(heap_.registry().size());
  ClassEpochStats& s = row[ci];
  ++s.entries;
  s.estimated_bytes += static_cast<std::uint64_t>(bytes) * std::max<std::uint32_t>(1, gap);
}

}  // namespace djvm
