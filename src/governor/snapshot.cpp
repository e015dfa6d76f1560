#include "governor/snapshot.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>

#include "common/crc32.hpp"
#include "runtime/klass.hpp"

namespace djvm {

namespace {

void put_bytes(std::vector<std::uint8_t>& out, const void* p, std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  out.insert(out.end(), b, b + n);
}

template <typename T>
void put(std::vector<std::uint8_t>& out, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  put_bytes(out, &v, sizeof(T));
}

/// Writes `bytes` to `path` atomically: the payload lands in `path`.tmp and
/// is renamed over the target only once fully written, so a crash mid-write
/// cannot destroy the previous good snapshot — the exact failure the
/// crash-recovery snapshots exist to survive.  Shared by the blocking and
/// async save paths so both keep the same crash semantics.
bool write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) return false;
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    if (!f) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

/// Bounds-checked sequential reader.
class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& bytes)
      : bytes_(bytes), size_(bytes.size()) {}

  template <typename T>
  bool get(T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (pos_ + sizeof(T) > size_) return false;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }
  [[nodiscard]] bool exhausted() const noexcept { return pos_ == size_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return size_ - pos_;
  }
  /// Shrinks the readable window to the first `n` bytes (the CRC footer
  /// is excluded from field parsing: once verified, the payload must be
  /// exhausted exactly at the footer boundary).
  void truncate(std::size_t n) noexcept {
    if (n < size_) size_ = n;
  }

 private:
  const std::vector<std::uint8_t>& bytes_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Sanity ceiling on ThreadIds in a migration entry: far above any thread
/// count the simulator runs, and it bounds the cooldown-stamp table restore
/// rebuilds (a forged id near 2^32 would otherwise size a multi-gigabyte
/// allocation).
constexpr std::uint32_t kMaxSnapshotThreads = 1u << 20;

}  // namespace

/// Friend of Governor: the only place private controller state crosses the
/// serialization boundary.
struct SnapshotAccess {
  static void encode(const Governor& gov, const SquareMatrix& tcm,
                     std::vector<std::uint8_t>& out) {
    put<std::uint32_t>(out, kSnapshotMagic);
    put<std::uint32_t>(out, kSnapshotVersion);
    put<std::uint8_t>(out, static_cast<std::uint8_t>(gov.mode_));
    put<std::uint8_t>(out, static_cast<std::uint8_t>(gov.state_));
    put<std::uint8_t>(out, gov.cfg_.per_node ? 1u : 0u);
    put<std::uint8_t>(out, 0);
    put<double>(out, gov.cfg_.overhead_budget);
    put<double>(out, gov.cfg_.distance_threshold);
    put<double>(out, gov.cfg_.hysteresis);
    put<double>(out, gov.cfg_.phase_spike_factor);
    put<double>(out, gov.cfg_.node_budget);
    put<std::uint32_t>(out, gov.cfg_.sentinel_coarsen_shifts);
    put<std::uint32_t>(out, gov.cfg_.max_nominal_gap);
    put<std::uint64_t>(out, gov.epochs_);
    put<std::uint64_t>(out, gov.rearms_);

    const std::vector<Klass>& all = gov.plan_.heap().registry().all();
    put<std::uint32_t>(out, static_cast<std::uint32_t>(all.size()));
    for (const Klass& k : all) {
      put<std::uint32_t>(out, k.id);
      put<std::uint32_t>(out, k.sampling.nominal_gap);
      put<std::uint32_t>(out, k.sampling.real_gap);
      const std::size_t idx = static_cast<std::size_t>(k.id);
      put<std::uint32_t>(out, idx < gov.converged_gaps_.size()
                                  ? gov.converged_gaps_[idx]
                                  : 0u);
      put<std::uint32_t>(out, k.sampling.initialized ? 1u : 0u);
    }

    // Per-(node, class) gap shifts: the worst-offender backoff state that
    // makes the warm start per-node, not just cluster-wide.  Trailing
    // all-zero rows are trimmed so encode(decode(x)) stays bit-exact (the
    // decoder only materializes rows up to the last nonzero shift).
    std::uint32_t shift_nodes = 0;
    for (std::size_t n = 0; n < gov.plan_.shift_node_count(); ++n) {
      for (const Klass& k : all) {
        if (gov.plan_.node_gap_shift(static_cast<NodeId>(n), k.id) != 0) {
          shift_nodes = static_cast<std::uint32_t>(n) + 1;
          break;
        }
      }
    }
    put<std::uint32_t>(out, shift_nodes);
    for (std::uint32_t n = 0; n < shift_nodes; ++n) {
      for (const Klass& k : all) {
        put<std::uint8_t>(out, static_cast<std::uint8_t>(
                                   gov.plan_.node_gap_shift(
                                       static_cast<NodeId>(n), k.id)));
      }
    }

    // v3: per-node cached-copy bookkeeping summary (registrations and
    // resampling copy visits paid).  Trailing all-zero rows are trimmed so
    // encode(decode(x)) stays bit-exact.
    std::uint32_t copy_nodes = 0;
    for (std::size_t n = 0; n < gov.plan_.bookkeeping_node_count(); ++n) {
      if (gov.plan_.copy_registrations(static_cast<NodeId>(n)) != 0 ||
          gov.plan_.resample_visits(static_cast<NodeId>(n)) != 0) {
        copy_nodes = static_cast<std::uint32_t>(n) + 1;
      }
    }
    put<std::uint32_t>(out, copy_nodes);
    for (std::uint32_t n = 0; n < copy_nodes; ++n) {
      put<std::uint64_t>(out, gov.plan_.copy_registrations(static_cast<NodeId>(n)));
      put<std::uint64_t>(out, gov.plan_.resample_visits(static_cast<NodeId>(n)));
    }

    // v4: backoff scoring mode + the decayed balancer-influence table.
    // Zero-influence classes are trimmed so encode(decode(x)) stays
    // bit-exact (the decoder only materializes the listed entries).
    put<std::uint8_t>(out, static_cast<std::uint8_t>(gov.cfg_.scoring));
    put<std::uint8_t>(out, gov.influence_seen_ ? 1u : 0u);
    put<std::uint16_t>(out, 0);
    put<double>(out, gov.cfg_.influence_decay);
    std::uint32_t influence_count = 0;
    for (std::size_t c = 0; c < gov.influence_.size(); ++c) {
      if (gov.influence_[c] != 0.0) ++influence_count;
    }
    put<std::uint32_t>(out, influence_count);
    for (std::size_t c = 0; c < gov.influence_.size(); ++c) {
      if (gov.influence_[c] == 0.0) continue;
      put<std::uint32_t>(out, static_cast<std::uint32_t>(c));
      put<double>(out, gov.influence_[c]);
    }

    // v5: executed-migration history (the facade's execution-stage log).
    // Per-thread cooldown stamps are not stored — the decoder rebuilds them
    // from the entries, which is exactly how the live governor derived them.
    put<std::uint64_t>(out, gov.migrations_executed_);
    put<std::uint32_t>(out,
                       static_cast<std::uint32_t>(gov.migration_history_.size()));
    for (const Governor::ExecutedMigration& m : gov.migration_history_) {
      put<std::uint64_t>(out, m.epoch);
      put<std::uint32_t>(out, m.thread);
      put<std::uint16_t>(out, m.from);
      put<std::uint16_t>(out, m.to);
      put<double>(out, m.gain_bytes);
      put<double>(out, m.sim_cost_seconds);
      put<std::uint64_t>(out, m.prefetched_bytes);
    }

    // v7: tenant budget lease (absent for standalone governors).  The grant
    // itself already lives in the encoded overhead_budget (set_budget writes
    // through cfg_); the lease records the arbitration context behind it.
    put<std::uint8_t>(out, gov.lease_.has_value() ? 1u : 0u);
    if (gov.lease_.has_value()) {
      const Governor::TenantLease& l = *gov.lease_;
      put<std::uint32_t>(out, l.tenant);
      put<std::uint32_t>(out, l.tier);
      put<double>(out, l.weight);
      put<double>(out, l.granted_budget);
      put<double>(out, l.fair_share);
      put<double>(out, l.floor);
      put<std::uint64_t>(out, l.borrowed_epochs);
      put<std::uint64_t>(out, l.lent_epochs);
    }

    put<std::uint64_t>(out, tcm.size());
    for (double v : tcm.raw()) put<double>(out, v);

    // v6: integrity footer over everything above.  Must stay the final
    // field — the decoder locates it from the end of the blob.
    put<std::uint32_t>(out, crc32(out.data(), out.size()));
  }

  /// Installs a parsed snapshot whose classes the live registry holds
  /// (decode_snapshot has checked both); nothing here can fail.
  static void apply(SnapshotInfo&& info, Governor& gov, SquareMatrix& tcm) {
    GovernorConfig& cfg = gov.cfg_;  // meter costs/window stay machine-local
    cfg.overhead_budget = info.overhead_budget;
    cfg.distance_threshold = info.distance_threshold;
    cfg.hysteresis = info.hysteresis;
    cfg.phase_spike_factor = info.phase_spike_factor;
    cfg.per_node = info.per_node;
    cfg.node_budget = info.node_budget;
    cfg.sentinel_coarsen_shifts = info.sentinel_coarsen_shifts;
    cfg.max_nominal_gap = info.max_nominal_gap;
    cfg.scoring = static_cast<BackoffScoring>(info.backoff_scoring);
    cfg.influence_decay = info.influence_decay;
    gov.mode_ = static_cast<GovernorMode>(info.mode);
    gov.state_ = static_cast<GovernorState>(info.state);
    gov.epochs_ = static_cast<std::size_t>(info.epochs_seen);
    gov.rearms_ = static_cast<std::size_t>(info.rearms);
    // A restored sentinel gets a grace epoch: the warm-started workload's
    // first map will differ from the stored one without that being a phase
    // change.
    gov.grace_ = gov.state_ == GovernorState::kSentinel ? 1 : 0;

    gov.influence_.clear();
    for (const auto& [id, value] : info.influence) {
      if (gov.influence_.size() <= id) gov.influence_.resize(id + 1, 0.0);
      gov.influence_[id] = value;
    }
    gov.influence_seen_ = info.influence_seen;

    gov.migration_history_ = std::move(info.migrations);
    gov.migrations_executed_ = info.migrations_executed;
    // Rebuild the per-thread cooldown stamps; entries are chronological,
    // so the last write per thread wins, as it did live.
    gov.last_migration_epoch_.clear();
    for (const Governor::ExecutedMigration& m : gov.migration_history_) {
      if (gov.last_migration_epoch_.size() <= m.thread) {
        gov.last_migration_epoch_.resize(static_cast<std::size_t>(m.thread) + 1,
                                         Governor::kNeverMigrated);
      }
      gov.last_migration_epoch_[m.thread] = m.epoch;
    }

    gov.lease_ = info.has_lease ? std::optional(info.lease) : std::nullopt;

    // Class entry c is class id c (parse_snapshot enforces dense ids).
    const KlassRegistry& reg = gov.plan_.heap().registry();
    const std::size_t classes = info.classes.size();
    gov.converged_gaps_.assign(reg.size(), 0);  // 0 = not captured
    // Only classes whose gaps or shifts actually move are billed the paper's
    // change-notice resampling walk.  Restoring into an already-warm world
    // (same rates, same shifts) then bills nothing — the restored governor
    // drives the cached-copy plan immediately, with no full resample storm
    // billed to the first epoch.
    std::vector<std::uint8_t> changed(reg.size(), 0);
    // Shifts: any class shifted before or after the load is affected.
    for (std::size_t n = 0; n < gov.plan_.shift_node_count(); ++n) {
      for (const Klass& k : reg.all()) {
        if (gov.plan_.node_gap_shift(static_cast<NodeId>(n), k.id) != 0) {
          changed[k.id] = 1;
        }
      }
    }
    for (std::size_t n = 0; n < info.shift_nodes; ++n) {
      for (std::size_t c = 0; c < classes; ++c) {
        if (info.shift_at(n, c) != 0) changed[c] = 1;
      }
    }
    for (std::size_t c = 0; c < classes; ++c) {
      const SnapshotInfo::ClassGap& g = info.classes[c];
      if (!g.rated) continue;
      const SamplingInfo& live = reg.at(g.id).sampling;
      if (!live.initialized || live.nominal_gap != g.nominal_gap ||
          live.real_gap != g.real_gap) {
        changed[c] = 1;
      }
    }
    gov.plan_.clear_node_gap_shifts();
    for (std::size_t n = 0; n < info.shift_nodes; ++n) {
      for (std::size_t c = 0; c < classes; ++c) {
        const std::uint8_t s = info.shift_at(n, c);
        if (s != 0) {
          gov.plan_.set_node_gap_shift(static_cast<NodeId>(n),
                                       static_cast<ClassId>(c), s);
        }
      }
    }
    for (const SnapshotInfo::ClassGap& g : info.classes) {
      // A class that never had a rate assigned keeps its placeholder gaps
      // and, crucially, its uninitialized flag, so its first allocation in
      // the warm-started run still inherits the cluster default rate.
      if (g.rated) {
        gov.plan_.set_nominal_gap(g.id, g.nominal_gap);
        // Apply the *stored* real gap rather than trusting the recompute:
        // bit-exactness must survive a future change to the nominal->prime
        // mapping (tie-breaking, say) between writer and reader builds.
        gov.plan_.heap().registry().at(g.id).sampling.real_gap = g.real_gap;
      }
      gov.converged_gaps_[g.id] = g.converged_gap;
    }
    std::vector<ClassId> to_resample;
    for (std::size_t c = 0; c < changed.size(); ++c) {
      if (changed[c] != 0) to_resample.push_back(static_cast<ClassId>(c));
    }
    // The plan's answers already follow the restored gaps and shifts; this
    // walk is only the change notice's bill.
    gov.plan_.resample_classes(to_resample);
    // Seeded last: the change-notice bill above books its own visits, but the
    // restored totals must be exactly the stored ones (bit-exact re-encode).
    std::vector<std::uint64_t> regs, visits;
    for (const SnapshotInfo::CopyNode& c : info.copy_nodes) {
      regs.push_back(c.registrations);
      visits.push_back(c.resample_visits);
    }
    gov.plan_.seed_copy_bookkeeping(std::move(regs), std::move(visits));
    tcm = std::move(info.tcm);
  }
};

std::vector<std::uint8_t> encode_snapshot(const Governor& gov,
                                          const SquareMatrix& tcm) {
  std::vector<std::uint8_t> out;
  SnapshotAccess::encode(gov, tcm, out);
  return out;
}

bool decode_snapshot(const std::vector<std::uint8_t>& bytes, Governor& gov,
                     SquareMatrix& tcm) {
  SnapshotInfo info;
  if (!parse_snapshot(bytes, info)) return false;
  // Ids are dense, so the live registry holds every stored class (and
  // every influence id, which parse bounds by the class count) exactly
  // when it is at least as large.
  if (info.classes.size() > gov.plan().heap().registry().size()) return false;
  SnapshotAccess::apply(std::move(info), gov, tcm);
  return true;
}

bool save_snapshot(const std::string& path, const Governor& gov,
                   const SquareMatrix& tcm) {
  return write_file(path, encode_snapshot(gov, tcm));
}

bool load_snapshot(const std::string& path, Governor& gov, SquareMatrix& tcm) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(f)),
                                  std::istreambuf_iterator<char>());
  return decode_snapshot(bytes, gov, tcm);
}

std::optional<std::size_t> recover_snapshot(
    const std::vector<std::string>& candidates, Governor& gov,
    SquareMatrix& tcm) {
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    // load_snapshot leaves the governor untouched unless the blob passes
    // every check (decode parses fully before applying), so trying a
    // corrupt newer candidate costs nothing.
    if (load_snapshot(candidates[i], gov, tcm)) return i;
  }
  return std::nullopt;
}

std::vector<std::string> recover_timeline(const std::string& path, bool* torn) {
  if (torn != nullptr) *torn = false;
  std::vector<std::string> lines;
  std::ifstream f(path, std::ios::binary);
  if (!f) return lines;
  std::string content((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
  std::size_t start = 0;
  while (start < content.size()) {
    const std::size_t nl = content.find('\n', start);
    if (nl == std::string::npos) {
      // Bytes past the last newline are a line the crash cut short — the
      // batched append writes whole '\n'-terminated lines, so a complete
      // line always carries its terminator.
      if (torn != nullptr) *torn = true;
      break;
    }
    lines.emplace_back(content, start, nl - start);
    start = nl + 1;
  }
  return lines;
}

// --- parse_snapshot -----------------------------------------------------------
//
// Every rule that needs no live registry lives here, so restore and the
// offline exporters accept the same blobs: counts vs remaining bytes, dense
// class ids, enum ranges and armed mode/state pairs, finiteness, shift and
// flag bounds, the encoder's trimming, full consumption.

bool parse_snapshot(const std::vector<std::uint8_t>& bytes, SnapshotInfo& out) {
  Reader r(bytes);
  std::uint32_t magic = 0;
  if (!r.get(magic) || magic != kSnapshotMagic) return false;
  if (!r.get(out.version) || out.version != kSnapshotVersion) return false;
  // Checksum before structure: a corrupt blob must fail here, never by luck
  // of which field it tore.
  const std::size_t payload = bytes.size() - sizeof(std::uint32_t);
  std::uint32_t stored = 0;
  std::memcpy(&stored, bytes.data() + payload, sizeof(stored));
  if (stored != crc32(bytes.data(), payload)) return false;
  r.truncate(payload);

  std::uint8_t flags = 0, reserved = 0;
  if (!r.get(out.mode) || !r.get(out.state) || !r.get(flags) ||
      !r.get(reserved) || !r.get(out.overhead_budget) ||
      !r.get(out.distance_threshold) || !r.get(out.hysteresis) ||
      !r.get(out.phase_spike_factor) || !r.get(out.node_budget) ||
      !r.get(out.sentinel_coarsen_shifts) || !r.get(out.max_nominal_gap) ||
      !r.get(out.epochs_seen) || !r.get(out.rearms)) {
    return false;
  }
  if (flags > 1u) return false;  // unknown flag bits: corruption
  out.per_node = flags != 0;
  if (out.mode > static_cast<std::uint8_t>(GovernorMode::kClosedLoop) ||
      out.state > static_cast<std::uint8_t>(GovernorState::kSentinel)) {
    return false;
  }
  // Armed modes only ever produce specific states; an inconsistent pair
  // (e.g. closed loop + kConverged, which closed_loop_step never leaves)
  // would wedge the restored controller.  Disarmed governors may carry
  // any terminal state for reporting.
  const auto gm = static_cast<GovernorMode>(out.mode);
  const auto gs = static_cast<GovernorState>(out.state);
  if (gm == GovernorMode::kLegacyOneWay && gs != GovernorState::kAdapting &&
      gs != GovernorState::kConverged) {
    return false;
  }
  if (gm == GovernorMode::kClosedLoop && gs != GovernorState::kAdapting &&
      gs != GovernorState::kSentinel) {
    return false;
  }
  // Config corruption that survives the structural checks would wedge the
  // controller (NaN budget disables every comparison; max gap 0 inverts
  // the sentinel): reject anything outside sane ranges.
  const auto sane = [](double v) { return std::isfinite(v) && v >= 0.0; };
  if (!sane(out.overhead_budget) || !sane(out.distance_threshold) ||
      !sane(out.hysteresis) || !sane(out.phase_spike_factor) ||
      !sane(out.node_budget) || out.max_nominal_gap == 0 ||
      out.sentinel_coarsen_shifts > 31) {
    return false;
  }

  std::uint32_t class_count = 0;
  if (!r.get(class_count)) return false;
  // A corrupt count must be rejected before it sizes an allocation.
  if (static_cast<std::uint64_t>(class_count) * (5 * sizeof(std::uint32_t)) >
      r.remaining()) {
    return false;
  }
  out.classes.assign(class_count, {});
  for (std::uint32_t c = 0; c < class_count; ++c) {
    SnapshotInfo::ClassGap& g = out.classes[c];
    std::uint32_t class_flags = 0;
    if (!r.get(g.id) || !r.get(g.nominal_gap) || !r.get(g.real_gap) ||
        !r.get(g.converged_gap) || !r.get(class_flags)) {
      return false;
    }
    // The encoder writes the registry in id order and register_class
    // assigns id = size(): entry c is class c, or the blob is corrupt.
    if (g.id != c) return false;
    g.rated = (class_flags & 1u) != 0;
    // A rated class with a zero gap field would silently flip to full
    // sampling on load (gap 0 clamps/behaves as 1): corruption, reject.
    if (g.rated && (g.nominal_gap == 0 || g.real_gap == 0)) return false;
  }

  if (!r.get(out.shift_nodes)) return false;
  const std::uint64_t cells =
      static_cast<std::uint64_t>(out.shift_nodes) * class_count;
  // NodeId is 16-bit; a wider count (or a table that cannot fit in the
  // remaining bytes) is corruption, checked before the allocation.
  if (out.shift_nodes > std::numeric_limits<NodeId>::max() ||
      cells > r.remaining()) {
    return false;
  }
  out.node_gap_shifts.assign(static_cast<std::size_t>(cells), 0);
  for (std::uint8_t& s : out.node_gap_shifts) {
    if (!r.get(s)) return false;
    if (s > 31) return false;  // beyond any gap the encoder can produce
  }

  std::uint32_t copy_count = 0;
  if (!r.get(copy_count)) return false;
  if (copy_count > std::numeric_limits<NodeId>::max() ||
      static_cast<std::uint64_t>(copy_count) * 2 * sizeof(std::uint64_t) >
          r.remaining()) {
    return false;
  }
  out.copy_nodes.assign(copy_count, {});
  for (SnapshotInfo::CopyNode& c : out.copy_nodes) {
    if (!r.get(c.registrations) || !r.get(c.resample_visits)) return false;
  }
  // The encoder trims trailing all-zero rows; a padded table would
  // re-encode differently (corruption or a foreign writer).
  if (!out.copy_nodes.empty() && out.copy_nodes.back().registrations == 0 &&
      out.copy_nodes.back().resample_visits == 0) {
    return false;
  }

  std::uint8_t influence_seen = 0;
  std::uint16_t reserved16 = 0;
  if (!r.get(out.backoff_scoring) || !r.get(influence_seen) ||
      !r.get(reserved16) || !r.get(out.influence_decay)) {
    return false;
  }
  if (out.backoff_scoring >
          static_cast<std::uint8_t>(BackoffScoring::kInfluenceWeighted) ||
      influence_seen > 1u || reserved16 != 0) {
    return false;
  }
  out.influence_seen = influence_seen != 0;
  if (!std::isfinite(out.influence_decay) || out.influence_decay < 0.0 ||
      out.influence_decay > 1.0) {
    return false;
  }
  std::uint32_t influence_count = 0;
  if (!r.get(influence_count)) return false;
  // An influence table without the seen flag would re-encode differently
  // (the encoder only writes entries a feedback epoch produced).
  if (!out.influence_seen && influence_count != 0) return false;
  if (static_cast<std::uint64_t>(influence_count) *
          (sizeof(std::uint32_t) + sizeof(double)) >
      r.remaining()) {
    return false;
  }
  out.influence.assign(influence_count, {});
  for (std::uint32_t i = 0; i < influence_count; ++i) {
    auto& [id, value] = out.influence[i];
    if (!r.get(id) || !r.get(value)) return false;
    // Entries are written in ascending class order, trimmed of zeros;
    // out-of-order, duplicate, unknown-class, or non-positive values are
    // corruption (or a foreign writer).
    if (id >= class_count) return false;
    if (i > 0 && id <= out.influence[i - 1].first) return false;
    if (!std::isfinite(value) || value <= 0.0) return false;
  }

  std::uint32_t migration_count = 0;
  if (!r.get(out.migrations_executed) || !r.get(migration_count)) return false;
  // The encoder never retains more than the cap, and the total counts
  // every entry the bounded history ever held.
  if (migration_count > Governor::kMigrationHistoryCap ||
      out.migrations_executed < migration_count) {
    return false;
  }
  constexpr std::size_t kEntryBytes =
      sizeof(std::uint64_t) + sizeof(std::uint32_t) +
      2 * sizeof(std::uint16_t) + 2 * sizeof(double) + sizeof(std::uint64_t);
  if (static_cast<std::uint64_t>(migration_count) * kEntryBytes >
      r.remaining()) {
    return false;
  }
  out.migrations.assign(migration_count, {});
  std::uint64_t prev_epoch = 0;
  for (SnapshotInfo::Migration& m : out.migrations) {
    if (!r.get(m.epoch) || !r.get(m.thread) || !r.get(m.from) ||
        !r.get(m.to) || !r.get(m.gain_bytes) || !r.get(m.sim_cost_seconds) ||
        !r.get(m.prefetched_bytes)) {
      return false;
    }
    // The history is chronological and every executed move names two
    // distinct live nodes, a real thread, and a positive planner gain
    // (the execution stage records nothing else); the thread bound also
    // caps the cooldown-stamp table restore rebuilds.
    if (m.epoch < prev_epoch || m.epoch > out.epochs_seen) return false;
    prev_epoch = m.epoch;
    if (m.thread >= kMaxSnapshotThreads) return false;
    if (m.from == m.to || m.from == kInvalidNode || m.to == kInvalidNode) {
      return false;
    }
    if (!std::isfinite(m.gain_bytes) || m.gain_bytes <= 0.0) return false;
    if (!std::isfinite(m.sim_cost_seconds) || m.sim_cost_seconds < 0.0) {
      return false;
    }
  }

  std::uint8_t lease_flag = 0;
  if (!r.get(lease_flag) || lease_flag > 1u) return false;
  out.has_lease = lease_flag != 0;
  if (out.has_lease) {
    SnapshotInfo::Lease& l = out.lease;
    if (!r.get(l.tenant) || !r.get(l.tier) || !r.get(l.weight) ||
        !r.get(l.granted_budget) || !r.get(l.fair_share) || !r.get(l.floor) ||
        !r.get(l.borrowed_epochs) || !r.get(l.lent_epochs)) {
      return false;
    }
    // A lease with a non-positive weight or a NaN grant would wedge the
    // next arbitration round the same way a NaN budget wedges the
    // controller: corruption, reject.
    if (!std::isfinite(l.weight) || l.weight <= 0.0) return false;
    if (!sane(l.granted_budget) || !sane(l.fair_share) || !sane(l.floor)) {
      return false;
    }
    if (l.floor > l.granted_budget && l.granted_budget > 0.0) {
      return false;  // the arbiter never grants below the floor
    }
  }

  std::uint64_t n = 0;
  if (!r.get(n)) return false;
  if (n != 0 && (n > r.remaining() / sizeof(double) / n)) return false;
  SquareMatrix m(static_cast<std::size_t>(n));
  for (double& v : m.raw()) {
    if (!r.get(v)) return false;
    // A NaN/inf cell would poison every distance the warm-started governor
    // computes against this map.
    if (!std::isfinite(v)) return false;
  }
  if (!r.exhausted()) return false;
  out.tcm = std::move(m);
  return true;
}

// --- SnapshotWriter -----------------------------------------------------------

SnapshotWriter::SnapshotWriter() : worker_([this] { worker_loop(); }) {}

SnapshotWriter::~SnapshotWriter() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  worker_.join();
}

void SnapshotWriter::save_async(const std::string& path, const Governor& gov,
                                const SquareMatrix& tcm) {
  // Encode outside the lock: the caller owns the governor/plan state, and
  // the worker never touches back_.
  back_.clear();
  SnapshotAccess::encode(gov, tcm, back_);
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (has_pending_) ++coalesced_;  // still queued: the newer state wins
    pending_path_ = path;
    pending_.swap(back_);  // capacities circulate between the two slots
    has_pending_ = true;
    ++submitted_;
  }
  work_cv_.notify_one();
}

void SnapshotWriter::append_async(const std::string& path,
                                  std::string_view line) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    append_path_ = path;
    append_pending_.append(line);
    has_append_ = true;
    ++appended_;
  }
  work_cv_.notify_one();
}

void SnapshotWriter::flush() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk,
                [this] { return !has_pending_ && !has_append_ && !writing_; });
}

std::uint64_t SnapshotWriter::submitted() const noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  return submitted_;
}

std::uint64_t SnapshotWriter::completed() const noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  return completed_;
}

std::uint64_t SnapshotWriter::coalesced() const noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  return coalesced_;
}

std::uint64_t SnapshotWriter::appended() const noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  return appended_;
}

std::uint64_t SnapshotWriter::append_writes() const noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  return append_writes_;
}

bool SnapshotWriter::all_ok() const noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  return all_ok_;
}

void SnapshotWriter::worker_loop() {
  std::vector<std::uint8_t> front;   // worker-owned write buffer
  std::string append_front;          // worker-owned append batch
  std::string path;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    work_cv_.wait(lk, [this] { return has_pending_ || has_append_ || stop_; });
    if (!has_pending_ && !has_append_) break;  // stop with nothing queued
    if (has_pending_) {
      path = std::move(pending_path_);
      front.swap(pending_);
      has_pending_ = false;
      writing_ = true;
      lk.unlock();
      const bool ok = write_file(path, front);
      lk.lock();
      writing_ = false;
      ++completed_;
      if (!ok) all_ok_ = false;
    }
    if (has_append_) {
      path = append_path_;
      append_front.clear();
      append_front.swap(append_pending_);  // capacity circulates back on swap
      has_append_ = false;
      writing_ = true;
      lk.unlock();
      bool ok = false;
      {
        std::ofstream f(path, std::ios::binary | std::ios::app);
        if (f) {
          f.write(append_front.data(),
                  static_cast<std::streamsize>(append_front.size()));
          ok = static_cast<bool>(f);
        }
      }
      lk.lock();
      writing_ = false;
      ++append_writes_;
      if (!ok) all_ok_ = false;
    }
    idle_cv_.notify_all();
  }
}

}  // namespace djvm
