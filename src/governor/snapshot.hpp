// Binary profile snapshots: governor state + converged TCM + per-class gaps.
//
// A restarted run pays the full convergence ramp again — epochs of
// over-sampling (wasted overhead) or under-sampling (wrong correlation map)
// until the controller settles.  A snapshot taken after convergence lets the
// next run warm-start at the converged rates and seed the daemon with the
// converged TCM, the distributed analog of a single-process profiler's
// `sample.prof` dump.
//
// Format v7, host-endian, fixed-width fields (round-trips bit-exactly on
// the writing host; a foreign-endian reader rejects the file at the magic
// check and cold-starts rather than misreading it):
//   u32 magic 'DJGV'   u32 version (7)
//   u8 mode            u8 state
//   u8 flags (bit 0: per-node budget enforcement)   u8 reserved
//   f64 overhead_budget   f64 distance_threshold
//   f64 hysteresis        f64 phase_spike_factor
//   f64 node_budget (0 = inherit overhead_budget)
//   u32 sentinel_coarsen_shifts   u32 max_nominal_gap
//   u64 epochs_seen       u64 rearms
//   u32 class_count
//     class_count x { u32 class_id (entry i is class i: registry ids are
//                     dense), u32 nominal_gap, u32 real_gap,
//                     u32 converged_nominal (0 = not captured),
//                     u32 flags (bit 0: rate was ever assigned; unset =
//                     placeholder gaps, left untouched on load so the
//                     class still inherits the cluster default rate) }
//   u32 shift_node_count
//     shift_node_count x class_count x u8 per-node gap shift
//   u32 copy_node_count
//     copy_node_count x { u64 copy_registrations, u64 resample_visits }
//   u8 backoff_scoring   u8 influence_seen   u16 reserved
//   f64 influence_decay
//   u32 influence_count
//     influence_count x { u32 class_id, f64 influence }
//   u64 migrations_executed
//   u32 migration_count
//     migration_count x { u64 epoch, u32 thread,
//                         u16 from_node, u16 to_node,
//                         f64 gain_bytes, f64 sim_cost_seconds,
//                         u64 prefetched_bytes }
//   u8 has_lease (0/1)
//     if has_lease: { u32 tenant, u32 tier,
//                     f64 weight, f64 granted_budget,
//                     f64 fair_share, f64 floor,
//                     u64 borrowed_epochs, u64 lent_epochs }
//   u64 tcm_dimension
//     dimension^2 x f64 (row-major)
//   u32 crc32 over every preceding byte
//
// The copy summary records the cached-copy sampling bookkeeping — how
// many copy bits each node has registered (fault-ins, prefetches) and how
// many resampling copy visits it has paid — so a warm-started run continues
// the counters that tell where sampling cost was actually incurred.
//
// The influence table persists the governor's decayed balancer-influence
// shares (the fraction of each class's correlation mass placement decisions
// act on) plus the scoring mode and decay, so a warm-started run backs off
// the right classes immediately instead of re-learning influence from
// scratch.  Zero-influence classes are trimmed (bit-exact re-encode).
//
// The migration history persists the facade's executed-migration log
// (see Governor::record_migration): per-thread cooldown stamps are rebuilt
// from the entries on load, so a warm-started run neither re-migrates a
// thread the previous run just moved nor forgets which moves the influence
// table already credits.
//
// The tenant lease persists the arbiter grant governing the instance
// (identity, granted budget, fair share, floor, borrow/lend epoch counters)
// so a recovered tenant resumes under its last grant instead of snapping
// back to the static config budget.
//
// The CRC32 footer (common/crc32.hpp, IEEE polynomial) covers every
// preceding byte.  Files are always written temp-then-atomic-rename, so a
// crash mid-write leaves the previous good snapshot in place; the footer
// closes the remaining hole — a torn or bit-flipped blob that still *looks*
// structurally plausible is rejected at the checksum before any field is
// trusted.
//
// One reader: parse_snapshot is the only code that reads fields from
// snapshot bytes, and it accepts kSnapshotVersion alone.  decode_snapshot
// is parse_snapshot, then a check that the live class registry is large
// enough, then apply; a file of any other version is rejected like a
// corrupt one, so the run cold-starts.  Loading bills the resampling walk
// only for the classes whose gaps or shifts actually differ from the live
// plan, so restoring a snapshot into an already-warm world is not a full
// resample storm.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/matrix.hpp"
#include "governor/governor.hpp"

namespace djvm {

inline constexpr std::uint32_t kSnapshotMagic = 0x56474A44;  // "DJGV"
/// The one version encode_snapshot writes and parse_snapshot accepts.
inline constexpr std::uint32_t kSnapshotVersion = 7;

/// Serializes the governor's state, the plan's per-class gaps, and `tcm`
/// (pass the daemon's latest converged map).
[[nodiscard]] std::vector<std::uint8_t> encode_snapshot(const Governor& gov,
                                                        const SquareMatrix& tcm);

/// Restores governor state and per-class gaps into `gov` (and its plan) and
/// writes the stored map into `tcm`: parse_snapshot, then a check that the
/// live class registry holds at least the snapshot's classes (warm starts
/// re-register classes deterministically), then apply.  Returns false when
/// either check rejects the blob; `gov` and `tcm` are unchanged on failure.
[[nodiscard]] bool decode_snapshot(const std::vector<std::uint8_t>& bytes,
                                   Governor& gov, SquareMatrix& tcm);

/// File convenience wrappers.  save_snapshot writes temp-then-atomic-rename
/// (shared with the async writer), so a crash mid-save never destroys the
/// previous good file.
[[nodiscard]] bool save_snapshot(const std::string& path, const Governor& gov,
                                 const SquareMatrix& tcm);
[[nodiscard]] bool load_snapshot(const std::string& path, Governor& gov,
                                 SquareMatrix& tcm);

/// Crash recovery: tries each candidate path in order (pass newest first)
/// and restores the first snapshot that loads — missing files and blobs the
/// decoder rejects (bad magic, another version, truncation, failed
/// checksum) are skipped, not fatal.  Returns the index of the candidate
/// that loaded, or nullopt for a cold start; the governor is untouched
/// until a candidate validates fully.
[[nodiscard]] std::optional<std::size_t> recover_snapshot(
    const std::vector<std::string>& candidates, Governor& gov,
    SquareMatrix& tcm);

/// Reads a JSONL timeline (one JSON object per '\n'-terminated line, as
/// written through SnapshotWriter::append_async) for post-crash analysis.
/// A torn final line — the crash landed mid-append, leaving bytes without
/// their terminating newline — is dropped rather than returned as garbage;
/// `torn`, when non-null, reports whether that happened.  Returns every
/// complete line in file order (empty on a missing or empty file).
[[nodiscard]] std::vector<std::string> recover_timeline(
    const std::string& path, bool* torn = nullptr);

/// Registry-independent view of one parsed snapshot: what decode_snapshot
/// applies to a live governor, and what offline tooling (src/export/ and
/// tools/djvm_export) converts to pprof/flamegraph/JSON without
/// reconstructing the run.  Kept next to the encoder because this file owns
/// the format: a layout change must update encode and parse together.
struct SnapshotInfo {
  std::uint32_t version = 0;  ///< always kSnapshotVersion once parsed
  std::uint8_t mode = 0;
  std::uint8_t state = 0;
  bool per_node = false;
  double overhead_budget = 0.0;
  double distance_threshold = 0.0;
  double hysteresis = 0.0;
  double phase_spike_factor = 0.0;
  double node_budget = 0.0;
  std::uint32_t sentinel_coarsen_shifts = 0;
  std::uint32_t max_nominal_gap = 0;
  std::uint64_t epochs_seen = 0;
  std::uint64_t rearms = 0;

  struct ClassGap {
    std::uint32_t id = 0;
    std::uint32_t nominal_gap = 0;
    std::uint32_t real_gap = 0;
    std::uint32_t converged_gap = 0;  ///< 0 = not captured
    bool rated = false;               ///< flags bit 0: rate ever assigned
  };
  std::vector<ClassGap> classes;  ///< classes[i].id == i

  /// Per-(node, class) gap shifts, row-major `[node * classes.size() + c]`
  /// over `shift_nodes` rows.
  std::uint32_t shift_nodes = 0;
  std::vector<std::uint8_t> node_gap_shifts;

  struct CopyNode {
    std::uint64_t registrations = 0;
    std::uint64_t resample_visits = 0;
  };
  std::vector<CopyNode> copy_nodes;  ///< cached-copy bookkeeping

  std::uint8_t backoff_scoring = 0;
  bool influence_seen = false;
  double influence_decay = 0.0;
  /// Ascending class ids, each below classes.size().
  std::vector<std::pair<std::uint32_t, double>> influence;

  std::uint64_t migrations_executed = 0;  ///< total (counts past the cap)
  using Migration = Governor::ExecutedMigration;
  std::vector<Migration> migrations;  ///< history, chronological

  bool has_lease = false;  ///< tenant budget lease present
  using Lease = Governor::TenantLease;
  Lease lease;  ///< meaningful only when has_lease

  SquareMatrix tcm;

  /// Shift of one (node, class-index) pair; 0 past the stored table.
  [[nodiscard]] std::uint8_t shift_at(std::size_t node,
                                      std::size_t class_index) const noexcept {
    const std::size_t i = node * classes.size() + class_index;
    return node < shift_nodes && i < node_gap_shifts.size()
               ? node_gap_shifts[i]
               : 0;
  }
};

/// Parses a snapshot without touching any live state; the only code that
/// reads fields from snapshot bytes.  Returns false on bad magic, any
/// version but kSnapshotVersion, a failed CRC32 footer, truncation or
/// trailing bytes, and on any value the encoder never writes: counts that
/// cannot fit the remaining bytes, class entry i not carrying id i,
/// influence ids at or past the class count, out-of-range enums or
/// mode/state pairs, negative or non-finite knobs and map cells, a zero
/// gap on a rated class, untrimmed tables, an implausible migration or a
/// lease floor above its grant.  `out` is unspecified on failure.  Never
/// throws, never reads out of bounds.
[[nodiscard]] bool parse_snapshot(const std::vector<std::uint8_t>& bytes,
                                  SnapshotInfo& out);

/// Asynchronous double-buffered snapshot writer.
///
/// `save_snapshot` blocks the caller on the file write, so a daemon that
/// wants a crash-recovery snapshot every epoch stalls its epoch loop on
/// disk.  This writer encodes on the calling thread (the governor/plan state
/// must be read synchronously anyway) into a reused *back* buffer, then
/// hands the bytes to a background thread which owns the *front* buffer and
/// the file I/O.  At most one snapshot is queued: submitting while one is
/// still waiting replaces it (latest wins — an older crash-recovery
/// snapshot is strictly less useful than the newer one), so a slow disk
/// back-pressures into coalesced writes instead of an unbounded queue.
/// Buffer capacities circulate between the two slots, so steady-state
/// snapshotting allocates nothing.
class SnapshotWriter {
 public:
  SnapshotWriter();
  /// Drains the queued write (if any) and joins the worker.
  ~SnapshotWriter();
  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  /// Encodes governor + TCM into the back buffer and queues it for `path`.
  void save_async(const std::string& path, const Governor& gov,
                  const SquareMatrix& tcm);

  /// Queues `line` for appending to `path` (the caller includes any trailing
  /// newline).  Unlike snapshots, appends are never coalesced away — they
  /// accumulate in a buffer the worker drains in one append-mode write, so a
  /// slow disk batches lines instead of dropping them.  One append path per
  /// writer: changing `path` mid-run redirects subsequent lines.
  void append_async(const std::string& path, std::string_view line);

  /// Blocks until every submitted snapshot and appended line has been
  /// written (or coalesced away) and the worker is idle.
  void flush();

  /// Snapshots submitted via save_async.
  [[nodiscard]] std::uint64_t submitted() const noexcept;
  /// File writes actually performed.
  [[nodiscard]] std::uint64_t completed() const noexcept;
  /// Queued snapshots replaced by a newer one before reaching disk.
  [[nodiscard]] std::uint64_t coalesced() const noexcept;
  /// Lines submitted via append_async.
  [[nodiscard]] std::uint64_t appended() const noexcept;
  /// Append-mode file writes performed (≤ appended(): lines batch).
  [[nodiscard]] std::uint64_t append_writes() const noexcept;
  /// False once any completed write failed (disk full, bad path).
  [[nodiscard]] bool all_ok() const noexcept;

 private:
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< worker wakeups (pending or stop)
  std::condition_variable idle_cv_;   ///< flush wakeups (queue drained)
  std::string pending_path_;
  std::vector<std::uint8_t> pending_;  ///< queued bytes (empty = nothing queued)
  bool has_pending_ = false;
  std::string append_path_;
  std::string append_pending_;  ///< accumulated lines awaiting one append
  bool has_append_ = false;
  bool writing_ = false;
  bool stop_ = false;
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t appended_ = 0;
  std::uint64_t append_writes_ = 0;
  bool all_ok_ = true;
  std::vector<std::uint8_t> back_;  ///< encode buffer (caller side)
  std::thread worker_;
};

}  // namespace djvm
