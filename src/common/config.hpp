// Central configuration for a DJVM simulation instance.
//
// Every experiment in the paper varies a handful of knobs: number of nodes
// and threads, per-class sampling rates (nX), whether OALs are shipped to the
// coordinator, stack-sampling gap, footprinting timer, etc.  Config gathers
// them so bench harnesses can express each table cell as a Config delta.
#pragma once

#include <cstdint>
#include <string>

#include "common/sim_clock.hpp"
#include "common/types.hpp"

namespace djvm {

/// How the access profiler treats OALs at interval close.
enum class OalTransfer : std::uint8_t {
  kDisabled,   ///< no OAL collection at all (baseline runs)
  kLocalOnly,  ///< collect OALs but never ship them (isolates CPU cost O1)
  kSend,       ///< ship OALs to the coordinator (adds network cost O2 + O3)
};

/// Stack-sample frame-content extraction strategy (paper Section III.B.3).
enum class ExtractionMode : std::uint8_t {
  kImmediate,  ///< extract slot contents on first visit
  kLazy,       ///< keep raw snapshot; extract on second visit only
};

/// Sticky-set footprinting scheduling (paper Section III.A.1).
enum class FootprintTimerMode : std::uint8_t {
  kNonstop,     ///< track during the whole interval
  kTimerBased,  ///< alternate on/off phases of kFootprintPhase length
};

/// Length of each on and off phase of timer-based footprinting.
inline constexpr SimTime kFootprintPhase = sim_ms(100);

/// How the governor scores classes when picking back-off victims.
enum class BackoffScoring : std::uint8_t {
  /// Legacy heuristic: estimated shared bytes per logged entry — treats all
  /// correlation mass as equally valuable, blind to whether the balancer
  /// would ever act on it (kept for ablation benches).
  kBytesPerEntry,
  /// Paper-thesis closing of the loop (default): weight each class's
  /// bytes-per-entry by its *placement influence* — the share of the class's
  /// pair mass the balancer actually acts on (contribution to the
  /// co-location partition cut, accepted migration-suggestion gains, remote
  /// thread-home-affinity mass), with exponential-decay memory across
  /// epochs.  Backoff then sheds the cells the balancer ignores anyway.
  kInfluenceWeighted,
};

/// Which node owns (and pays for) an object's sampling decision.
enum class CostAttribution : std::uint8_t {
  /// Legacy model: the object's *home* node owns one cluster-wide sampled
  /// bit and all resampling visits are billed to homes — a node caching
  /// many hot remote objects pays real cost the governor cannot see.
  kHomeNode,
  /// Paper model (default): every caching node decides its copy's bit under
  /// its own effective gap and pays for resampling the copies it caches.
  kCachedCopy,
};

/// Profiling-governor knobs (Config::governor).
struct GovernorKnobs {
  /// Arm the closed-loop governor (budgeted bidirectional rate control with
  /// phase detection) when the profiling config is applied.  Off by default:
  /// the legacy one-way loop stays opt-in via
  /// governor().arm(GovernorConfig::legacy(threshold)).  The armed
  /// governor enforces the budget per worker node (Atys-style bounded local
  /// cost) and scores back-off victims by balancer influence; arm a
  /// GovernorConfig directly for the cluster-aggregate policy or the
  /// bytes-per-entry heuristic.
  bool enabled = false;
  /// Overhead budget as a fraction of application time (0.02 = 2%); each
  /// node is held to the same fraction of its own application time.
  double budget = 0.02;
};

/// Long-haul retention knobs for the daemon's whole-run TCM store
/// (Config::retention; see TcmStore::compact).
struct RetentionKnobs {
  /// Evict or decay objects untouched for this many epochs (0 = retention
  /// off, the unbounded pre-retention behavior).
  std::uint32_t idle_epochs = 0;
  /// Stale-object byte decay per retention pass in [0, 1); 0 drops stale
  /// objects outright.
  double decay = 0.0;
  /// Run the retention compact pass every this many epochs.
  std::uint32_t compact_period = 4;
};

/// Observability-export knobs (Config::export_; the trailing underscore
/// dodges the keyword).
struct ExportKnobs {
  /// When non-empty, every Djvm::run_epoch() hands the fresh governor
  /// state + TCM to a background double-buffered snapshot writer targeting
  /// this path (crash-recovery snapshots without stalling the epoch loop;
  /// a slow disk coalesces queued snapshots, latest wins).
  std::string snapshot_path;
  /// When non-empty, every Djvm::run_epoch() appends one JSON metrics
  /// line (see export/timeline.hpp for the schema) to this path through the
  /// same async writer — the epoch loop never blocks on the log disk.  The
  /// file is truncated at construction, so each run starts a fresh log.
  std::string timeline_path;
};

/// Mid-run migration-execution knobs (Config::balance): the execution stage
/// of Djvm::run_epoch, which applies the migration planner's
/// top-scoring suggestions batched per epoch instead of only scoring them
/// for governor influence.
struct BalanceKnobs {
  /// Suggestions executed per governed epoch; 0 (default) disables the
  /// execution stage entirely — the planner still runs for influence
  /// scoring, the PR 5 behavior.
  std::uint32_t max_migrations_per_epoch = 0;
  /// Minimum planner score (locality gain over modeled migration cost) a
  /// suggestion needs before it executes; suggestions already require
  /// gain > cost (score > 1), so this adds safety margin on top.
  double min_score = 1.25;
  /// Epochs a migrated thread sits out before it may migrate again
  /// (dampens planner oscillation between near-equal placements).
  std::uint32_t cooldown_epochs = 4;
  /// Ablation: plan, score, and apply the cooldown/cap/min-score filters
  /// but execute nothing — reproduces the PR 5-era influence-only loop
  /// while paying the same planner cost as the executing run.
  bool dry_run = false;
};

/// Fault-injection and reliable-transport knobs (Config::faults; see
/// net/faults.hpp).  Every stochastic decision derives from `seed` alone, so
/// one seed reproduces a bit-identical fault schedule — a failure seen in CI
/// replays locally from the same Config.
struct FaultKnobs {
  /// Attach the fault injector to the Network.  Off by default: with no
  /// injector attached, every transport path is bit-identical to the
  /// fault-free build (no RNG draws, no retry arithmetic).
  bool enabled = false;
  /// Seed for the fault schedule (independent of the workload seed, so
  /// faults can be varied against a fixed workload and vice versa).
  std::uint64_t fault_seed = 0xFA175EEDULL;
  /// Per-category message drop probability in [0, 1), indexed like
  /// MsgCategory (object-data, oal, control, migration).
  double drop_object_data = 0.0;
  double drop_oal = 0.0;
  double drop_control = 0.0;
  double drop_migration = 0.0;
  /// Probability a non-local message pays a latency spike, and its size.
  double spike_probability = 0.0;
  SimTime spike_ns = 0;
  /// Uniform extra jitter in [0, jitter_ns) added to each spike.
  SimTime jitter_ns = 0;
  /// Per-(node, epoch) probability the node spends the epoch stalled;
  /// every message it sends or receives pays `stall_ns` extra.
  double stall_probability = 0.0;
  SimTime stall_ns = 0;
  /// Timed full-node failure: at epoch `kill_epoch`, `kill_node` dies (all
  /// its messages drop until the run ends).  kInvalidNode = never.
  NodeId kill_node = kInvalidNode;
  std::uint64_t kill_epoch = ~0ull;
  /// Partition window [partition_begin, partition_end): nodes < partition_cut
  /// cannot reach nodes >= partition_cut and vice versa.
  std::uint64_t partition_begin = ~0ull;
  std::uint64_t partition_end = 0;
  NodeId partition_cut = 0;
  /// Reliable-transport policy: attempts beyond the first for round trips
  /// and migration/snapshot control messages; backoff doubles from
  /// `retry_backoff_ns` per retry and the wait is billed into the sender's
  /// overhead sample.
  std::uint32_t max_retries = 4;
  SimTime retry_backoff_ns = sim_us(200);
};

/// Lock-free OAL ingest knobs (Config::ingest; see profiling/ingest.hpp).
/// The Gos builds its IngestHub from these; the arena transport is the only
/// OAL hand-off.
struct IngestKnobs {
  /// Entries per log arena.  Larger arenas amortize the ring hand-off
  /// further but delay delivery of a slow thread's entries until flush.
  std::uint32_t arena_entries = 4096;
  /// Arenas per ring (outbound and recycled each); rounds up to a power of
  /// two.  Depth bounds how far a lane can run ahead of the daemon before
  /// backpressure parks arenas producer-side.
  std::uint32_t ring_depth = 8;
};

/// Tenant identity knobs (Config::tenant): how this Djvm instance presents
/// itself to a cluster-level budget arbiter.  Defaults describe a standalone
/// single-tenant run; the ClusterCoordinator fills them in per tenant.
struct TenantKnobs {
  /// Tenant identifier; 0 for standalone runs.
  TenantId id = 0;
  /// Human-readable name for timelines and logs (empty = "tenant-<id>").
  std::string name;
  /// Priority tier for budget arbitration: lower tiers borrow first and are
  /// reclaimed from last (0 = most important).
  std::uint32_t tier = 0;
  /// Fair-share weight within the arbiter's global budget (relative to the
  /// other registered tenants' weights).
  double weight = 1.0;
};

/// Cluster budget-arbitration knobs (ArbiterKnobs; see governor/arbiter.hpp
/// for the fixed lending policy).  Not nested in Config — one arbiter spans
/// many tenant Configs.
struct ArbiterKnobs {
  /// Global overhead ceiling across all tenants, as a fraction of cluster
  /// application time (the sum of per-tenant grants never exceeds this).
  double global_budget = 0.02;
};

/// Central configuration.  Everything in the tree reads and writes the
/// nested knob names.
struct Config {
  // --- cluster shape -------------------------------------------------------
  std::uint32_t nodes = 8;
  std::uint32_t threads = 8;
  std::uint64_t seed = 42;

  // --- correlation tracking ------------------------------------------------
  OalTransfer oal_transfer = OalTransfer::kDisabled;
  /// Sampling rate expressed as the paper's nX notation: objects per page.
  /// 0 means "full sampling" (gap 1).  The per-class gap is derived as
  /// nearest_prime(page / (instance_size * rate)).
  std::uint32_t sampling_rate_x = 0;
  /// Convergence threshold on relative ABS distance for the adaptive
  /// rate controller.
  double adapt_threshold = 0.05;
  /// Who owns a shared object's sampling decision — the reading node under
  /// kCachedCopy, the object's home under kHomeNode — and pays its
  /// resampling cost (see CostAttribution; kHomeNode reproduces the pre-fix
  /// misattribution for ablation benches).  Read once, by Djvm's
  /// constructor, before the heap holds any object.
  CostAttribution cost_attribution = CostAttribution::kCachedCopy;

  // --- profiling governor --------------------------------------------------
  GovernorKnobs governor{};

  // --- migration execution -------------------------------------------------
  BalanceKnobs balance{};

  // --- observability -------------------------------------------------------
  ExportKnobs export_{};
  RetentionKnobs retention{};

  // --- OAL ingest path -----------------------------------------------------
  IngestKnobs ingest{};

  // --- multi-tenant identity -----------------------------------------------
  TenantKnobs tenant{};

  // --- fault injection / reliable transport --------------------------------
  FaultKnobs faults{};

  // --- stack sampling ------------------------------------------------------
  bool stack_sampling = false;
  SimTime stack_sampling_gap = sim_ms(16);
  ExtractionMode extraction = ExtractionMode::kLazy;

  // --- sticky-set footprinting --------------------------------------------
  bool footprinting = false;
  FootprintTimerMode footprint_timer = FootprintTimerMode::kTimerBased;
  /// Re-arm period for repeated in-interval tracking of sampled objects.
  SimTime footprint_rearm = sim_ms(10);

  // --- simulated machine ---------------------------------------------------
  SimCosts costs{};
};

}  // namespace djvm
