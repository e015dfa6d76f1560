// The central correlation-computing daemon (the master JVM of Fig. 2).
//
// Drains OAL log arenas from worker nodes and holds them until the epoch
// closes.  At the epoch boundary it reorganizes every pending arena into one
// CSR window (see profiling/tcm.hpp), accrues and attributes the window's
// map, merges the window into the whole-run store behind build_full(), and
// hands the map's movement plus measured costs to the profiling governor,
// which owns all rate decisions: the paper's Section II.B.2 convergence loop
// in legacy mode, or the budgeted bidirectional controller with phase
// detection in closed-loop mode (see governor/governor.hpp).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/matrix.hpp"
#include "governor/governor.hpp"
#include "net/message.hpp"
#include "profiling/ingest.hpp"
#include "profiling/oal.hpp"
#include "profiling/sampling.hpp"
#include "profiling/tcm.hpp"

namespace djvm {

/// Per-MsgCategory byte counts (indexed by static_cast<size_t>(MsgCategory)).
using CategoryBytes =
    std::array<std::uint64_t, static_cast<std::size_t>(MsgCategory::kCount)>;

/// Outcome of one daemon epoch (a TCM rebuild over newly collected records).
/// The daemon fills the map, its build costs and the governor's decision.
/// The traffic, fault and ring telemetry, like the measured costs in
/// `sample`, come from Djvm::run_epoch, which reads the network and the
/// ingest hub the daemon never sees; a standalone daemon epoch leaves them
/// zero.
struct EpochResult {
  SquareMatrix tcm;
  /// 0-based index of this epoch in the daemon's run.
  std::size_t epoch = 0;
  std::size_t intervals = 0;
  std::size_t entries = 0;
  /// Real CPU time of this window's TCM construction: ingest()'s own time
  /// plus the epoch boundary's window build, attribution, densify, whole-run
  /// merge and retention.
  double build_seconds = 0.0;
  /// The densify of the window's pair cells into the dense map alone.
  double densify_seconds = 0.0;
  /// Relative ABS distance vs the previous epoch's TCM (nullopt on the
  /// first epoch).
  std::optional<double> rel_distance;
  bool rate_changed = false;       ///< the governor moved at least one gap
  std::size_t resampled_objects = 0;
  GovernorAction action = GovernorAction::kNone;
  /// Per-class cell attribution of this epoch's window against the balancer
  /// placement handed to set_influence_placement (empty when no placement
  /// was set or the window held no cells): which classes produced the cut
  /// vs the node-local pair mass, per-(class, thread) mass for suggestion
  /// attribution, and HT-weighted remote-home mass.  The facade folds this
  /// plus the planner's suggestions into a BalancerFeedback for the
  /// governor's influence-weighted back-off scoring.
  TcmClassAttribution cells;
  /// Rolling overhead fraction after folding in this epoch's sample (the
  /// meter keeps recording even while the governor is disarmed).
  double overhead_fraction = 0.0;
  /// Worst per-node rolling fraction and its node, when per-node samples
  /// were recorded (tracked under every policy, so a cluster-governed run
  /// still exposes the hot node it is ignoring).
  std::optional<NodeId> offender;
  double offender_fraction = 0.0;
  /// Rolling per-node overhead fractions after this epoch, indexed by node
  /// (empty when no per-node samples were ever recorded).
  std::vector<double> node_fractions;
  /// Cluster-wide per-category traffic over this epoch (filled by the pump).
  CategoryBytes traffic_bytes{};
  /// Retention telemetry (zero when retention is off): whole-run store
  /// population after this epoch's merge/compact, and cumulative evictions.
  std::size_t retained_objects = 0;
  std::size_t retained_readers = 0;
  std::size_t dropped_objects = 0;
  /// Ingest-ring telemetry over this epoch, from the hub's counters (filled
  /// by the pump): arenas published and entries carried by the lanes, and
  /// publishes that found their outbound ring full (the arena is then
  /// parked producer-side and re-offered — a counted stall).
  /// ring_dropped is this epoch's growth in the hub's entries_published
  /// less its growth in entries_drained, read right after the pump's
  /// quiesced drain, so a lost entry counts once, in the epoch that lost
  /// it.  The ingest path has no drop branch, so it is structurally zero,
  /// and a nonzero value in a timeline is a bug, not a tuning problem.
  std::uint64_t ring_published = 0;
  std::uint64_t ring_entries = 0;
  std::uint64_t ring_backpressure = 0;
  std::uint64_t ring_dropped = 0;
  /// One migration the facade's execution stage ran (or would have run, for
  /// deferred/dry-run entries) this epoch.  Filled by the pump after the
  /// daemon epoch returns — the daemon itself never moves threads.
  struct MigrationEvent {
    ThreadId thread = kInvalidThread;
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    double gain_bytes = 0.0;  ///< planner locality gain
    double score = 0.0;       ///< planner gain/cost score
    SimTime sim_cost = 0;     ///< simulated cost billed to the migrant
    std::uint64_t prefetched_bytes = 0;
    std::size_t homes_migrated = 0;  ///< follow-the-thread home moves
    bool executed = false;  ///< false: deferred (cap/veto) or dry-run
  };
  std::vector<MigrationEvent> migrations;
  /// Real CPU the execution stage spent this epoch (resolution + prefetch +
  /// home migration bookkeeping); billed into the *next* epoch's overhead
  /// sample as part of the plan-and-execute carry.
  double migration_seconds = 0.0;
  /// Fault-plan transport telemetry over this epoch (all zero on a fault-free
  /// run): per-category messages the injector dropped, per-category retries
  /// the reliable transport spent, and the total backoff wait it billed into
  /// sender clocks.  Filled by the pump.
  CategoryBytes dropped_msgs{};
  CategoryBytes retries{};
  std::uint64_t backoff_ns = 0;
  /// The fully assembled overhead sample this epoch's decision ran on (the
  /// caller's measured costs plus the daemon's additions: build time and
  /// resampling carry); the governor's meter has recorded it.
  OverheadSample sample;
  /// Degraded-mode marker: true when at least one node's profiling
  /// contribution was lost this epoch (the node is dead, so its un-shipped
  /// interval slices were dropped at ingest), with the nodes named in
  /// `lost_nodes`.  The map in `tcm` is then *incomplete*, not wrong —
  /// accuracy benches compare surviving-node objects only and treat the rest
  /// as missing data.
  /// Filled by the pump (the daemon itself never sees the network).
  bool degraded = false;
  std::vector<NodeId> lost_nodes;
};

/// Long-haul retention policy for the daemon's whole-run store (see
/// TcmStore::compact).  Off by default: the store then grows with every
/// object the workload ever touches.
struct RetentionPolicy {
  /// Evict/decay objects untouched for this many epochs; 0 = retention off.
  std::uint32_t idle_epochs = 0;
  /// Stale-object byte decay per pass in [0, 1); 0 drops stale objects
  /// outright.  Decayed objects whose mass falls below one byte are dropped.
  double decay = 0.0;
  /// Run the compact pass every this many epochs (staleness accrues every
  /// epoch regardless; the period only amortizes the pass itself).
  std::uint32_t compact_period = 4;

  [[nodiscard]] bool active() const noexcept { return idle_epochs != 0; }
};

class CorrelationDaemon {
 public:
  CorrelationDaemon(SamplingPlan& plan, std::uint32_t threads);

  /// The only delivery path: drains every published arena out of `hub`
  /// (round-robin across lanes) and queues it for the next epoch, after
  /// dropping dead nodes' slices and untagging class ids past the registry.
  /// With `quiesced` (the default — the simulator's producers run on this
  /// same thread) it also collects parked and still-open arenas via
  /// take_stranded(), so an epoch boundary observes every appended entry.
  /// Pass false only when producer threads are still appending concurrently.
  /// Drained arenas are recycled back to their lanes at the next run_epoch
  /// (their slices back the epoch's map and statistics until then).  Returns
  /// the number of arenas consumed.  The daemon keeps no raw OAL history:
  /// build_full reads the whole-run store (weighted only).
  std::size_t ingest(IngestHub& hub, bool quiesced = true);

  /// Installs a liveness predicate consulted at ingest() time: arena slices
  /// whose logging node fails it are dropped before the epoch, so a killed
  /// node's un-shipped intervals die with it exactly as they did when the
  /// pump dropped its raw logs.  An empty function (the default) keeps
  /// everything and costs nothing.
  void set_node_filter(std::function<bool(NodeId)> alive) {
    node_filter_ = std::move(alive);
  }

  /// Ingested arena slices waiting for the next epoch.
  [[nodiscard]] std::size_t pending() const noexcept { return pending_slices_; }

  /// Builds this epoch's TCM from the pending arenas, compares it with the
  /// previous epoch's map, refreshes the plan's per-class epoch stats, and
  /// delegates the rate decision to the governor.  `sample` carries the
  /// epoch's measured costs, which only the pump (Djvm::run_epoch) fills;
  /// the daemon adds its build seconds and last epoch's resampling carry,
  /// and leaves the ring telemetry to the pump.  Consumes the pending
  /// arenas, merging the window into the whole-run store behind
  /// build_full().
  EpochResult run_epoch(OverheadSample sample = {});

  /// Hands the daemon the balancer's current thread-to-node placement; the
  /// next run_epoch splits the window's pair mass by owning class into cut
  /// vs local shares against it (EpochResult::cells), answered sparsely off
  /// the window's CSR arena.  An empty vector turns attribution off.
  void set_influence_placement(std::vector<NodeId> node_of_thread) {
    influence_placement_ = std::move(node_of_thread);
  }
  [[nodiscard]] const std::vector<NodeId>& influence_placement() const noexcept {
    return influence_placement_;
  }

  /// The governor owning all rate decisions for this daemon.
  [[nodiscard]] Governor& governor() noexcept { return governor_; }
  [[nodiscard]] const Governor& governor() const noexcept { return governor_; }

  /// Installs the long-haul retention policy.  Without it the whole-run
  /// store grows with every object the workload ever touches; with
  /// retention active each epoch's merge is followed by periodic compaction
  /// that evicts stale objects.  Set it before the first epoch; switching
  /// mid-run only bounds growth from that point on.
  void set_retention(RetentionPolicy policy) noexcept { retention_ = policy; }
  [[nodiscard]] const RetentionPolicy& retention() const noexcept {
    return retention_;
  }

  /// Rate control lives entirely on the governor: arm the paper's one-way
  /// convergence loop with governor().arm(GovernorConfig::legacy(t)) or the
  /// closed-loop controller with a full GovernorConfig; a governor never
  /// armed stays passive.
  [[nodiscard]] bool converged() const noexcept { return governor_.converged(); }

  /// Seeds the previous-epoch map (snapshot warm start): the next epoch's
  /// distance is computed against `tcm` instead of starting cold.  Returns
  /// false (daemon stays cold) when the map's dimension does not match this
  /// daemon's thread count — e.g. a snapshot from a differently-sized run.
  bool seed_latest(SquareMatrix tcm) {
    if (tcm.size() != threads_) return false;
    latest_ = std::move(tcm);
    have_latest_ = true;
    return true;
  }

  /// Latest epoch's TCM (empty matrix before the first epoch).
  [[nodiscard]] const SquareMatrix& latest() const noexcept { return latest_; }

  /// Builds one HT-weighted TCM over *all* entries ever ingested (less what
  /// retention evicted), for callers that want a whole-run map at the end of
  /// a run; also accumulates build-time statistics.  Every run_epoch merges
  /// its window into the whole-run store, so this merges only the
  /// unconsumed window, then accrues the store's pairs — on demand, so the
  /// cost is O(store) per call.  The raw entries are recycled after the
  /// merge, so an unweighted variant is not available (tools that need the
  /// raw OAL stream drain the Gos ingest hub themselves, before the daemon
  /// does — see Gos::ingest).
  SquareMatrix build_full();

  /// The whole-run store behind build_full() (its pending window not merged).
  [[nodiscard]] const TcmStore& store() const noexcept { return full_; }

  /// Total real seconds spent in TCM construction (Table III's rightmost
  /// column; the paper runs this on a dedicated machine so it does not add
  /// to execution time).
  [[nodiscard]] double total_build_seconds() const noexcept { return build_seconds_; }
  [[nodiscard]] std::size_t total_entries() const noexcept { return total_entries_; }
  /// Interval slices consumed over the run (the arenas are recycled, but the
  /// count survives).
  [[nodiscard]] std::size_t total_intervals() const noexcept {
    return intervals_seen_;
  }
  [[nodiscard]] std::size_t epochs_run() const noexcept { return epochs_; }

 private:
  /// Compacts one arena in place, dropping slices whose node fails the
  /// installed liveness predicate (no-op without one).
  void filter_arena(OalArena& arena) const;
  /// Reorganizes every pending arena into one CSR window.
  ReaderArena build_window();
  /// Recycles consumed pending arenas back to their lanes.
  void release_pending_arenas();

  SamplingPlan& plan_;
  std::uint32_t threads_;
  Governor governor_;
  /// Ingest state: the hub ingest() last drained (arenas are recycled to
  /// it) and the drained-but-unconsumed arenas backing the next epoch's
  /// stats.
  IngestHub* hub_ = nullptr;
  std::vector<OalArena*> pending_arenas_;
  std::size_t pending_slices_ = 0;
  /// Liveness predicate applied to arena slices at ingest() (empty = keep all).
  std::function<bool(NodeId)> node_filter_;
  /// Reorganize scratch reused by every window build.
  ArenaScratch scratch_;
  /// ingest() time already paid for the current window (a share of the
  /// next epoch's build_seconds).
  double ingest_seconds_ = 0.0;
  /// Whole-run store behind build_full(), fed by every run_epoch's window
  /// and, under retention, bounded by compact().
  TcmStore full_;
  RetentionPolicy retention_;
  std::size_t intervals_seen_ = 0;   ///< slices consumed (backs total_intervals)
  std::size_t dropped_objects_ = 0;  ///< cumulative retention evictions
  SquareMatrix latest_;
  bool have_latest_ = false;
  /// Balancer placement the per-class cell attribution is computed against
  /// (empty = attribution off).
  std::vector<NodeId> influence_placement_;

  double build_seconds_ = 0.0;
  std::size_t total_entries_ = 0;
  std::size_t epochs_ = 0;
  /// Resampling triggered by last epoch's decision; its cost is metered in
  /// the following epoch's sample (the pass runs after the decision).
  std::uint64_t carryover_resampled_ = 0;
  /// Same, attributed to the node that paid each copy visit — the node that
  /// walked its own cached copies (feeds the per-node slices of the next
  /// epoch's sample).
  std::vector<std::uint64_t> carryover_resampled_by_node_;
};

}  // namespace djvm
