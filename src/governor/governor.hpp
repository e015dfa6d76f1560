// Closed-loop profiling governor (the feedback controller the paper's
// Section II.B.2 convergence loop grows into).
//
// The seed's CorrelationDaemon only ratchets rates *up* — halve gaps until
// successive TCMs agree — and then freezes forever, so a workload phase
// change after convergence silently profiles the wrong correlation map at
// the wrong cost.  The governor replaces that with a hysteresis controller
// supervising the whole profiling stack:
//
//  * over budget   -> double gaps on the classes with the worst
//                     benefit/cost score — estimated shared bytes per logged
//                     entry, weighted by each class's *balancer influence*
//                     (the share of its cells the placement decisions
//                     actually act on, fed back per epoch and remembered
//                     with exponential decay) — until the projected entry
//                     cost fits;
//  * under budget  -> while the TCM is still moving (relative ABS distance
//                     above threshold), halve every class's gap — the
//                     paper's convergence loop, now budget-gated;
//  * converged     -> instead of freezing, coarsen to a cheap *sentinel*
//                     rate and keep watching: a TCM-distance spike
//                     (phase change) restores the converged gaps and
//                     re-arms full adaptation.
//
// With per_node set, the budget is enforced against each worker node's own
// overhead fraction (profiling cost a node pays over that node's application
// progress): the back-off targets the classes dominating the *worst
// offending node's* cost via per-(node, class) gap shifts in the sampling
// plan, tightening stays cluster-wide but requires *every* node under
// budget, and shifts decay once their node has cooled.  This is the paper's
// locally-paid cost model (each node runs its own access checks, OAL
// shipping, and resampling) made explicit in the controller.
//
// A legacy mode reproduces the seed daemon's one-way rate decisions
// (halve-all-until-agreement, then freeze); arm it with
// GovernorConfig::legacy(threshold) through the same arm() entry point as
// the closed loop.  One deliberate accounting difference: resampled-object
// counts now report only objects of classes whose gap actually moved, where
// the seed revisited the whole heap.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "governor/overhead_meter.hpp"
#include "profiling/sampling.hpp"

namespace djvm {

struct BalancerFeedback;  // balance/balancer_feedback.hpp

/// How the governor is driving the sampling plan.
enum class GovernorMode : std::uint8_t {
  kDisarmed,    ///< passive: epochs are observed but rates never change
  kLegacyOneWay,///< seed behaviour: tighten-only, freeze on convergence
  kClosedLoop,  ///< budgeted bidirectional control with phase detection
};

/// Controller state (kConverged is terminal only in legacy mode).
enum class GovernorState : std::uint8_t {
  kIdle,       ///< disarmed / before the first epoch
  kAdapting,   ///< chasing convergence under the budget
  kConverged,  ///< legacy terminal state
  kSentinel,   ///< converged; watching a cheap sentinel rate for phase change
};

/// What the governor did this epoch (one action per epoch keeps the loop
/// stable; the hysteresis dead-band prevents tighten/back-off oscillation).
enum class GovernorAction : std::uint8_t {
  kNone,
  kTighten,   ///< halved gaps (rate up)
  kBackOff,   ///< doubled gaps on worst benefit/cost classes (rate down)
  kConverge,  ///< distance under threshold; entered sentinel (or froze, legacy)
  kRearm,     ///< phase change detected; restored converged gaps, re-adapting
};

/// Stable operator-facing names (timeline JSONL, exporters); not subject to
/// enum renames.
[[nodiscard]] constexpr const char* to_string(GovernorMode m) noexcept {
  switch (m) {
    case GovernorMode::kDisarmed: return "disarmed";
    case GovernorMode::kLegacyOneWay: return "legacy-one-way";
    case GovernorMode::kClosedLoop: return "closed-loop";
  }
  return "?";
}
[[nodiscard]] constexpr const char* to_string(GovernorState s) noexcept {
  switch (s) {
    case GovernorState::kIdle: return "idle";
    case GovernorState::kAdapting: return "adapting";
    case GovernorState::kConverged: return "converged";
    case GovernorState::kSentinel: return "sentinel";
  }
  return "?";
}
[[nodiscard]] constexpr const char* to_string(GovernorAction a) noexcept {
  switch (a) {
    case GovernorAction::kNone: return "none";
    case GovernorAction::kTighten: return "tighten";
    case GovernorAction::kBackOff: return "backoff";
    case GovernorAction::kConverge: return "converge";
    case GovernorAction::kRearm: return "rearm";
  }
  return "?";
}

struct GovernorConfig {
  /// Overhead budget as a fraction of application time (0.02 = 2%).
  double overhead_budget = 0.02;
  /// Enforce the budget per worker node: back off only the classes
  /// dominating the *worst offending node's* cost (via per-node gap shifts)
  /// and tighten cluster-wide only when every node is under budget.  Off
  /// reproduces the PR 1 cluster-aggregate policy, under which one hot node
  /// can run far over budget while the average looks fine.
  bool per_node = false;
  /// Per-node overhead budget; 0 inherits overhead_budget.
  double node_budget = 0.0;
  /// Convergence threshold on relative ABS distance between epoch TCMs.
  double distance_threshold = 0.05;
  /// Dead-band half-width around the budget: tighten only below
  /// budget*(1-hysteresis), back off only above budget*(1+hysteresis).
  double hysteresis = 0.25;
  /// A relative distance above phase_spike_factor * distance_threshold
  /// while in sentinel re-arms full adaptation.
  double phase_spike_factor = 3.0;
  /// Gap doublings applied when entering sentinel (2 -> 4x coarser watch).
  std::uint32_t sentinel_coarsen_shifts = 2;
  /// Nominal gaps never exceed this (keeps the sentinel observable).
  std::uint32_t max_nominal_gap = 1u << 16;
  /// Rolling window (epochs) of the overhead meter.
  std::size_t meter_window = 4;
  /// Back-off victim scoring: kInfluenceWeighted (default) multiplies the
  /// bytes-per-entry benefit/cost score by each class's balancer influence
  /// share (fed via observe_balancer_feedback), so back-off sheds the cells
  /// the balancer ignores; kBytesPerEntry is the legacy heuristic, kept for
  /// ablation.  Until the first feedback arrives, influence scoring falls
  /// back to bytes-per-entry (there is nothing to weight by yet).
  BackoffScoring scoring = BackoffScoring::kInfluenceWeighted;
  /// Exponential-decay memory of the influence table: each observation
  /// folds in as share_new = decay * share_old + (1 - decay) * observed, so
  /// one quiet epoch cannot zero a class the balancer has been acting on.
  double influence_decay = 0.5;
  OverheadCosts costs{};
  /// Run the seed's one-way convergence loop (tighten-only, freeze on
  /// convergence) instead of the closed-loop controller; only
  /// distance_threshold applies.  Build with GovernorConfig::legacy().
  bool legacy_one_way = false;

  /// Config for the paper's Section II.B.2 one-way convergence loop at
  /// `threshold`.
  [[nodiscard]] static GovernorConfig legacy(double threshold) {
    GovernorConfig cfg;
    cfg.distance_threshold = threshold;
    cfg.legacy_one_way = true;
    return cfg;
  }

  /// The budget one node is held to (node_budget unless unset).
  [[nodiscard]] double effective_node_budget() const noexcept {
    return node_budget > 0.0 ? node_budget : overhead_budget;
  }
};

class Governor {
 public:
  explicit Governor(SamplingPlan& plan, GovernorConfig cfg = {});

  // --- arming ---------------------------------------------------------------
  /// Arms the controller under `cfg` — closed-loop control by default, the
  /// seed-compatible one-way convergence loop when cfg.legacy_one_way (see
  /// GovernorConfig::legacy).  Re-arming resets controller state and
  /// restarts the overhead meter (the new config may change its cost model
  /// or window).
  void arm(GovernorConfig cfg);

  [[nodiscard]] GovernorMode mode() const noexcept { return mode_; }
  [[nodiscard]] GovernorState state() const noexcept { return state_; }
  [[nodiscard]] bool armed() const noexcept { return mode_ != GovernorMode::kDisarmed; }
  /// True once the TCM has settled (legacy kConverged or sentinel watch).
  [[nodiscard]] bool converged() const noexcept {
    return state_ == GovernorState::kConverged || state_ == GovernorState::kSentinel;
  }

  // --- the per-epoch control step -------------------------------------------
  struct EpochOutcome {
    GovernorAction action = GovernorAction::kNone;
    bool rate_changed = false;
    std::size_t resampled_objects = 0;
    /// Rolling overhead fraction after folding in this epoch's sample.
    double overhead_fraction = 0.0;
    /// Worst per-node rolling fraction and the node carrying it (unset when
    /// no per-node samples have been recorded; filled in every mode so
    /// benches can watch per-node cost even under the cluster-wide policy).
    std::optional<NodeId> offender;
    double offender_fraction = 0.0;
  };

  /// Called once per daemon epoch with the TCM movement (nullopt on the
  /// first epoch) and the epoch's measured costs.  Per-class benefit/cost
  /// inputs are read from the plan's epoch stats (see
  /// SamplingPlan::epoch_stats), which the daemon refreshes before calling.
  EpochOutcome on_epoch(std::optional<double> rel_distance,
                        const OverheadSample& sample);

  // --- balancer feedback ------------------------------------------------------
  /// Folds one epoch's per-class placement influence (exported by the
  /// balancer side, see balance/balancer_feedback.hpp) into the decayed
  /// influence table the back-off scoring reads.  Invalid feedback (an epoch
  /// with no attributable cells) is ignored rather than decaying the table —
  /// a quiet epoch is no evidence the balancer stopped caring.
  void observe_balancer_feedback(const BalancerFeedback& fb);
  /// Decayed influence share of one class in [0, inf): the fraction of the
  /// class's correlation mass the balancer acts on (0 before any feedback,
  /// and for classes the balancer has never seen).
  [[nodiscard]] double influence_share(ClassId id) const noexcept {
    const auto i = static_cast<std::size_t>(id);
    return i < influence_.size() ? influence_[i] : 0.0;
  }
  /// True once at least one valid feedback epoch has been folded in (until
  /// then influence scoring falls back to bytes-per-entry).
  [[nodiscard]] bool influence_seen() const noexcept { return influence_seen_; }

  // --- migration execution ----------------------------------------------------
  /// One executed mid-run migration, recorded by the facade's execution
  /// stage.  Persisted in snapshots (v5) so per-thread cooldowns and the
  /// executed history survive restarts alongside the influence table.
  struct ExecutedMigration {
    std::uint64_t epoch = 0;  ///< epochs_seen() when the move executed
    ThreadId thread = kInvalidThread;
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    double gain_bytes = 0.0;        ///< planner locality gain for the move
    double sim_cost_seconds = 0.0;  ///< simulated cost billed to the migrant
    std::uint64_t prefetched_bytes = 0;
  };
  /// Retained-history cap; the total counter keeps counting past it.
  static constexpr std::size_t kMigrationHistoryCap = 256;

  /// Appends one executed migration to the bounded history and stamps the
  /// thread's cooldown epoch.  Survives re-arming (it is a run log, not
  /// controller state) and is persisted by snapshots.
  void record_migration(const ExecutedMigration& m);
  /// Executed-migration history, oldest first (at most kMigrationHistoryCap).
  [[nodiscard]] const std::vector<ExecutedMigration>& migration_history()
      const noexcept {
    return migration_history_;
  }
  /// Total migrations ever recorded, including entries aged out of history.
  [[nodiscard]] std::uint64_t migrations_executed() const noexcept {
    return migrations_executed_;
  }
  /// True while `thread` sits in its post-migration cooldown: it migrated
  /// fewer than `cooldown_epochs` governor epochs ago.
  [[nodiscard]] bool in_cooldown(ThreadId thread,
                                 std::uint32_t cooldown_epochs) const noexcept;
  /// Execution-stage admission: false while the armed closed-loop
  /// controller's rolling overhead fraction sits above the back-off band
  /// (budget * (1 + hysteresis)) — the same line that triggers rate back-off
  /// parks migration work, whose wall cost lands in the very next sample.
  /// Disarmed and legacy governors never veto.
  [[nodiscard]] bool allow_migration_work() const noexcept;

  // --- tenant budget handshake ------------------------------------------------
  /// One tenant's lease from the cluster budget arbiter: identity, the grant
  /// currently governing this instance, and the arbitration bookkeeping that
  /// explains it (fair share, starvation floor, borrow/lend history).
  /// Persisted in snapshots (v7) so a recovered tenant resumes under its
  /// last grant instead of snapping back to the static config budget.
  struct TenantLease {
    TenantId tenant = 0;
    std::uint32_t tier = 0;       ///< priority tier (0 = most important)
    double weight = 1.0;          ///< fair-share weight at registration
    double granted_budget = 0.0;  ///< the arbiter's current grant (fraction)
    double fair_share = 0.0;      ///< weight-proportional slice of the ceiling
    double floor = 0.0;           ///< guaranteed minimum grant
    std::uint64_t borrowed_epochs = 0;  ///< epochs granted above fair share
    std::uint64_t lent_epochs = 0;      ///< epochs granted below fair share
  };

  /// Applies an arbiter grant: swaps the overhead budget the controller
  /// enforces *without* resetting controller state — a per-epoch grant
  /// change must not wipe convergence progress or restart the meter the way
  /// re-arming does.  The hysteresis bands, per-node inheritance
  /// (node_budget == 0), and migration admission all follow the new budget
  /// from the next on_epoch.
  void set_budget(double overhead_budget) noexcept {
    cfg_.overhead_budget = overhead_budget;
  }
  /// Installs/updates the arbiter lease (also applies its granted budget).
  void adopt_lease(const TenantLease& lease) {
    lease_ = lease;
    if (lease.granted_budget > 0.0) set_budget(lease.granted_budget);
  }
  [[nodiscard]] const std::optional<TenantLease>& lease() const noexcept {
    return lease_;
  }

  // --- degraded mode ----------------------------------------------------------
  /// Quarantines a failed node: it no longer competes for worst-offender
  /// back-off (its overhead fraction is a ghost of pre-failure samples) and
  /// it is excluded from the cluster-tighten quorum, so a dead node can
  /// neither attract per-node back-offs nor hold the whole cluster's rates
  /// hostage by never reporting "under budget" again.  Quarantine is
  /// substrate state, not convergence progress: it survives re-arming
  /// (like the migration history) and is not persisted in snapshots — a
  /// recovered run re-detects its failures.
  void quarantine_node(NodeId node);
  [[nodiscard]] bool is_quarantined(NodeId node) const noexcept {
    for (const NodeId q : quarantined_) {
      if (q == node) return true;
    }
    return false;
  }
  [[nodiscard]] const std::vector<NodeId>& quarantined_nodes() const noexcept {
    return quarantined_;
  }

  // --- observability ---------------------------------------------------------
  [[nodiscard]] OverheadMeter& meter() noexcept { return meter_; }
  [[nodiscard]] const OverheadMeter& meter() const noexcept { return meter_; }
  [[nodiscard]] const GovernorConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::size_t epochs_seen() const noexcept { return epochs_; }
  [[nodiscard]] std::size_t rearms() const noexcept { return rearms_; }
  /// Nominal gaps captured at the moment of convergence, indexed by
  /// ClassId (empty before first convergence; 0 marks a class that was not
  /// registered when the capture ran).
  [[nodiscard]] const std::vector<std::uint32_t>& converged_gaps() const noexcept {
    return converged_gaps_;
  }

  [[nodiscard]] SamplingPlan& plan() noexcept { return plan_; }
  [[nodiscard]] const SamplingPlan& plan() const noexcept { return plan_; }

 private:
  friend struct SnapshotAccess;  // snapshot.cpp (de)serializes private state

  /// Restarts the meter and wipes convergence progress; every (re)arm
  /// funnels through here.
  void reset_controller_state(GovernorState state);
  EpochOutcome legacy_step(std::optional<double> rel_distance);
  EpochOutcome closed_loop_step(std::optional<double> rel_distance,
                                bool budget_known);

  /// Worst per-node rolling fraction among non-quarantined nodes (nullopt
  /// when every sampled node is quarantined or none were sampled).
  [[nodiscard]] std::optional<NodeId> worst_live_node() const;

  /// Benefit/cost score of one class from its epoch stats: estimated shared
  /// bytes per logged entry, weighted by the class's decayed balancer
  /// influence share under kInfluenceWeighted (a small floor keeps plain
  /// bytes-per-entry as the tiebreak among zero-influence classes).
  [[nodiscard]] double backoff_score(ClassId id,
                                     const ClassEpochStats& stats) const;
  /// Doubles gaps on the worst benefit/cost classes until the projected
  /// per-entry cost fits `shrink_to` (fraction of current cost to keep).
  std::size_t back_off(double shrink_to);
  /// Per-node variant: bumps `node`'s gap *shifts* on the classes dominating
  /// that node's entry cost (read from the plan's per-node epoch stats) and
  /// resamples only the copies that node caches.
  std::size_t back_off_node(NodeId node, double shrink_to);
  /// Decrements gap shifts on nodes that have cooled well under the node
  /// budget (rolling and epoch fraction both below half of it), restoring
  /// their rates toward the cluster view.  Returns objects resampled; sets
  /// `any` when at least one shift moved.
  std::size_t relax_node_shifts(bool& any);
  /// Halves every class's gap (clamped at full sampling).  Returns objects
  /// resampled; sets `any` when at least one gap moved.
  std::size_t tighten(bool& any);
  void capture_converged_gaps();
  std::size_t enter_sentinel();
  std::size_t restore_converged_gaps();

  SamplingPlan& plan_;
  GovernorConfig cfg_;
  OverheadMeter meter_;
  GovernorMode mode_ = GovernorMode::kDisarmed;
  GovernorState state_ = GovernorState::kIdle;
  std::size_t epochs_ = 0;
  std::size_t rearms_ = 0;
  /// Spike checks skipped after a sentinel-entry rate change (the coarser
  /// rate itself moves the map once; that is not a phase change).
  std::size_t grace_ = 0;
  /// Per-node back-off epochs skipped after one fired: the resampling pass
  /// it triggers is charged to the *offending node's* next sample, so
  /// re-evaluating before that transient drains would actuate against the
  /// controller's own transition cost and spiral the gaps to the ceiling.
  std::size_t node_settle_ = 0;
  std::vector<std::uint32_t> converged_gaps_;
  /// ClassId-indexed decayed influence shares (see observe_balancer_feedback)
  /// and whether any feedback was ever folded in.
  std::vector<double> influence_;
  bool influence_seen_ = false;
  /// Executed-migration run log (bounded, oldest first), total count, and
  /// the ThreadId-indexed epoch stamp of each thread's last migration
  /// (kNeverMigrated when it never moved) for cooldown checks.
  std::vector<ExecutedMigration> migration_history_;
  std::uint64_t migrations_executed_ = 0;
  std::vector<std::uint64_t> last_migration_epoch_;
  static constexpr std::uint64_t kNeverMigrated = ~0ull;
  /// Failed nodes excluded from offender scoring and the tighten quorum
  /// (small sorted-insert list; clusters are tens of nodes).
  std::vector<NodeId> quarantined_;
  /// Arbiter lease (nullopt when standalone); persisted in snapshot v7.
  std::optional<TenantLease> lease_;
};

}  // namespace djvm
