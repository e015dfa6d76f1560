// Rolling profiling-overhead meter for the closed-loop governor.
//
// The profiling stack's worker-side costs are charged to thread clocks: the
// GOS's OAL log service and footprint re-arm touches, the OAL send time the
// network returned, the stack samplers' timers, and the parked arenas of
// ingest backpressure.  Djvm::run_epoch prices them once per epoch from its
// counters into an `OverheadSample`; the meter adds the heap-wide
// resampling passes each rate change pays, folds the sample into a rolling
// window, and reports the overhead *fraction* — profiling seconds per
// application second — that the governor compares against its
// operator-set budget.
//
// Worker-side costs execute on the nodes running application threads and
// count fully.  Coordinator-side work (TCM build, planner, migration
// execution, arbitration) runs on a dedicated machine in the paper's setup
// and is host-timed, so the sample carries it but the meter never budgets
// it (the paper's "does not add to execution time" assumption).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"

namespace djvm {

/// One worker node's slice of an epoch's costs.  The paper's profiling costs
/// are paid *locally* — each node runs its own access checks, ships its own
/// OALs, and resamples its own cached objects — so the governor budgets each
/// node against its own application progress, not the cluster average.
struct NodeOverheadSample {
  NodeId node = 0;
  /// Application progress of this node's threads (profiling time already
  /// subtracted, as in OverheadSample::app_seconds).
  double app_seconds = 0.0;
  /// Rate-dependent profiling CPU this node paid (OAL log service, footprint
  /// re-arms, measured OAL send time).
  double access_check_seconds = 0.0;
  /// Rate-independent profiling CPU (stack-sampling timers on this node).
  double fixed_seconds = 0.0;
  /// Resampling copy visits this node paid last epoch (it walked the
  /// objects it caches, wherever they are homed).
  std::uint64_t resampled_objects = 0;
};

/// Per-epoch cost observations, assembled by Djvm::run_epoch from its
/// counters.
struct OverheadSample {
  /// True when the pump (Djvm::run_epoch) measured the worker-side costs; it
  /// is the only writer of the cost and app-time fields.  A standalone daemon
  /// epoch passes an unmeasured, empty sample: with no measured app time the
  /// governor suspends budget enforcement on it.
  bool measured = false;
  /// Tenant the epoch belongs to.  Meters namespace their window state per
  /// (tenant, node): a shared cluster meter fed by several tenants must not
  /// let one tenant's idle epoch overwrite the signal another tenant just
  /// recorded for the same node.  Standalone runs leave this 0.
  TenantId tenant = 0;
  /// Application progress this epoch: summed per-thread simulated seconds,
  /// with the profiling costs charged to thread clocks subtracted back out
  /// (so the fraction is profiling per *application* second, not
  /// profiling/(app+profiling)).
  double app_seconds = 0.0;
  /// Worker CPU in *rate-dependent* profiling paths this epoch (OAL log
  /// service, footprint re-arm touches, OAL send time, ingest backpressure)
  /// — reducible by coarsening gaps.
  double access_check_seconds = 0.0;
  /// Worker CPU in *rate-independent* profiling this epoch (stack-sampling
  /// timers): part of the budgeted fraction, but coarsening sampling gaps
  /// cannot reduce it, so the back-off controller must not chase it.
  double fixed_seconds = 0.0;
  /// Coordinator CPU this epoch (real seconds): TCM construction plus the
  /// per-class cell attribution and any caller-supplied coordinator work
  /// (the facade's plan-and-execute stage, an arbiter's decision share).
  /// The daemon *adds* its construction time to whatever the caller
  /// pre-filled here.  Reported, never budgeted.
  double build_seconds = 0.0;
  /// Objects visited by resampling passes triggered last epoch.
  std::uint64_t resampled_objects = 0;
  /// Per-node slices of the costs above (empty when the caller only has
  /// cluster aggregates; the cluster fields are NOT derived from this list,
  /// both views are recorded as given).
  std::vector<NodeOverheadSample> nodes;
};

/// Conversion constants from event counts to seconds, calibrated to the
/// simulated testbed.
struct OverheadCosts {
  /// Seconds per object visited in a resampling pass (sampled-bit
  /// recompute: one registry lookup + modulo).
  double seconds_per_resampled_object = 15e-9;
};

/// Rolling window of per-epoch overhead samples.
class OverheadMeter {
 public:
  explicit OverheadMeter(OverheadCosts costs = {}, std::size_t window = 4);

  void record(const OverheadSample& sample);

  /// Budgeted profiling seconds implied by one sample under the cost model.
  [[nodiscard]] double profiling_seconds(const OverheadSample& sample) const;

  /// Overhead fraction of the most recent epoch alone (0 when that epoch
  /// carried no signal — see rolling_fraction).
  [[nodiscard]] double epoch_fraction() const;

  /// Overhead fraction over the rolling window:
  /// sum(profiling seconds) / sum(app seconds).  Epochs with zero
  /// application progress carry no rate signal and are skipped — cost
  /// observed against an idle epoch (e.g. a resampling transient billed to
  /// a node that ran nothing) must not read as infinite overhead, or the
  /// controller would back off a node with no work to protect.  A window
  /// with no signal at all reads 0.
  [[nodiscard]] double rolling_fraction() const;

  /// The rate-dependent share of rolling_fraction(): what gap coarsening
  /// can actually reduce (access-check CPU + resampling);
  /// excludes OverheadSample::fixed_seconds.
  [[nodiscard]] double rolling_reducible_fraction() const;

  // --- per-node views --------------------------------------------------------
  /// Number of nodes that have appeared in recorded samples (node ids are
  /// dense; a node that never appeared reads as zero overhead).
  [[nodiscard]] std::size_t node_count() const noexcept;
  /// Rolling overhead fraction of one node: its profiling seconds over its
  /// own app seconds (same no-signal skipping as rolling_fraction, so an
  /// idle node never reads as the worst offender).
  [[nodiscard]] double node_rolling_fraction(NodeId node) const;
  /// The rate-dependent share of node_rolling_fraction.
  [[nodiscard]] double node_rolling_reducible_fraction(NodeId node) const;
  /// One node's most recent epoch alone (the most recently recorded
  /// tenant's slot — exactly the pre-tenant behavior for a meter fed by a
  /// single tenant; multi-tenant callers use the tenant-qualified overload).
  [[nodiscard]] double node_epoch_fraction(NodeId node) const;
  /// Node with the highest rolling fraction (ties break toward the lowest
  /// id); nullopt when no per-node samples were ever recorded.
  [[nodiscard]] std::optional<NodeId> worst_node() const;

  // --- per-tenant views ------------------------------------------------------
  // Window state is namespaced per (tenant, node): each tenant's samples
  // advance only that tenant's rings, so an idle tenant's zero-app epochs
  // can never mark a shared node as no-signal for a busy one.  The
  // unqualified queries above aggregate across tenants (identical to the
  // old behavior when all samples carry one tenant id).
  /// Number of tenants that have appeared in recorded samples.
  [[nodiscard]] std::size_t tenant_count() const noexcept { return tenants_.size(); }
  /// One tenant's rolling overhead fraction over its own window.
  [[nodiscard]] double rolling_fraction(TenantId tenant) const;
  /// One tenant's most recent epoch alone.
  [[nodiscard]] double epoch_fraction(TenantId tenant) const;
  /// One (tenant, node) most recent epoch alone.
  [[nodiscard]] double node_epoch_fraction(TenantId tenant, NodeId node) const;

  [[nodiscard]] std::size_t epochs() const noexcept { return epochs_; }
  [[nodiscard]] const OverheadCosts& costs() const noexcept { return costs_; }

  /// One window slot (public so the window-summing helper can see it).
  struct Entry {
    double app_seconds = 0.0;
    double reducible_seconds = 0.0;  ///< shrinks when gaps coarsen
    double fixed_seconds = 0.0;      ///< rate-independent profiling CPU
    /// False when the epoch made no application progress here: no-signal
    /// slots are skipped by every fraction, never read as infinite overhead.
    bool signal = false;
  };

 private:
  /// One tenant's rolling window: a cluster ring plus per-node rings that
  /// share this tenant's next/filled so its windows stay epoch-aligned.
  /// Another tenant recording an epoch never touches these.
  struct TenantWindow {
    std::vector<Entry> ring;
    std::vector<std::vector<Entry>> node_rings;
    std::size_t next = 0;
    std::size_t filled = 0;
  };

  [[nodiscard]] const TenantWindow* window_for(TenantId tenant) const;

  OverheadCosts costs_;
  std::size_t window_;
  /// Dense per-tenant windows (tenant ids are small and dense; standalone
  /// meters hold exactly one entry for tenant 0).
  std::vector<TenantWindow> tenants_;
  /// Tenant of the most recent record(): epoch_fraction() and
  /// node_epoch_fraction(node) keep their "latest recorded epoch" meaning.
  TenantId last_tenant_ = 0;
  std::size_t epochs_ = 0;
};

}  // namespace djvm
