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
//
// Each governor owns one meter, so a tenant's window holds that tenant's
// epochs alone; a cluster of tenants reads its aggregate by pooling the
// tenants' meters (pooled_rolling_fraction), not by keeping a copy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
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

  /// rolling_fraction() pooled over several meters' windows: one running
  /// sum of profiling and app seconds over every signal slot, meter by
  /// meter in the order given.  A cluster of tenants, each metered by its
  /// own governor, reads its aggregate overhead this way.
  [[nodiscard]] static double pooled_rolling_fraction(
      std::span<const OverheadMeter* const> meters);

  /// The rate-dependent share of rolling_fraction(): what gap coarsening
  /// can actually reduce (access-check CPU + resampling);
  /// excludes OverheadSample::fixed_seconds.
  [[nodiscard]] double rolling_reducible_fraction() const;

  // --- per-node views --------------------------------------------------------
  /// Number of nodes that have appeared in recorded samples (node ids are
  /// dense; a node that never appeared reads as zero overhead).
  [[nodiscard]] std::size_t node_count() const noexcept { return node_rings_.size(); }
  /// Rolling overhead fraction of one node: its profiling seconds over its
  /// own app seconds (same no-signal skipping as rolling_fraction, so an
  /// idle node never reads as the worst offender).
  [[nodiscard]] double node_rolling_fraction(NodeId node) const;
  /// The rate-dependent share of node_rolling_fraction.
  [[nodiscard]] double node_rolling_reducible_fraction(NodeId node) const;
  /// One node's most recent epoch alone.
  [[nodiscard]] double node_epoch_fraction(NodeId node) const;
  /// Node with the highest rolling fraction (ties break toward the lowest
  /// id); nullopt when no per-node samples were ever recorded.
  [[nodiscard]] std::optional<NodeId> worst_node() const;

  [[nodiscard]] std::size_t epochs() const noexcept { return epochs_; }
  [[nodiscard]] const OverheadCosts& costs() const noexcept { return costs_; }

 private:
  /// One window slot.
  struct Entry {
    double app_seconds = 0.0;
    double reducible_seconds = 0.0;  ///< shrinks when gaps coarsen
    double fixed_seconds = 0.0;      ///< rate-independent profiling CPU
    /// False when the epoch made no application progress here: no-signal
    /// slots are skipped by every fraction, never read as infinite overhead.
    bool signal = false;
  };

  /// Adds the signal slots of `ring` (the first filled_ of them) into the
  /// running sums; `pick` selects which seconds of a slot count as
  /// profiling.
  template <typename Pick>
  void add_window(const std::vector<Entry>& ring, Pick pick, double& prof,
                  double& app, bool& any) const;
  /// Σprof/Σapp over one ring's signal slots (0 without signal).
  template <typename Pick>
  [[nodiscard]] double window_fraction(const std::vector<Entry>& ring,
                                       Pick pick) const;
  /// The most recent slot of `ring`, or nullptr when it carried no signal.
  [[nodiscard]] const Entry* latest(const std::vector<Entry>& ring) const;

  OverheadCosts costs_;
  std::size_t window_;
  /// The cluster ring, plus one ring per node that shares its next_/filled_
  /// so the node windows stay epoch-aligned with it.
  std::vector<Entry> ring_;
  std::vector<std::vector<Entry>> node_rings_;
  std::size_t next_ = 0;
  std::size_t filled_ = 0;
  std::size_t epochs_ = 0;
};

}  // namespace djvm
