// Correlation-driven thread placement and migration planning.
//
// This module implements the paper's *intended use* of the profiles (its
// stated future work and the "Global Load Balancer" box of Fig. 2): consume
// the thread correlation map and the sticky-set footprints to (a) compute a
// locality-aware thread-to-node placement and (b) propose profitable
// migrations whose locality gain outweighs the modeled migration cost.
// It is an extension beyond the paper's measured claims and is flagged as
// such in DESIGN.md.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "common/types.hpp"
#include "migration/cost_model.hpp"

namespace djvm {

/// A thread-to-node assignment.
struct Placement {
  std::vector<NodeId> node_of_thread;

  [[nodiscard]] std::uint32_t threads() const noexcept {
    return static_cast<std::uint32_t>(node_of_thread.size());
  }
  [[nodiscard]] std::vector<std::uint32_t> loads(std::uint32_t nodes) const;
};

/// Baseline: thread i -> node i % nodes.
[[nodiscard]] Placement round_robin_placement(std::uint32_t threads, std::uint32_t nodes);

/// Pads (or truncates) a live thread->node walk to `dim` map slots.  Slots
/// past the walked threads read kInvalidNode, which the planner treats as
/// *unplaced*: such a slot can neither migrate nor occupy a node's capacity.
/// The facade's influence-placement and planner paths both assemble their
/// Placement through this (the TCM's dimension is the configured thread
/// count, which may exceed the threads actually spawned).
[[nodiscard]] Placement assemble_placement(std::span<const NodeId> placed,
                                           std::size_t dim);

/// Bytes of pairwise shared data (TCM cells) crossing node boundaries under
/// `p` — the communication-cost objective the balancer minimizes.
[[nodiscard]] double remote_shared_bytes(const SquareMatrix& tcm, const Placement& p);

/// Bytes of pairwise shared data kept node-local under `p`.
[[nodiscard]] double local_shared_bytes(const SquareMatrix& tcm, const Placement& p);

/// Greedy correlation clustering: repeatedly merge the thread pair/cluster
/// with the largest shared volume subject to a per-node capacity of
/// ceil(threads / nodes) (+ `slack`), then assign clusters to nodes by
/// first-fit decreasing.  Deterministic.
[[nodiscard]] Placement correlation_placement(const SquareMatrix& tcm,
                                              std::uint32_t nodes,
                                              std::uint32_t slack = 0);

/// One proposed migration.
struct MigrationSuggestion {
  ThreadId thread = kInvalidThread;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  double gain_bytes = 0.0;   ///< cross-node shared bytes converted to local
  SimTime cost = 0;          ///< modeled migration cost (with prefetch)
  double score = 0.0;        ///< gain normalized by cost
};

/// Proposes migrations that move each thread toward its highest-affinity
/// node when the locality gain (in bytes, per the TCM) beats the modeled
/// migration cost converted to bytes via the network byte rate.  Respects
/// node capacity ceil(threads/nodes) + slack.  Suggestions are ordered by
/// descending score.
///
/// Plans are *batch-consistent*: each accepted suggestion updates the
/// planner's node loads and per-node affinities, so later candidates see
/// earlier moves — capacity is respected after the batch applies (a move
/// both frees a slot at its source and takes one at its target), affinity
/// is scored against where co-accessors will be rather than where they were
/// (two partner threads cannot swap past each other chasing each other's
/// old node), and no two suggestions move the same thread.  An executor
/// applying only a prefix of the batch (score order, per-epoch cap) can
/// transiently exceed a node's capacity by at most the moves it skipped; the
/// slack term absorbs that.
[[nodiscard]] std::vector<MigrationSuggestion> plan_migrations(
    const SquareMatrix& tcm, const Placement& current,
    std::span<const ClassFootprint> footprints,
    std::span<const std::uint64_t> context_bytes, const MigrationCostModel& model,
    std::uint32_t nodes, double bytes_per_ns, std::uint32_t slack = 0);

}  // namespace djvm
