// Thread migration engine (the "migration engine" box of Fig. 2).
//
// Packs a thread's portable Java frames, ships them to the destination node,
// reassigns the thread, and optionally resolves + prefetches its sticky set
// so the predictable post-migration remote object faults are absorbed into
// one bulk transfer.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dsm/gos.hpp"
#include "migration/cost_model.hpp"
#include "stack/javastack.hpp"
#include "sticky/resolution.hpp"

namespace djvm {

/// What actually happened during one migration.
struct MigrationOutcome {
  ThreadId thread = kInvalidThread;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  std::uint64_t context_bytes = 0;
  std::uint64_t prefetched_objects = 0;
  std::uint64_t prefetched_bytes = 0;
  ResolutionStats resolution;
  /// Sticky-set objects whose *home* followed the thread (see the
  /// max_follow_homes parameter of migrate_with_resolution).
  std::size_t homes_migrated = 0;
  SimTime sim_cost = 0;  ///< simulated time spent migrating (at the thread)
};

/// Cap on follow-the-thread home migrations per executed migration: after a
/// thread migrates, up to this many of its resolved sticky-set objects still
/// homed at the source node have their homes migrated too, batched into one
/// transfer (their affinity mass follows the migrant).
inline constexpr std::uint32_t kMaxHomeMigrations = 64;

/// Executes migrations against the GOS.
class MigrationEngine {
 public:
  explicit MigrationEngine(Gos& gos) : gos_(gos) {}

  /// Migrates `t` to `to`.  When `sticky` is non-null its objects are
  /// prefetched into the destination's cache along with the context.
  MigrationOutcome migrate(ThreadId t, NodeId to, const JavaStack& stack,
                           std::span<const ObjectId> sticky = {});

  /// Full pipeline: resolve the sticky set from stack invariants + footprint,
  /// then migrate with prefetch.  When `max_follow_homes` > 0, up to that
  /// many resolved sticky objects still homed at the *source* node also have
  /// their homes migrated to the destination in one batch — their affinity
  /// mass moves with the thread, so leaving the homes behind would turn
  /// every post-migration write flush into cross-node traffic.
  MigrationOutcome migrate_with_resolution(ThreadId t, NodeId to,
                                           const JavaStack& stack,
                                           std::span<const ObjectId> invariants,
                                           const ClassFootprint& footprint,
                                           double tolerance,
                                           std::uint32_t max_follow_homes = 0);

  [[nodiscard]] std::uint64_t migrations_done() const noexcept { return count_; }

 private:
  Gos& gos_;
  std::uint64_t count_ = 0;
};

}  // namespace djvm
