// Per-epoch JSONL metrics timeline.
//
// One JSON object per governed epoch, appended to a flat file through the
// async SnapshotWriter: a week of epochs becomes a greppable, plottable log
// (jq, pandas, grafana-agent tailing) instead of state that died with the
// process.  Schema (stable keys; consumers must ignore unknown keys):
//
//   {"epoch":N, "tenant":T, "state":"sentinel", "action":"none",
//    "overhead":0.018, "offender":2, "offender_overhead":0.031,
//    "node_overhead":[...], "densify_seconds":..., "build_seconds":...,
//    "intervals":N, "entries":N, "rel_distance":0.04|null,
//    "rate_changed":bool, "resampled_objects":N,
//    "retained_objects":N, "retained_readers":N, "dropped_objects":N,
//    "ring":{"published":N, "entries":N, "backpressure":N, "dropped":N},
//    "traffic":{"object-data":B, "oal":B, "control":B, "migration":B},
//    "faults":{"degraded":bool, "lost_nodes":[N,...],
//      "dropped":{per-category msgs}, "retries":{per-category attempts},
//      "backoff_ns":NS},
//    "migration_seconds":..., "migrations":[{"thread":T, "from":N, "to":N,
//      "gain_bytes":B, "score":S, "sim_cost":NS, "prefetched_bytes":B,
//      "homes_migrated":N, "executed":bool}, ...],
//    "lease":null|{"tenant":T, "tier":N, "weight":W, "granted":G,
//      "fair_share":F, "floor":F, "borrowed_epochs":N, "lent_epochs":N},
//    "influence_top":[{"class":"name","share":0.4}, ...]}
//
// A multi-tenant cluster coordinator additionally appends one arbitration
// line per round to its own JSONL log:
//
//   {"epoch":N, "global_budget":G, "granted_total":T, "lenders":N,
//    "borrowers":N, "decision_seconds":S, "cluster_overhead":O,
//    "leases":[{lease object as above}, ...]}
#pragma once

#include <string>

#include "governor/arbiter.hpp"
#include "profiling/correlation_daemon.hpp"
#include "runtime/klass.hpp"

namespace djvm {

/// Influence entries per timeline line (largest shares first).
inline constexpr std::size_t kTimelineTopK = 4;

/// Renders one epoch as a single JSON line (trailing '\n' included).  The
/// influence_top array holds at most kTimelineTopK classes, named from the
/// registry.  `tenant` stamps the line (0 for standalone runs — the
/// pre-tenant schema plus one key; consumers ignore unknown keys).
[[nodiscard]] std::string timeline_line(const EpochResult& epoch,
                                        const Governor& governor,
                                        const KlassRegistry& registry,
                                        TenantId tenant = 0);

/// Renders one arbitration round as a single JSON line (trailing '\n'
/// included); `cluster_overhead` is the tenants' meters pooled after the
/// round (ClusterCoordinator::ClusterEpoch::cluster_overhead).
[[nodiscard]] std::string arbitration_line(const ArbitrationOutcome& round,
                                           double cluster_overhead);

}  // namespace djvm
