#include "export/timeline.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace djvm {

namespace {

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

void escape_into(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

namespace {
void lease_into(std::string& out, const Governor::TenantLease& l) {
  out += "{\"tenant\":" + std::to_string(l.tenant);
  out += ",\"tier\":" + std::to_string(l.tier);
  out += ",\"weight\":" + num(l.weight);
  out += ",\"granted\":" + num(l.granted_budget);
  out += ",\"fair_share\":" + num(l.fair_share);
  out += ",\"floor\":" + num(l.floor);
  out += ",\"borrowed_epochs\":" + std::to_string(l.borrowed_epochs);
  out += ",\"lent_epochs\":" + std::to_string(l.lent_epochs);
  out += '}';
}
}  // namespace

std::string timeline_line(const EpochResult& epoch, const Governor& governor,
                          const KlassRegistry& registry, TenantId tenant) {
  std::string out = "{";
  out += "\"epoch\":" + std::to_string(epoch.epoch);
  out += ",\"tenant\":" + std::to_string(tenant);
  out += ",\"state\":\"";
  out += to_string(governor.state());
  out += "\",\"action\":\"";
  out += to_string(epoch.action);
  out += "\",\"overhead\":" + num(epoch.overhead_fraction);
  if (epoch.offender.has_value()) {
    out += ",\"offender\":" + std::to_string(*epoch.offender);
    out += ",\"offender_overhead\":" + num(epoch.offender_fraction);
  } else {
    out += ",\"offender\":null,\"offender_overhead\":0";
  }
  out += ",\"node_overhead\":[";
  for (std::size_t n = 0; n < epoch.node_fractions.size(); ++n) {
    if (n != 0) out += ',';
    out += num(epoch.node_fractions[n]);
  }
  out += ']';
  out += ",\"densify_seconds\":" + num(epoch.densify_seconds);
  out += ",\"build_seconds\":" + num(epoch.build_seconds);
  out += ",\"intervals\":" + std::to_string(epoch.intervals);
  out += ",\"entries\":" + std::to_string(epoch.entries);
  out += ",\"rel_distance\":";
  out += epoch.rel_distance.has_value() ? num(*epoch.rel_distance) : "null";
  out += ",\"rate_changed\":";
  out += epoch.rate_changed ? "true" : "false";
  out += ",\"resampled_objects\":" + std::to_string(epoch.resampled_objects);
  out += ",\"retained_objects\":" + std::to_string(epoch.retained_objects);
  out += ",\"retained_readers\":" + std::to_string(epoch.retained_readers);
  out += ",\"dropped_objects\":" + std::to_string(epoch.dropped_objects);

  out += ",\"ring\":{";
  out += "\"published\":" + std::to_string(epoch.ring_published);
  out += ",\"entries\":" + std::to_string(epoch.ring_entries);
  out += ",\"backpressure\":" + std::to_string(epoch.ring_backpressure);
  out += ",\"dropped\":" + std::to_string(epoch.ring_dropped);
  out += '}';

  out += ",\"traffic\":{";
  for (std::size_t c = 0; c < epoch.traffic_bytes.size(); ++c) {
    if (c != 0) out += ',';
    out += '"';
    out += to_string(static_cast<MsgCategory>(c));
    out += "\":" + std::to_string(epoch.traffic_bytes[c]);
  }
  out += '}';

  // Fault-plan telemetry: transport drops/retries per category, backoff wait,
  // and the degraded marker naming nodes whose interval slices this epoch lost.
  out += ",\"faults\":{\"degraded\":";
  out += epoch.degraded ? "true" : "false";
  out += ",\"lost_nodes\":[";
  for (std::size_t i = 0; i < epoch.lost_nodes.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(epoch.lost_nodes[i]);
  }
  out += "],\"dropped\":{";
  for (std::size_t c = 0; c < epoch.dropped_msgs.size(); ++c) {
    if (c != 0) out += ',';
    out += '"';
    out += to_string(static_cast<MsgCategory>(c));
    out += "\":" + std::to_string(epoch.dropped_msgs[c]);
  }
  out += "},\"retries\":{";
  for (std::size_t c = 0; c < epoch.retries.size(); ++c) {
    if (c != 0) out += ',';
    out += '"';
    out += to_string(static_cast<MsgCategory>(c));
    out += "\":" + std::to_string(epoch.retries[c]);
  }
  out += "},\"backoff_ns\":" + std::to_string(epoch.backoff_ns);
  out += '}';

  // Migration events: the epoch's execution stage, executed and deferred
  // alike (executed=false means planned-but-deferred or dry-run logged).
  out += ",\"migration_seconds\":" + num(epoch.migration_seconds);
  out += ",\"migrations\":[";
  for (std::size_t i = 0; i < epoch.migrations.size(); ++i) {
    const EpochResult::MigrationEvent& m = epoch.migrations[i];
    if (i != 0) out += ',';
    out += "{\"thread\":" + std::to_string(m.thread);
    out += ",\"from\":" + std::to_string(m.from);
    out += ",\"to\":" + std::to_string(m.to);
    out += ",\"gain_bytes\":" + num(m.gain_bytes);
    out += ",\"score\":" + num(m.score);
    out += ",\"sim_cost\":" + std::to_string(m.sim_cost);
    out += ",\"prefetched_bytes\":" + std::to_string(m.prefetched_bytes);
    out += ",\"homes_migrated\":" + std::to_string(m.homes_migrated);
    out += ",\"executed\":";
    out += m.executed ? "true" : "false";
    out += '}';
  }
  out += ']';

  // Budget lease, when a cluster arbiter governs this tenant.
  out += ",\"lease\":";
  if (governor.lease().has_value()) {
    lease_into(out, *governor.lease());
  } else {
    out += "null";
  }

  // Influence top-k: the classes whose correlation mass placement decisions
  // act on most, by the governor's decayed share.
  std::vector<std::pair<double, ClassId>> shares;
  for (const Klass& k : registry.all()) {
    const double s = governor.influence_share(k.id);
    if (s > 0.0) shares.emplace_back(s, k.id);
  }
  std::sort(shares.begin(), shares.end(), [](const auto& a, const auto& b) {
    return a.first > b.first || (a.first == b.first && a.second < b.second);
  });
  if (shares.size() > kTimelineTopK) shares.resize(kTimelineTopK);
  out += ",\"influence_top\":[";
  for (std::size_t i = 0; i < shares.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"class\":\"";
    escape_into(out, registry.at(shares[i].second).name);
    out += "\",\"share\":" + num(shares[i].first) + "}";
  }
  out += "]}\n";
  return out;
}

std::string arbitration_line(const ArbitrationOutcome& round,
                             double cluster_overhead) {
  std::string out = "{";
  out += "\"epoch\":" + std::to_string(round.epoch);
  out += ",\"global_budget\":" + num(round.global_budget);
  out += ",\"granted_total\":" + num(round.granted_total);
  out += ",\"lenders\":" + std::to_string(round.lenders);
  out += ",\"borrowers\":" + std::to_string(round.borrowers);
  out += ",\"decision_seconds\":" + num(round.decision_seconds);
  out += ",\"cluster_overhead\":" + num(cluster_overhead);
  out += ",\"leases\":[";
  for (std::size_t i = 0; i < round.leases.size(); ++i) {
    if (i != 0) out += ',';
    lease_into(out, round.leases[i]);
  }
  out += "]}\n";
  return out;
}

}  // namespace djvm
