#include "export/exporter.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "export/pprof.hpp"
#include "governor/governor.hpp"

namespace djvm {

namespace {

std::string thread_name(std::size_t t) {
  return "thread:" + std::to_string(t);
}

std::string node_name(std::size_t n) { return "node:" + std::to_string(n); }

/// Influence shares are fractions in [0, 1]; integer sample values need a
/// fixed point, and millionths keep six digits of the share.
std::int64_t to_millionths(double share) {
  return static_cast<std::int64_t>(std::llround(share * 1e6));
}

void json_escape_into(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
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

std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::size_t nonzero_pair_cells(const SquareMatrix& tcm) {
  std::size_t cells = 0;
  for (std::size_t i = 0; i < tcm.size(); ++i) {
    for (std::size_t j = i + 1; j < tcm.size(); ++j) {
      if (tcm.at(i, j) != 0.0) ++cells;
    }
  }
  return cells;
}

std::string class_display_name(std::uint32_t id,
                               std::span<const std::string> class_names) {
  if (id < class_names.size() && !class_names[id].empty()) {
    return class_names[id];
  }
  return "class#" + std::to_string(id);
}

std::vector<std::uint8_t> export_pprof(const SnapshotInfo& info,
                                       std::span<const std::string> class_names,
                                       PprofExportStats* stats) {
  pprof::ProfileBuilder b;
  b.add_sample_type("shared-bytes", "bytes");
  b.add_sample_type("sampling-gap", "count");
  b.add_sample_type("influence", "millionths");
  b.add_sample_type("copy-registrations", "count");
  b.add_sample_type("resample-visits", "count");
  PprofExportStats out_stats;

  // Thread-pair samples: the correlation map, one sample per nonzero cell.
  // Exactly two frames each — validators count 2-frame samples to cross
  // check against the snapshot's pair-cell count.
  for (std::size_t i = 0; i < info.tcm.size(); ++i) {
    for (std::size_t j = i + 1; j < info.tcm.size(); ++j) {
      const double w = info.tcm.at(i, j);
      if (w == 0.0) continue;
      const std::uint64_t locs[2] = {b.location_id(thread_name(i)),
                                     b.location_id(thread_name(j))};
      const std::int64_t values[1] = {
          static_cast<std::int64_t>(std::llround(w))};
      b.add_sample(locs, values);
      ++out_stats.pair_samples;
    }
  }

  // Per-class samples: the plan's gaps plus the influence table, one
  // single-frame sample per class entry.
  std::vector<double> influence_of;
  for (const auto& [id, share] : info.influence) {
    if (influence_of.size() <= id) influence_of.resize(id + 1, 0.0);
    influence_of[id] = share;
  }
  for (const SnapshotInfo::ClassGap& g : info.classes) {
    const std::uint64_t locs[1] = {
        b.location_id(class_display_name(g.id, class_names))};
    const double share =
        g.id < influence_of.size() ? influence_of[g.id] : 0.0;
    const std::int64_t values[3] = {0, g.nominal_gap, to_millionths(share)};
    b.add_sample(locs, values);
    ++out_stats.class_samples;
  }

  // Per-node samples: the cached-copy bookkeeping.
  for (std::size_t n = 0; n < info.copy_nodes.size(); ++n) {
    const std::uint64_t locs[1] = {b.location_id(node_name(n))};
    const std::int64_t values[5] = {
        0, 0, 0,
        static_cast<std::int64_t>(info.copy_nodes[n].registrations),
        static_cast<std::int64_t>(info.copy_nodes[n].resample_visits)};
    b.add_sample(locs, values);
    ++out_stats.node_samples;
  }

  if (stats != nullptr) *stats = out_stats;
  return b.encode();
}

std::string export_collapsed(const SnapshotInfo& info,
                             std::span<const std::string> class_names) {
  std::string out;
  const auto line = [&out](const std::string& stack, std::uint64_t w) {
    if (w == 0) return;
    out += stack;
    out += ' ';
    out += std::to_string(w);
    out += '\n';
  };

  // Correlation mass: one two-frame line per nonzero pair cell.
  for (std::size_t i = 0; i < info.tcm.size(); ++i) {
    for (std::size_t j = i + 1; j < info.tcm.size(); ++j) {
      const double w = info.tcm.at(i, j);
      if (w <= 0.0) continue;
      line(thread_name(i) + ";" + thread_name(j),
           static_cast<std::uint64_t>(std::llround(w)));
    }
  }

  // Governor attribution, node -> class -> action: per-node back-off depth
  // (weight = the gap multiplier the shift imposes, 2^shift) ...
  for (std::size_t n = 0; n < info.shift_nodes; ++n) {
    for (std::size_t c = 0; c < info.classes.size(); ++c) {
      const std::uint8_t shift = info.shift_at(n, c);
      if (shift == 0) continue;
      line(node_name(n) + ";" +
               class_display_name(info.classes[c].id, class_names) +
               ";action:backoff",
           std::uint64_t{1} << shift);
    }
  }
  // ... per-node cached-copy bookkeeping ...
  for (std::size_t n = 0; n < info.copy_nodes.size(); ++n) {
    line(node_name(n) + ";action:copy-register",
         info.copy_nodes[n].registrations);
    line(node_name(n) + ";action:resample",
         info.copy_nodes[n].resample_visits);
  }
  // ... and the class influence shares.
  for (const auto& [id, share] : info.influence) {
    line(class_display_name(id, class_names) + ";action:influence",
         static_cast<std::uint64_t>(std::max<std::int64_t>(
             0, to_millionths(share))));
  }
  return out;
}

std::string export_snapshot_json(const SnapshotInfo& info,
                                 std::span<const std::string> class_names) {
  std::string out = "{";
  out += "\"version\":" + std::to_string(info.version);
  out += ",\"mode\":\"";
  out += to_string(static_cast<GovernorMode>(info.mode));
  out += "\",\"state\":\"";
  out += to_string(static_cast<GovernorState>(info.state));
  out += "\",\"per_node\":";
  out += info.per_node ? "true" : "false";
  out += ",\"overhead_budget\":" + json_num(info.overhead_budget);
  out += ",\"node_budget\":" + json_num(info.node_budget);
  out += ",\"distance_threshold\":" + json_num(info.distance_threshold);
  out += ",\"hysteresis\":" + json_num(info.hysteresis);
  out += ",\"phase_spike_factor\":" + json_num(info.phase_spike_factor);
  out += ",\"epochs_seen\":" + std::to_string(info.epochs_seen);
  out += ",\"rearms\":" + std::to_string(info.rearms);

  out += ",\"classes\":[";
  for (std::size_t c = 0; c < info.classes.size(); ++c) {
    const SnapshotInfo::ClassGap& g = info.classes[c];
    if (c != 0) out += ',';
    out += "{\"id\":" + std::to_string(g.id) + ",\"name\":\"";
    json_escape_into(out, class_display_name(g.id, class_names));
    out += "\",\"nominal_gap\":" + std::to_string(g.nominal_gap);
    out += ",\"real_gap\":" + std::to_string(g.real_gap);
    out += ",\"converged_gap\":" + std::to_string(g.converged_gap);
    out += ",\"rated\":";
    out += g.rated ? "true" : "false";
    out += '}';
  }
  out += ']';

  out += ",\"copy_nodes\":[";
  for (std::size_t n = 0; n < info.copy_nodes.size(); ++n) {
    if (n != 0) out += ',';
    out += "{\"registrations\":" +
           std::to_string(info.copy_nodes[n].registrations) +
           ",\"resample_visits\":" +
           std::to_string(info.copy_nodes[n].resample_visits) + "}";
  }
  out += ']';

  out += ",\"influence\":[";
  for (std::size_t i = 0; i < info.influence.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"class\":\"";
    json_escape_into(out,
                     class_display_name(info.influence[i].first, class_names));
    out += "\",\"share\":" + json_num(info.influence[i].second) + "}";
  }
  out += ']';

  // Executed-migration history.
  out += ",\"migrations_executed\":" + std::to_string(info.migrations_executed);
  out += ",\"migrations\":[";
  for (std::size_t i = 0; i < info.migrations.size(); ++i) {
    const SnapshotInfo::Migration& m = info.migrations[i];
    if (i != 0) out += ',';
    out += "{\"epoch\":" + std::to_string(m.epoch);
    out += ",\"thread\":" + std::to_string(m.thread);
    out += ",\"from\":" + std::to_string(m.from);
    out += ",\"to\":" + std::to_string(m.to);
    out += ",\"gain_bytes\":" + json_num(m.gain_bytes);
    out += ",\"sim_cost_seconds\":" + json_num(m.sim_cost_seconds);
    out += ",\"prefetched_bytes\":" + std::to_string(m.prefetched_bytes);
    out += '}';
  }
  out += ']';

  double total_shared = 0.0;
  for (std::size_t i = 0; i < info.tcm.size(); ++i) {
    for (std::size_t j = i + 1; j < info.tcm.size(); ++j) {
      total_shared += info.tcm.at(i, j);
    }
  }
  out += ",\"tcm_dim\":" + std::to_string(info.tcm.size());
  out += ",\"pair_cells\":" + std::to_string(nonzero_pair_cells(info.tcm));
  out += ",\"total_shared_bytes\":" + json_num(total_shared);
  out += "}\n";
  return out;
}

std::string collapsed_from_stacks(std::span<const JavaStack> stacks,
                                  std::span<const std::uint64_t> weights) {
  std::string out;
  for (std::size_t t = 0; t < stacks.size(); ++t) {
    const std::uint64_t w = t < weights.size() ? weights[t] : 0;
    if (w == 0) continue;
    out += thread_name(t);
    for (const Frame& f : stacks[t].frames()) {
      out += ";m";
      out += std::to_string(f.method);
    }
    out += ' ';
    out += std::to_string(w);
    out += '\n';
  }
  return out;
}

}  // namespace djvm
