#include "governor/overhead_meter.hpp"

#include <algorithm>

namespace djvm {

OverheadMeter::OverheadMeter(OverheadCosts costs, std::size_t window)
    : costs_(costs), window_(std::max<std::size_t>(1, window)) {}

namespace {
double reducible_seconds(const OverheadSample& sample, const OverheadCosts& costs) {
  return sample.access_check_seconds +
         static_cast<double>(sample.resampled_objects) *
             costs.seconds_per_resampled_object;
}
}  // namespace

double OverheadMeter::profiling_seconds(const OverheadSample& sample) const {
  return reducible_seconds(sample, costs_) + sample.fixed_seconds;
}

void OverheadMeter::record(const OverheadSample& sample) {
  if (tenants_.size() <= sample.tenant) {
    tenants_.resize(sample.tenant + 1);
    for (TenantWindow& tw : tenants_) {
      if (tw.ring.empty()) tw.ring.resize(window_);
    }
  }
  TenantWindow& tw = tenants_[sample.tenant];
  last_tenant_ = sample.tenant;

  Entry& e = tw.ring[tw.next];
  e.app_seconds = sample.app_seconds;
  e.reducible_seconds = reducible_seconds(sample, costs_);
  e.fixed_seconds = sample.fixed_seconds;
  e.signal = sample.app_seconds > 0.0;

  // Grow this tenant's node table first so every node it has ever reported
  // gets a slot this epoch (zeros mean "no cost observed here"), keeping the
  // tenant's windows aligned.  Other tenants' rings are untouched: a peer's
  // idle epoch must not consume the window slot a busy tenant just filled.
  for (const NodeOverheadSample& ns : sample.nodes) {
    if (ns.node == kInvalidNode) continue;
    if (tw.node_rings.size() <= ns.node) {
      tw.node_rings.resize(ns.node + 1, std::vector<Entry>(window_));
    }
  }
  for (auto& ring : tw.node_rings) ring[tw.next] = Entry{};
  for (const NodeOverheadSample& ns : sample.nodes) {
    if (ns.node == kInvalidNode) continue;
    Entry& ne = tw.node_rings[ns.node][tw.next];
    ne.app_seconds += ns.app_seconds;
    ne.reducible_seconds +=
        ns.access_check_seconds +
        static_cast<double>(ns.resampled_objects) *
            costs_.seconds_per_resampled_object;
    ne.fixed_seconds += ns.fixed_seconds;
    ne.signal = ne.signal || ns.app_seconds > 0.0;
  }

  tw.next = (tw.next + 1) % window_;
  tw.filled = std::min(tw.filled + 1, window_);
  ++epochs_;
}

const OverheadMeter::TenantWindow* OverheadMeter::window_for(
    TenantId tenant) const {
  if (tenant >= tenants_.size()) return nullptr;
  return &tenants_[tenant];
}

// An epoch that made no application progress carries no rate signal: a cost
// observed against zero app seconds (e.g. a resampling transient charged to
// a node that sat the epoch out) used to read as an infinite fraction, so
// worst_node() elected an idle node and the governor backed off a node that
// ran nothing.  Such epochs are skipped; a window with no signal reads 0.

namespace {
/// Accumulates prof/app over the signal slots of one window; `pick` selects
/// which seconds of an entry count as profiling.  Callers divide once at the
/// end, so cross-tenant aggregates sum several windows first.
template <typename Pick>
void window_sums(const std::vector<OverheadMeter::Entry>& ring,
                 std::size_t filled, Pick pick, double& prof, double& app,
                 bool& any) {
  for (std::size_t i = 0; i < filled; ++i) {
    if (!ring[i].signal) continue;
    any = true;
    prof += pick(ring[i]);
    app += ring[i].app_seconds;
  }
}
}  // namespace

double OverheadMeter::epoch_fraction() const {
  return epoch_fraction(last_tenant_);
}

double OverheadMeter::epoch_fraction(TenantId tenant) const {
  const TenantWindow* tw = window_for(tenant);
  if (tw == nullptr || tw->filled == 0) return 0.0;
  const Entry& e = tw->ring[(tw->next + window_ - 1) % window_];
  if (!e.signal) return 0.0;
  return (e.reducible_seconds + e.fixed_seconds) / e.app_seconds;
}

double OverheadMeter::rolling_fraction() const {
  double prof = 0.0, app = 0.0;
  bool any = false;
  for (const TenantWindow& tw : tenants_) {
    window_sums(
        tw.ring, tw.filled,
        [](const Entry& e) { return e.reducible_seconds + e.fixed_seconds; },
        prof, app, any);
  }
  return any && app > 0.0 ? prof / app : 0.0;
}

double OverheadMeter::rolling_reducible_fraction() const {
  double prof = 0.0, app = 0.0;
  bool any = false;
  for (const TenantWindow& tw : tenants_) {
    window_sums(tw.ring, tw.filled,
                [](const Entry& e) { return e.reducible_seconds; }, prof, app,
                any);
  }
  return any && app > 0.0 ? prof / app : 0.0;
}

double OverheadMeter::rolling_fraction(TenantId tenant) const {
  const TenantWindow* tw = window_for(tenant);
  if (tw == nullptr) return 0.0;
  double prof = 0.0, app = 0.0;
  bool any = false;
  window_sums(
      tw->ring, tw->filled,
      [](const Entry& e) { return e.reducible_seconds + e.fixed_seconds; },
      prof, app, any);
  return any && app > 0.0 ? prof / app : 0.0;
}

std::size_t OverheadMeter::node_count() const noexcept {
  std::size_t count = 0;
  for (const TenantWindow& tw : tenants_) {
    count = std::max(count, tw.node_rings.size());
  }
  return count;
}

double OverheadMeter::node_rolling_fraction(NodeId node) const {
  double prof = 0.0, app = 0.0;
  bool any = false;
  for (const TenantWindow& tw : tenants_) {
    if (node >= tw.node_rings.size()) continue;
    window_sums(
        tw.node_rings[node], tw.filled,
        [](const Entry& e) { return e.reducible_seconds + e.fixed_seconds; },
        prof, app, any);
  }
  return any && app > 0.0 ? prof / app : 0.0;
}

double OverheadMeter::node_rolling_reducible_fraction(NodeId node) const {
  double prof = 0.0, app = 0.0;
  bool any = false;
  for (const TenantWindow& tw : tenants_) {
    if (node >= tw.node_rings.size()) continue;
    window_sums(tw.node_rings[node], tw.filled,
                [](const Entry& e) { return e.reducible_seconds; }, prof, app,
                any);
  }
  return any && app > 0.0 ? prof / app : 0.0;
}

double OverheadMeter::node_epoch_fraction(NodeId node) const {
  return node_epoch_fraction(last_tenant_, node);
}

double OverheadMeter::node_epoch_fraction(TenantId tenant, NodeId node) const {
  const TenantWindow* tw = window_for(tenant);
  if (tw == nullptr || node >= tw->node_rings.size() || tw->filled == 0) {
    return 0.0;
  }
  const Entry& e = tw->node_rings[node][(tw->next + window_ - 1) % window_];
  if (!e.signal) return 0.0;
  return (e.reducible_seconds + e.fixed_seconds) / e.app_seconds;
}

std::optional<NodeId> OverheadMeter::worst_node() const {
  std::optional<NodeId> worst;
  double worst_frac = -1.0;
  const std::size_t nodes = node_count();
  for (std::size_t n = 0; n < nodes; ++n) {
    const double f = node_rolling_fraction(static_cast<NodeId>(n));
    if (f > worst_frac) {
      worst_frac = f;
      worst = static_cast<NodeId>(n);
    }
  }
  return worst;
}

}  // namespace djvm
