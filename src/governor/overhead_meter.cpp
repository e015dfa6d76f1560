#include "governor/overhead_meter.hpp"

#include <algorithm>

namespace djvm {

OverheadMeter::OverheadMeter(OverheadCosts costs, std::size_t window)
    : costs_(costs), window_(std::max<std::size_t>(1, window)), ring_(window_) {}

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
  Entry& e = ring_[next_];
  e.app_seconds = sample.app_seconds;
  e.reducible_seconds = reducible_seconds(sample, costs_);
  e.fixed_seconds = sample.fixed_seconds;
  e.signal = sample.app_seconds > 0.0;

  // Grow the node table first so every node ever reported gets a slot this
  // epoch (zeros mean "no cost observed here"), keeping the windows aligned.
  for (const NodeOverheadSample& ns : sample.nodes) {
    if (ns.node == kInvalidNode) continue;
    if (node_rings_.size() <= ns.node) {
      node_rings_.resize(ns.node + 1, std::vector<Entry>(window_));
    }
  }
  for (auto& ring : node_rings_) ring[next_] = Entry{};
  for (const NodeOverheadSample& ns : sample.nodes) {
    if (ns.node == kInvalidNode) continue;
    Entry& ne = node_rings_[ns.node][next_];
    ne.app_seconds += ns.app_seconds;
    ne.reducible_seconds +=
        ns.access_check_seconds +
        static_cast<double>(ns.resampled_objects) *
            costs_.seconds_per_resampled_object;
    ne.fixed_seconds += ns.fixed_seconds;
    ne.signal = ne.signal || ns.app_seconds > 0.0;
  }

  next_ = (next_ + 1) % window_;
  filled_ = std::min(filled_ + 1, window_);
  ++epochs_;
}

// An epoch that made no application progress carries no rate signal: a cost
// observed against zero app seconds (e.g. a resampling transient charged to
// a node that sat the epoch out) used to read as an infinite fraction, so
// worst_node() elected an idle node and the governor backed off a node that
// ran nothing.  Such epochs are skipped; a window with no signal reads 0.

template <typename Pick>
void OverheadMeter::add_window(const std::vector<Entry>& ring, Pick pick,
                               double& prof, double& app, bool& any) const {
  for (std::size_t i = 0; i < filled_; ++i) {
    if (!ring[i].signal) continue;
    any = true;
    prof += pick(ring[i]);
    app += ring[i].app_seconds;
  }
}

const OverheadMeter::Entry* OverheadMeter::latest(
    const std::vector<Entry>& ring) const {
  if (filled_ == 0) return nullptr;
  const Entry& e = ring[(next_ + window_ - 1) % window_];
  return e.signal ? &e : nullptr;
}

namespace {
double fraction(double prof, double app, bool any) {
  return any && app > 0.0 ? prof / app : 0.0;
}

constexpr auto kAll = [](const auto& e) {
  return e.reducible_seconds + e.fixed_seconds;
};
constexpr auto kReducible = [](const auto& e) { return e.reducible_seconds; };
}  // namespace

template <typename Pick>
double OverheadMeter::window_fraction(const std::vector<Entry>& ring,
                                      Pick pick) const {
  double prof = 0.0, app = 0.0;
  bool any = false;
  add_window(ring, pick, prof, app, any);
  return fraction(prof, app, any);
}

double OverheadMeter::epoch_fraction() const {
  const Entry* e = latest(ring_);
  return e == nullptr ? 0.0 : kAll(*e) / e->app_seconds;
}

double OverheadMeter::rolling_fraction() const {
  return window_fraction(ring_, kAll);
}

double OverheadMeter::pooled_rolling_fraction(
    std::span<const OverheadMeter* const> meters) {
  double prof = 0.0, app = 0.0;
  bool any = false;
  for (const OverheadMeter* m : meters) {
    m->add_window(m->ring_, kAll, prof, app, any);
  }
  return fraction(prof, app, any);
}

double OverheadMeter::rolling_reducible_fraction() const {
  return window_fraction(ring_, kReducible);
}

double OverheadMeter::node_rolling_fraction(NodeId node) const {
  return node < node_rings_.size() ? window_fraction(node_rings_[node], kAll)
                                   : 0.0;
}

double OverheadMeter::node_rolling_reducible_fraction(NodeId node) const {
  return node < node_rings_.size()
             ? window_fraction(node_rings_[node], kReducible)
             : 0.0;
}

double OverheadMeter::node_epoch_fraction(NodeId node) const {
  if (node >= node_rings_.size()) return 0.0;
  const Entry* e = latest(node_rings_[node]);
  return e == nullptr ? 0.0 : kAll(*e) / e->app_seconds;
}

std::optional<NodeId> OverheadMeter::worst_node() const {
  std::optional<NodeId> worst;
  double worst_frac = -1.0;
  for (std::size_t n = 0; n < node_rings_.size(); ++n) {
    const double f = node_rolling_fraction(static_cast<NodeId>(n));
    if (f > worst_frac) {
      worst_frac = f;
      worst = static_cast<NodeId>(n);
    }
  }
  return worst;
}

}  // namespace djvm
