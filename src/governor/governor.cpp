#include "governor/governor.hpp"

#include <algorithm>
#include <cmath>

#include "balance/balancer_feedback.hpp"
#include "runtime/klass.hpp"

namespace djvm {

namespace {
/// Influence floor added to every class's normalized share so
/// zero-influence classes keep plain bytes-per-entry as their tiebreak
/// (and a class the balancer ignores is still backed off in benefit order,
/// not arbitrarily).
constexpr double kInfluenceScoreFloor = 0.01;
}  // namespace

Governor::Governor(SamplingPlan& plan, GovernorConfig cfg)
    : plan_(plan), cfg_(cfg), meter_(cfg.costs, cfg.meter_window) {}

void Governor::reset_controller_state(GovernorState state) {
  // Per-node backoff state is convergence progress too: a re-arm (or a
  // switch to a mode that can never relax shifts, like legacy) must drop the
  // shifts, or the previously hot nodes stay silently under-sampled, and
  // bill the change notice for the affected classes.
  if (plan_.has_node_gap_shifts()) {
    std::vector<std::uint8_t> affected(plan_.heap().registry().size(), 0);
    for (std::size_t n = 0; n < plan_.shift_node_count(); ++n) {
      for (const Klass& k : plan_.heap().registry().all()) {
        if (plan_.node_gap_shift(static_cast<NodeId>(n), k.id) != 0) {
          affected[static_cast<std::size_t>(k.id)] = 1;
        }
      }
    }
    plan_.clear_node_gap_shifts();
    std::vector<ClassId> ids;
    for (std::size_t c = 0; c < affected.size(); ++c) {
      if (affected[c] != 0) ids.push_back(static_cast<ClassId>(c));
    }
    plan_.resample_classes(ids);
  }
  meter_ = OverheadMeter(cfg_.costs, cfg_.meter_window);
  state_ = state;
  epochs_ = 0;
  rearms_ = 0;
  grace_ = 0;
  node_settle_ = 0;
  converged_gaps_.clear();
  influence_.clear();
  influence_seen_ = false;
}

void Governor::arm(GovernorConfig cfg) {
  // Keep the runtime within the same bounds the snapshot decoder enforces
  // (a shift >= 64 would be UB in enter_sentinel; 32..63 would produce
  // snapshots the same build then refuses to load).
  cfg.sentinel_coarsen_shifts = std::min<std::uint32_t>(cfg.sentinel_coarsen_shifts, 31);
  cfg.max_nominal_gap = std::max<std::uint32_t>(cfg.max_nominal_gap, 1);
  // A decay outside [0, 1] would amplify instead of remember.
  cfg.influence_decay = std::clamp(cfg.influence_decay, 0.0, 1.0);
  cfg_ = cfg;
  if (cfg_.legacy_one_way) {
    // The seed's one-way loop: same entry point, same reset semantics; only
    // the distance threshold matters to legacy_step.
    mode_ = GovernorMode::kLegacyOneWay;
  } else {
    mode_ = GovernorMode::kClosedLoop;
  }
  reset_controller_state(GovernorState::kAdapting);
}

Governor::EpochOutcome Governor::on_epoch(std::optional<double> rel_distance,
                                          const OverheadSample& sample) {
  meter_.record(sample);
  ++epochs_;
  EpochOutcome out;
  switch (mode_) {
    case GovernorMode::kDisarmed:
      out.overhead_fraction = meter_.rolling_fraction();
      break;
    case GovernorMode::kLegacyOneWay:
      out = legacy_step(rel_distance);
      break;
    case GovernorMode::kClosedLoop:
      // An unmeasured sample (standalone daemon, no pump hook) carries no
      // app time: the overhead fraction is meaningless, so budget
      // enforcement is suspended and only distance-driven decisions run.
      out = closed_loop_step(rel_distance, sample.measured);
      break;
  }
  if (const std::optional<NodeId> worst = worst_live_node()) {
    out.offender = worst;
    out.offender_fraction = meter_.node_rolling_fraction(*worst);
  }
  return out;
}

void Governor::quarantine_node(NodeId node) {
  if (is_quarantined(node)) return;
  quarantined_.insert(
      std::upper_bound(quarantined_.begin(), quarantined_.end(), node), node);
}

std::optional<NodeId> Governor::worst_live_node() const {
  if (quarantined_.empty()) return meter_.worst_node();
  std::optional<NodeId> worst;
  double worst_frac = -1.0;
  for (std::size_t n = 0; n < meter_.node_count(); ++n) {
    const NodeId node = static_cast<NodeId>(n);
    if (is_quarantined(node)) continue;
    const double frac = meter_.node_rolling_fraction(node);
    if (frac > worst_frac) {
      worst_frac = frac;
      worst = node;
    }
  }
  return worst;
}

Governor::EpochOutcome Governor::legacy_step(std::optional<double> rel_distance) {
  EpochOutcome out;
  out.overhead_fraction = meter_.rolling_fraction();
  if (state_ != GovernorState::kAdapting || !rel_distance.has_value()) return out;
  if (*rel_distance > cfg_.distance_threshold) {
    bool any = false;
    out.resampled_objects = tighten(any);
    if (any) {
      out.rate_changed = true;
      out.action = GovernorAction::kTighten;
    } else {
      state_ = GovernorState::kConverged;  // everything already at full sampling
      out.action = GovernorAction::kConverge;
    }
  } else {
    state_ = GovernorState::kConverged;
    out.action = GovernorAction::kConverge;
  }
  return out;
}

Governor::EpochOutcome Governor::closed_loop_step(std::optional<double> rel_distance,
                                                  bool budget_known) {
  EpochOutcome out;
  const double frac = meter_.rolling_fraction();
  out.overhead_fraction = frac;
  const double hi = cfg_.overhead_budget * (1.0 + cfg_.hysteresis);
  const double lo = cfg_.overhead_budget * (1.0 - cfg_.hysteresis);

  // Phase detection: a distance spike while watching the sentinel means the
  // workload's sharing structure changed — restore the converged rates and
  // re-enter full adaptation.  The grace epoch skips the spurious spike the
  // sentinel's own rate change induces right after convergence.
  if (state_ == GovernorState::kSentinel && rel_distance.has_value()) {
    if (grace_ > 0) {
      --grace_;
    } else if (*rel_distance >
               cfg_.phase_spike_factor * cfg_.distance_threshold) {
      out.resampled_objects = restore_converged_gaps();
      state_ = GovernorState::kAdapting;
      ++rearms_;
      out.rate_changed = out.resampled_objects > 0;
      out.action = GovernorAction::kRearm;
      return out;
    }
  }

  // Budget enforcement wins over accuracy chasing — except against a phase
  // spike, which returned above: a stale map misdirects the balancer, so
  // re-arming is worth one more expensive epoch before the budget reins the
  // restored rates back in.  The latest epoch must also be over the bound:
  // the rolling window lags, and
  // repeating the back-off while only a past spike keeps the window high
  // would over-coarsen well past the budget.  Coarsening can only shrink
  // the *reducible* share (entry CPU, wire, resampling) — if the overshoot
  // comes from rate-independent costs (stack-sampling timers), backing off
  // further would destroy the correlation map without restoring the
  // budget, so the back-off stops once the reducible share is negligible.
  //
  // Per-node enforcement runs first: the worst offending node is held to
  // the node budget against its *own* application progress, and only the
  // classes dominating that node's cost are coarsened (via gap shifts that
  // leave every other node's rates alone).  The cluster-aggregate check
  // stays as a second line for the non-per-node policy and for a separately
  // configured cluster budget.
  const bool per_node = cfg_.per_node && meter_.node_count() > 0;
  const double node_budget = cfg_.effective_node_budget();
  const double node_hi = node_budget * (1.0 + cfg_.hysteresis);
  if (budget_known && per_node && node_settle_ > 0) {
    // Settle epoch: last epoch's per-node back-off resampled the offender's
    // heap slice, and that one-off cost is in this epoch's sample.
    --node_settle_;
  } else if (budget_known && per_node) {
    // Quarantined nodes never compete: their meter rows are ghosts of
    // pre-failure epochs, and coarsening a dead node's classes would shed
    // live accuracy to pay a bill nobody is running up.
    if (const std::optional<NodeId> worst = worst_live_node()) {
      const double nfrac = meter_.node_rolling_fraction(*worst);
      const double nred = meter_.node_rolling_reducible_fraction(*worst);
      if (nfrac > node_hi && meter_.node_epoch_fraction(*worst) > node_hi &&
          nred > 0.1 * node_budget) {
        const double fixed_share = std::isfinite(nfrac) ? nfrac - nred : 0.0;
        const double headroom = std::max(0.0, node_budget - fixed_share);
        const double shrink = std::isfinite(nred) && nred > 0.0
                                  ? headroom / nred
                                  : 0.0;
        out.resampled_objects = back_off_node(*worst, shrink);
        if (out.resampled_objects > 0) {
          if (state_ == GovernorState::kSentinel) grace_ = 1;
          node_settle_ = 1;
          out.rate_changed = true;
          out.action = GovernorAction::kBackOff;
          return out;
        }
      }
    }
  }
  const double reducible = meter_.rolling_reducible_fraction();
  if (budget_known && frac > hi && meter_.epoch_fraction() > hi &&
      reducible > 0.1 * cfg_.overhead_budget) {
    const double fixed_share = std::isfinite(frac) ? frac - reducible : 0.0;
    const double headroom = std::max(0.0, cfg_.overhead_budget - fixed_share);
    const double shrink = std::isfinite(reducible) && reducible > 0.0
                              ? headroom / reducible
                              : 0.0;
    out.resampled_objects = back_off(shrink);
    if (out.resampled_objects > 0) {
      // The rate change itself moves the next map; in sentinel that must
      // not read as a phase change (same reason enter_sentinel sets grace).
      if (state_ == GovernorState::kSentinel) grace_ = 1;
      out.rate_changed = true;
      out.action = GovernorAction::kBackOff;
      return out;
    }
  }

  // A node that backed off during a hot phase and has since cooled well
  // under the node budget gets its shifts decayed back toward the cluster
  // view (one decrement per class per epoch; the x2 margin inside
  // relax_node_shifts keeps the decay from oscillating against the
  // back-off above).  Runs in sentinel too — a cooled node should not stay
  // coarse just because the map converged in the meantime.
  if (budget_known && per_node && plan_.has_node_gap_shifts()) {
    bool any = false;
    const std::size_t visited = relax_node_shifts(any);
    if (any) {
      if (state_ == GovernorState::kSentinel) grace_ = 1;
      out.resampled_objects = visited;
      out.rate_changed = true;
      out.action = GovernorAction::kTighten;
      return out;
    }
  }

  if (state_ == GovernorState::kAdapting && rel_distance.has_value()) {
    // Cluster-wide tightening halves every class's gap — roughly doubling
    // every node's entry cost — so with per-node budgets it additionally
    // requires every node to sit under its own lower band.
    bool all_nodes_under = true;
    if (per_node) {
      const double node_lo = node_budget * (1.0 - cfg_.hysteresis);
      for (std::size_t n = 0; n < meter_.node_count(); ++n) {
        // A quarantined node abstains from the quorum: it will never report
        // "under budget" again, and letting it vote would freeze the whole
        // cluster's rates at the moment of its death.
        if (is_quarantined(static_cast<NodeId>(n))) continue;
        if (meter_.node_rolling_fraction(static_cast<NodeId>(n)) >= node_lo) {
          all_nodes_under = false;
          break;
        }
      }
    }
    if (*rel_distance <= cfg_.distance_threshold) {
      capture_converged_gaps();
      out.resampled_objects = enter_sentinel();
      out.rate_changed = out.resampled_objects > 0;
      out.action = GovernorAction::kConverge;
    } else if (!budget_known || (frac < lo && all_nodes_under)) {
      bool any = false;
      out.resampled_objects = tighten(any);
      if (any) {
        out.rate_changed = true;
        out.action = GovernorAction::kTighten;
      } else {
        // Full sampling everywhere and the map still moves: the workload is
        // inherently noisy at this rate; settle into the sentinel watch.
        capture_converged_gaps();
        out.resampled_objects = enter_sentinel();
        out.rate_changed = out.resampled_objects > 0;
        out.action = GovernorAction::kConverge;
      }
    }
  }
  return out;
}

void Governor::observe_balancer_feedback(const BalancerFeedback& fb) {
  if (!fb.valid) return;
  const std::size_t classes = std::max(fb.influence.size(), fb.mass.size());
  if (influence_.size() < classes) influence_.resize(classes, 0.0);
  const double decay = cfg_.influence_decay;
  for (std::size_t c = 0; c < classes; ++c) {
    const double observed = fb.share(static_cast<ClassId>(c));
    influence_[c] = influence_seen_
                        ? decay * influence_[c] + (1.0 - decay) * observed
                        : observed;  // first observation seeds, not halves
  }
  // Classes beyond this epoch's feedback decay toward zero: the balancer
  // saw cells and none of them were theirs.
  for (std::size_t c = classes; c < influence_.size(); ++c) {
    influence_[c] *= decay;
  }
  influence_seen_ = true;
}

void Governor::record_migration(const ExecutedMigration& m) {
  ++migrations_executed_;
  migration_history_.push_back(m);
  if (migration_history_.size() > kMigrationHistoryCap) {
    migration_history_.erase(
        migration_history_.begin(),
        migration_history_.end() -
            static_cast<std::ptrdiff_t>(kMigrationHistoryCap));
  }
  if (m.thread == kInvalidThread) return;
  if (last_migration_epoch_.size() <= m.thread) {
    last_migration_epoch_.resize(static_cast<std::size_t>(m.thread) + 1,
                                 kNeverMigrated);
  }
  last_migration_epoch_[m.thread] = m.epoch;
}

bool Governor::in_cooldown(ThreadId thread,
                           std::uint32_t cooldown_epochs) const noexcept {
  if (cooldown_epochs == 0) return false;
  if (thread >= last_migration_epoch_.size()) return false;
  const std::uint64_t stamp = last_migration_epoch_[thread];
  if (stamp == kNeverMigrated) return false;
  const auto now = static_cast<std::uint64_t>(epochs_);
  return now >= stamp && now - stamp < cooldown_epochs;
}

bool Governor::allow_migration_work() const noexcept {
  if (mode_ != GovernorMode::kClosedLoop) return true;
  return meter_.rolling_fraction() <=
         cfg_.overhead_budget * (1.0 + cfg_.hysteresis);
}

double Governor::backoff_score(ClassId id, const ClassEpochStats& stats) const {
  const double bytes_per_entry = static_cast<double>(stats.estimated_bytes) /
                                 static_cast<double>(stats.entries);
  if (cfg_.scoring != BackoffScoring::kInfluenceWeighted || !influence_seen_) {
    return bytes_per_entry;
  }
  return (kInfluenceScoreFloor + influence_share(id)) * bytes_per_entry;
}

std::size_t Governor::back_off(double shrink_to) {
  struct Candidate {
    ClassId id;
    double score;  ///< influence-weighted bytes per logged entry (benefit/cost)
    std::uint64_t entries;
  };
  const std::vector<ClassEpochStats>& stats = plan_.epoch_stats();
  std::vector<Candidate> candidates;
  double total_entries = 0.0;
  for (const Klass& k : plan_.heap().registry().all()) {
    const std::size_t idx = static_cast<std::size_t>(k.id);
    if (idx >= stats.size() || stats[idx].entries == 0) continue;
    total_entries += static_cast<double>(stats[idx].entries);
    if (k.sampling.nominal_gap >= cfg_.max_nominal_gap) continue;
    candidates.push_back({k.id, backoff_score(k.id, stats[idx]),
                          stats[idx].entries});
  }
  if (candidates.empty() || total_entries <= 0.0) return 0;
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.score != b.score ? a.score < b.score : a.id < b.id;
            });
  // Doubling a class's gap roughly halves its future entry cost.  Coarsen
  // worst-scored classes (at most one doubling each per epoch, to keep the
  // loop stable) until the projected cost fits the budget.
  const double target = std::clamp(shrink_to, 0.0, 1.0) * total_entries;
  double projected = total_entries;
  std::vector<ClassId> changed;
  for (const Candidate& c : candidates) {
    if (projected <= target) break;
    const std::uint64_t doubled =
        2ull * plan_.heap().registry().at(c.id).sampling.nominal_gap;
    plan_.set_nominal_gap(c.id, static_cast<std::uint32_t>(std::min<std::uint64_t>(
                                    doubled, cfg_.max_nominal_gap)));
    changed.push_back(c.id);
    projected -= static_cast<double>(c.entries) / 2.0;
  }
  return plan_.resample_classes(changed);
}

std::size_t Governor::back_off_node(NodeId node, double shrink_to) {
  const std::vector<std::vector<ClassEpochStats>>& by_node = plan_.node_epoch_stats();
  if (static_cast<std::size_t>(node) >= by_node.size()) return 0;
  const std::vector<ClassEpochStats>& stats = by_node[node];
  struct Candidate {
    ClassId id;
    double score;  ///< influence-weighted bytes per logged entry (benefit/cost)
    std::uint64_t entries;
  };
  std::vector<Candidate> candidates;
  double total_entries = 0.0;
  for (const Klass& k : plan_.heap().registry().all()) {
    const std::size_t idx = static_cast<std::size_t>(k.id);
    if (idx >= stats.size() || stats[idx].entries == 0) continue;
    total_entries += static_cast<double>(stats[idx].entries);
    if (plan_.effective_nominal_gap(node, k.id) >= cfg_.max_nominal_gap) continue;
    candidates.push_back({k.id, backoff_score(k.id, stats[idx]),
                          stats[idx].entries});
  }
  if (candidates.empty() || total_entries <= 0.0) return 0;
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.score != b.score ? a.score < b.score : a.id < b.id;
            });
  // Same projection as the cluster back_off, but doublings land on the
  // node's gap *shift*: only the offender's own copies coarsen (the
  // resample bills exactly the copies it caches — remote-homed hot objects
  // included), and the cluster view the other nodes sample under stays
  // untouched.
  const double target = std::clamp(shrink_to, 0.0, 1.0) * total_entries;
  double projected = total_entries;
  std::vector<ClassId> changed;
  for (const Candidate& c : candidates) {
    if (projected <= target) break;
    plan_.set_node_gap_shift(node, c.id, plan_.node_gap_shift(node, c.id) + 1);
    changed.push_back(c.id);
    projected -= static_cast<double>(c.entries) / 2.0;
  }
  return plan_.resample_classes_on_node(node, changed);
}

std::size_t Governor::relax_node_shifts(bool& any) {
  any = false;
  std::size_t visited = 0;
  const double node_budget = cfg_.effective_node_budget();
  for (std::size_t n = 0; n < plan_.shift_node_count(); ++n) {
    const NodeId node = static_cast<NodeId>(n);
    // A dead node's fractions read as cooled only because nothing runs
    // there; leave its shifts frozen rather than "relaxing" a ghost.
    if (is_quarantined(node)) continue;
    // One decrement doubles the node's entry cost on the relaxed classes:
    // only relax when even the doubled cost would sit under the budget, so
    // the decay cannot ping-pong with the back-off across the dead band.
    if (meter_.node_rolling_fraction(node) * 2.0 >= node_budget) continue;
    if (meter_.node_epoch_fraction(node) * 2.0 >= node_budget) continue;
    std::vector<ClassId> changed;
    for (const Klass& k : plan_.heap().registry().all()) {
      const std::uint32_t shift = plan_.node_gap_shift(node, k.id);
      if (shift == 0) continue;
      plan_.set_node_gap_shift(node, k.id, shift - 1);
      changed.push_back(k.id);
    }
    if (!changed.empty()) {
      any = true;
      visited += plan_.resample_classes_on_node(node, changed);
    }
  }
  return visited;
}

std::size_t Governor::tighten(bool& any) {
  std::vector<ClassId> changed;
  for (Klass& k : plan_.heap().registry().all()) {
    if (k.sampling.nominal_gap > 1) {
      plan_.halve_gap(k.id);
      changed.push_back(k.id);
    }
  }
  any = !changed.empty();
  return plan_.resample_classes(changed);
}

void Governor::capture_converged_gaps() {
  const std::vector<Klass>& all = plan_.heap().registry().all();
  converged_gaps_.assign(all.size(), 0);  // 0 = not captured
  for (const Klass& k : all) {
    // A class with no rate assigned yet (registered, nothing allocated)
    // has a placeholder gap, not a converged one.
    if (!k.sampling.initialized) continue;
    converged_gaps_[static_cast<std::size_t>(k.id)] = k.sampling.nominal_gap;
  }
}

std::size_t Governor::enter_sentinel() {
  state_ = GovernorState::kSentinel;
  grace_ = 1;
  std::vector<ClassId> changed;
  for (const Klass& k : plan_.heap().registry().all()) {
    // Never-rated classes must stay uninitialized so their first allocation
    // still inherits the cluster default rate (set_nominal_gap would mark
    // them initialized and pin the placeholder gap).
    if (!k.sampling.initialized) continue;
    const std::uint64_t coarse = static_cast<std::uint64_t>(k.sampling.nominal_gap)
                                 << cfg_.sentinel_coarsen_shifts;
    const auto next = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(coarse, cfg_.max_nominal_gap));
    if (next != k.sampling.nominal_gap) {
      plan_.set_nominal_gap(k.id, next);
      changed.push_back(k.id);
    }
  }
  return plan_.resample_classes(changed);
}

std::size_t Governor::restore_converged_gaps() {
  std::vector<ClassId> changed;
  for (const Klass& k : plan_.heap().registry().all()) {
    const std::size_t idx = static_cast<std::size_t>(k.id);
    // 0 = never captured (class registered after convergence, or absent
    // from a decoded snapshot): leave its current gap alone rather than
    // clamping it to full sampling.
    if (idx >= converged_gaps_.size() || converged_gaps_[idx] == 0) continue;
    if (k.sampling.nominal_gap != converged_gaps_[idx]) {
      plan_.set_nominal_gap(k.id, converged_gaps_[idx]);
      changed.push_back(k.id);
    }
  }
  return plan_.resample_classes(changed);
}

}  // namespace djvm
