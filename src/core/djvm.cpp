#include "core/djvm.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "balance/balancer_feedback.hpp"
#include "balance/load_balancer.hpp"
#include "export/timeline.hpp"

namespace djvm {

namespace {
/// Converts stack-sample work counters into simulated time (nanoseconds).
SimTime stack_work_cost(const StackSampleWork& w) {
  return 200                                  // sampler entry / stack walk setup
         + 2ULL * w.raw_slots_copied          // native memcpy of raw frames
         + 6ULL * w.slots_extracted           // GC-interface pointer checks
         + 2ULL * w.slots_probed              // compare-by-probing
         + 30ULL * w.frames_walked;
}
}  // namespace

Djvm::Djvm(Config cfg)
    : cfg_(cfg),
      heap_(registry_, cfg.nodes),
      net_(cfg.costs),
      plan_(heap_),
      gos_(std::make_unique<Gos>(heap_, net_, plan_, cfg_)),
      stackman_(heap_, cfg.extraction, cfg.invariant_min_rounds),
      fptracker_(heap_, plan_),
      daemon_(plan_, cfg.threads),
      migration_(*gos_) {
  gos_->set_hooks(this);
  if (cfg_.faults.enabled) {
    fault_injector_ = std::make_unique<FaultInjector>(cfg_.faults);
    net_.set_fault_injector(fault_injector_.get());
  }
  if (!cfg_.export_.snapshot_path.empty() || !cfg_.export_.timeline_path.empty()) {
    snapshot_writer_ = std::make_unique<SnapshotWriter>();
  }
  if (!cfg_.export_.timeline_path.empty()) {
    // Fresh log per run; the per-epoch lines are appended asynchronously.
    std::ofstream truncate(cfg_.export_.timeline_path, std::ios::trunc);
  }
  apply_profiling_config();
}

Djvm::~Djvm() { gos_->set_hooks(nullptr); }

ThreadId Djvm::spawn_thread(NodeId node) {
  const ThreadId t = gos_->spawn_thread(node);
  if (stacks_.size() <= t) stacks_.resize(static_cast<std::size_t>(t) + 1);
  stackman_.ensure_threads(stacks_.size());
  return t;
}

void Djvm::spawn_threads_round_robin(std::uint32_t count) {
  for (std::uint32_t i = 0; i < count; ++i) {
    spawn_thread(static_cast<NodeId>(i % cfg_.nodes));
  }
}

void Djvm::apply_profiling_config() {
  gos_->set_tracking(cfg_.oal_transfer);
  // Attribution first: set_rate_all's resample pass must already run under
  // the configured model so its visits land on the nodes that pay.
  plan_.set_cost_attribution(cfg_.cost_attribution);
  plan_.set_rate_all(cfg_.sampling_rate_x);
  if (cfg_.stack_sampling) {
    gos_->enable_stack_sampling(cfg_.stack_sampling_gap);
  } else {
    gos_->disable_stack_sampling();
  }
  if (cfg_.footprinting) {
    gos_->enable_footprinting(cfg_.footprint_timer, cfg_.footprint_phase,
                              cfg_.footprint_rearm);
  } else {
    gos_->disable_footprinting();
  }
  if (cfg_.governor.enabled) {
    GovernorConfig gcfg;
    gcfg.overhead_budget = cfg_.governor.budget;
    gcfg.distance_threshold = cfg_.adapt_threshold;
    gcfg.per_node = cfg_.governor.per_node;
    gcfg.node_budget = cfg_.governor.node_budget;
    gcfg.scoring = cfg_.backoff_scoring;
    daemon_.governor().arm(gcfg);
  }
  RetentionPolicy retention;
  retention.idle_epochs = cfg_.retention.idle_epochs;
  retention.decay = cfg_.retention.decay;
  retention.compact_period = cfg_.retention.compact_period;
  daemon_.set_retention(retention);
  // No disarm branch: Config is immutable after construction, so
  // governor.enabled can never transition to false here — a governor armed
  // directly via governor().arm() is the caller's to tear down with
  // disarm().
}

void Djvm::pump_daemon() {
  if (fault_injector_ && !node_filter_installed_) {
    // A dead node's un-shipped interval slices died with it: the epoch's
    // map is then incomplete (missing that node's contribution), not wrong.
    daemon_.set_node_filter(
        [this](NodeId n) { return !fault_injector_->node_dead(n); });
    node_filter_installed_ = true;
  }
  // The simulator's producers run on this thread, so the hub is quiesced
  // by construction: the drain may collect open and parked arenas too.
  daemon_.ingest(gos_->ingest());
}

EpochResult Djvm::run_epoch(const EpochRequest& request) {
  if (fault_injector_) {
    // The fault schedule's epoch advances with the governor's: timed kills
    // fire here, stall/partition windows key off the new value.
    fault_injector_->begin_epoch(daemon_.epochs_run());
    const FaultKnobs& fplan = fault_injector_->plan();
    if (fplan.kill_node != kInvalidNode &&
        fault_injector_->node_dead(fplan.kill_node) &&
        !daemon_.governor().is_quarantined(fplan.kill_node)) {
      fail_node(fplan.kill_node);  // the plan's timed kill just fired
    }
  }

  // Hand the daemon the balancer's current co-location partition (where the
  // threads actually run) so this epoch's window is attributed per class
  // against it — the influence input of the governor's back-off scoring.
  // Skipped entirely under kBytesPerEntry: the ablation path must not pay
  // the attribution walk and planner run whose result its scoring ignores.
  const bool influence_loop =
      daemon_.governor().mode() == GovernorMode::kClosedLoop &&
      daemon_.governor().config().scoring ==
          BackoffScoring::kInfluenceWeighted &&
      thread_count() > 0;
  // The execution stage needs the planner (and so the placement and cell
  // attribution) even when back-off scoring would ignore influence.
  const bool execute_stage =
      cfg_.balance.max_migrations_per_epoch > 0 && thread_count() > 0;
  if (influence_loop || execute_stage) {
    std::vector<NodeId> placement = live_thread_nodes();
    // Deferred planned moves override their threads' live nodes: attribution
    // and planning score the *intended* post-migration placement, so the
    // loop does not re-argue moves it already decided but has not yet run.
    // Executed moves need no override — they are the live nodes.
    for (const PlannedMove& p : planned_moves_) {
      if (p.thread < placement.size()) placement[p.thread] = p.to;
    }
    daemon_.set_influence_placement(std::move(placement));
  } else {
    daemon_.set_influence_placement({});
  }

  pump_daemon();

  const ProtocolStats& ps = gos_->stats();
  const std::uint32_t nodes = cfg_.nodes;
  SimTime sim_total = 0;
  std::vector<SimTime> node_sim(nodes, 0);
  for (ThreadId t = 0; t < thread_count(); ++t) {
    const SimTime now = gos_->clock(t).now();
    sim_total += now;
    // A thread that migrated mid-epoch charges its whole clock to its
    // current node — acceptable smear, since migration already implies the
    // planner believes the work belongs there.
    node_sim[gos_->thread_node(t)] += now;
  }

  // A Gos::reset_stats() between pumps restarts the counters below the
  // snapshot; treat the restarted value as the whole delta instead of
  // letting the unsigned subtraction wrap.
  const auto delta = [](std::uint64_t now, std::uint64_t then) {
    return now >= then ? now - then : now;
  };

  OverheadSample s;
  s.measured = true;
  s.tenant = cfg_.tenant.id;
  // Last epoch's balancer-feedback run (attribution consumer + migration
  // planner) and execution stage (sticky resolution, prefetch, home-move
  // bookkeeping) are coordinator work; the daemon adds this epoch's map
  // construction on top (OverheadSample::build_seconds is additive).  The
  // migration bucket is what lets the governor veto the next batch when
  // executing migrations itself pushes the budget.  The request's billed
  // coordinator share (a cluster arbiter's decision time) rides the same
  // bucket.
  s.build_seconds = planner_carry_seconds_ + migration_carry_seconds_ +
                    request.coordinator_seconds;
  planner_carry_seconds_ = 0.0;
  migration_carry_seconds_ = 0.0;
  // Worker CPU the GOS charged to thread clocks for profiling this epoch:
  // rate-dependent (OAL log service, footprint re-arm touches) vs
  // rate-independent (stack-sampler timers).
  s.access_check_seconds =
      (static_cast<double>(delta(ps.oal_entries, pump_snapshot_.oal_entries)) *
           static_cast<double>(kLogServiceCost) +
       static_cast<double>(
           delta(ps.footprint_touches, pump_snapshot_.footprint_touches)) *
           static_cast<double>(kFootprintServiceCost)) *
      1e-9;
  s.fixed_seconds =
      static_cast<double>(stack_sampling_sim_cost_ - pump_snapshot_.stack_cost) *
      1e-9;
  // OAL wire cost as Network::send actually charged it to thread clocks
  // (latency, piggybacking, and local delivery make a flat bytes/s model
  // wrong in both directions); fold the measured time into the
  // rate-dependent CPU bucket rather than re-pricing bytes in the meter.
  s.access_check_seconds +=
      static_cast<double>(delta(ps.oal_send_ns, pump_snapshot_.oal_send_ns)) *
      1e-9;
  // The thread-clock delta includes the profiling time charged above;
  // subtract it so the fraction denominator is application seconds, not
  // app + profiling.
  const double clock_delta =
      static_cast<double>(sim_total - pump_snapshot_.thread_sim_total) * 1e-9;
  s.app_seconds =
      std::max(0.0, clock_delta - s.access_check_seconds - s.fixed_seconds);

  // Per-node slices of the same accounting: each node's profiling cost over
  // each node's own application progress, so one hot node cannot hide
  // behind the cluster average.
  pump_snapshot_.node_oal_entries.resize(nodes, 0);
  pump_snapshot_.node_fp_touches.resize(nodes, 0);
  pump_snapshot_.node_oal_send_ns.resize(nodes, 0);
  pump_snapshot_.node_sim_total.resize(nodes, 0);
  pump_snapshot_.node_stack_cost.resize(nodes, 0);
  stack_cost_by_node_.resize(std::max<std::size_t>(stack_cost_by_node_.size(), nodes), 0);
  s.nodes.resize(nodes);
  const auto kOalIdx = static_cast<std::size_t>(MsgCategory::kOal);
  for (std::uint32_t n = 0; n < nodes; ++n) {
    const NodeProfilingStats& nps = gos_->node_stats(static_cast<NodeId>(n));
    const std::uint64_t send_ns =
        net_.node_traffic(static_cast<NodeId>(n)).send_ns[kOalIdx];
    NodeOverheadSample& ns = s.nodes[n];
    ns.node = static_cast<NodeId>(n);
    ns.access_check_seconds =
        (static_cast<double>(
             delta(nps.oal_entries, pump_snapshot_.node_oal_entries[n])) *
             static_cast<double>(kLogServiceCost) +
         static_cast<double>(
             delta(nps.footprint_touches, pump_snapshot_.node_fp_touches[n])) *
             static_cast<double>(kFootprintServiceCost) +
         static_cast<double>(
             delta(send_ns, pump_snapshot_.node_oal_send_ns[n]))) *
        1e-9;
    ns.fixed_seconds =
        static_cast<double>(stack_cost_by_node_[n] -
                            pump_snapshot_.node_stack_cost[n]) *
        1e-9;
    // Thread migration moves a whole clock between node sums mid-epoch, so
    // the source node's sum can drop below its snapshot: clamp through the
    // same guard as the restartable counters instead of wrapping (one smeared
    // epoch; the window absorbs it).
    const double node_clock_delta =
        static_cast<double>(delta(node_sim[n], pump_snapshot_.node_sim_total[n])) *
        1e-9;
    ns.app_seconds = std::max(
        0.0, node_clock_delta - ns.access_check_seconds - ns.fixed_seconds);

    pump_snapshot_.node_oal_entries[n] = nps.oal_entries;
    pump_snapshot_.node_fp_touches[n] = nps.footprint_touches;
    pump_snapshot_.node_oal_send_ns[n] = send_ns;
    pump_snapshot_.node_sim_total[n] = node_sim[n];
    pump_snapshot_.node_stack_cost[n] = stack_cost_by_node_[n];
  }

  pump_snapshot_.oal_entries = ps.oal_entries;
  pump_snapshot_.footprint_touches = ps.footprint_touches;
  pump_snapshot_.oal_send_ns = ps.oal_send_ns;
  pump_snapshot_.thread_sim_total = sim_total;
  pump_snapshot_.stack_cost = stack_sampling_sim_cost_;

  EpochResult result = daemon_.run_epoch(s);

  if (fault_injector_) {
    // Name the nodes whose profiling contribution this epoch's map is
    // missing: dead nodes lost their un-shipped slices (see pump_daemon).
    for (std::uint32_t n = 0; n < nodes; ++n) {
      if (fault_injector_->node_dead(static_cast<NodeId>(n))) {
        result.lost_nodes.push_back(static_cast<NodeId>(n));
      }
    }
    result.degraded = !result.lost_nodes.empty();
  }

  // Per-category network traffic deltas for the timeline: TrafficStats has
  // always split bytes by MsgCategory, but nothing reported the breakdown —
  // DSM-protocol vs profiling traffic was invisible per epoch.
  const TrafficStats& ts = net_.stats();
  for (std::size_t c = 0; c < result.traffic_bytes.size(); ++c) {
    result.traffic_bytes[c] = delta(ts.bytes[c], pump_snapshot_.cat_bytes[c]);
    pump_snapshot_.cat_bytes[c] = ts.bytes[c];
    result.dropped_msgs[c] = delta(ts.dropped[c], pump_snapshot_.cat_dropped[c]);
    pump_snapshot_.cat_dropped[c] = ts.dropped[c];
    result.retries[c] = delta(ts.retries[c], pump_snapshot_.cat_retries[c]);
    pump_snapshot_.cat_retries[c] = ts.retries[c];
  }
  result.backoff_ns = delta(ts.total_backoff_ns(), pump_snapshot_.backoff_ns);
  pump_snapshot_.backoff_ns = ts.total_backoff_ns();
  pump_snapshot_.node_cat_bytes.resize(nodes);
  result.node_traffic_bytes.resize(nodes);
  for (std::uint32_t n = 0; n < nodes; ++n) {
    const NodeTraffic& nt = net_.node_traffic(static_cast<NodeId>(n));
    for (std::size_t c = 0; c < result.traffic_bytes.size(); ++c) {
      result.node_traffic_bytes[n][c] =
          delta(nt.bytes[c], pump_snapshot_.node_cat_bytes[n][c]);
      pump_snapshot_.node_cat_bytes[n][c] = nt.bytes[c];
    }
  }

  // Close the balancer -> governor loop: run the migration planner over the
  // fresh map, condense cut shares + accepted suggestions + remote-home mass
  // into per-class influence, and let the governor's next back-off weight
  // its benefit/cost scores by it.  One epoch of lag by construction (this
  // epoch's decision used last epoch's influence); the governor's
  // exponential-decay memory is what makes that sound.
  if ((influence_loop || execute_stage) && !result.cells.empty()) {
    const auto planner_t0 = std::chrono::steady_clock::now();
    // The map's dimension is cfg_.threads (fixed at daemon construction);
    // the planner indexes node_of_thread up to it, so pad past the spawned
    // threads with kInvalidNode — the planner skips unplaced threads
    // entirely, so filler neither migrates nor occupies a node's capacity.
    const Placement current =
        assemble_placement(daemon_.influence_placement(), result.tcm.size());
    // Context bytes come from the stacks (always live); sticky-set
    // footprints only exist when footprinting is on.  Missing entries fall
    // back to the planner's defaults.
    std::vector<ClassFootprint> footprints;
    std::vector<std::uint64_t> contexts(thread_count(), 1024);
    for (ThreadId t = 0; t < thread_count(); ++t) {
      // Threads spawned through gos().spawn_thread() directly have no stack
      // here (same guard as the interval-close hook): planner default.
      if (t < stacks_.size()) contexts[t] = stacks_[t].context_bytes() + 1024;
    }
    if (cfg_.footprinting) {
      footprints.resize(thread_count());
      for (ThreadId t = 0; t < thread_count(); ++t) {
        footprints[t] = fptracker_.footprint(t);
      }
    }
    const std::vector<MigrationSuggestion> suggestions = plan_migrations(
        result.tcm, current, footprints, contexts, cost_model(), cfg_.nodes,
        cfg_.costs.bytes_per_ns, /*slack=*/1);
    if (execute_stage) {
      result.migration_seconds =
          execute_migrations(result, suggestions, footprints);
      migration_carry_seconds_ += result.migration_seconds;
    }
    if (influence_loop) {
      daemon_.governor().observe_balancer_feedback(
          build_balancer_feedback(result.cells, suggestions));
    }
    // Coordinator work like the map build itself: billed to the *next*
    // epoch's sample (this epoch's decision already ran), same carryover
    // pattern as resampling cost.  The execution stage's share is carried
    // in its own bucket above, not double-billed here.
    planner_carry_seconds_ =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      planner_t0)
            .count() -
        result.migration_seconds;
  }

  if (request.export_outputs && snapshot_writer_ &&
      !cfg_.export_.snapshot_path.empty()) {
    // Every epoch snapshots for crash recovery; the encode runs here (state
    // is ours to read synchronously), the file write on the background
    // thread, and a still-queued older snapshot is simply replaced.
    snapshot_writer_->save_async(cfg_.export_.snapshot_path, daemon_.governor(),
                                 daemon_.latest());
  }
  if (request.export_outputs && snapshot_writer_ &&
      !cfg_.export_.timeline_path.empty()) {
    // The line renders here (epoch state is ours to read synchronously);
    // the append happens on the background thread, batched under disk
    // pressure, never coalesced away.
    snapshot_writer_->append_async(
        cfg_.export_.timeline_path,
        timeline_line(result, daemon_.governor(), registry_,
                      cfg_.export_.timeline_top_k, cfg_.tenant.id));
  }
  return result;
}

void Djvm::fail_node(NodeId node) {
  if (node >= cfg_.nodes) return;
  if (!fault_injector_) {
    fault_injector_ = std::make_unique<FaultInjector>(cfg_.faults);
    net_.set_fault_injector(fault_injector_.get());
    fault_injector_->begin_epoch(daemon_.epochs_run());
  }

  // Survivors, in node order (failover and re-homing round-robin over them).
  std::vector<NodeId> live;
  for (std::uint32_t n = 0; n < cfg_.nodes; ++n) {
    const auto id = static_cast<NodeId>(n);
    if (id != node && !fault_injector_->node_dead(id)) live.push_back(id);
  }
  if (live.empty()) return;  // refusing to kill the last node alive

  fault_injector_->kill_node(node);
  daemon_.governor().quarantine_node(node);

  // Cancel planned moves targeting the dead node: they were scored against a
  // placement that no longer exists, so re-planning beats re-targeting.
  std::erase_if(planned_moves_,
                [node](const PlannedMove& p) { return p.to == node; });

  // Fail threads over to the survivors.  Their current intervals continue on
  // the new node (move_thread keeps the at-most-once log), the same smear
  // rule the overhead accounting already accepts for planned migrations.
  std::size_t rr = 0;
  for (ThreadId t = 0; t < thread_count(); ++t) {
    if (gos_->thread_node(t) == node) {
      gos_->move_thread(t, live[rr++ % live.size()]);
    }
  }

  // Re-home every orphaned object across the survivors.  migrate_homes ships
  // one aggregated payload per batch and re-keys sampling state through
  // on_home_migrated; the wire transfer from the dead node is dropped by the
  // injector (the data really comes from surviving cached copies), but the
  // home directory update is what recovery needs.
  std::vector<std::vector<ObjectId>> orphans(live.size());
  for (std::size_t o = 0; o < heap_.object_count(); ++o) {
    const auto id = static_cast<ObjectId>(o);
    if (heap_.meta(id).home == node) {
      orphans[o % live.size()].push_back(id);
    }
  }
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (!orphans[i].empty()) gos_->migrate_homes(orphans[i], live[i]);
  }
}

std::vector<NodeId> Djvm::live_thread_nodes() const {
  std::vector<NodeId> placement(thread_count());
  for (ThreadId t = 0; t < thread_count(); ++t) {
    placement[t] = gos_->thread_node(t);
  }
  return placement;
}

double Djvm::execute_migrations(
    EpochResult& result, const std::vector<MigrationSuggestion>& suggestions,
    const std::vector<ClassFootprint>& footprints) {
  const auto t0 = std::chrono::steady_clock::now();
  const BalanceKnobs& knobs = cfg_.balance;
  Governor& gov = daemon_.governor();
  // One admission decision per epoch: a mid-batch flip would execute a
  // placement the planner never scored as a whole.
  const bool admitted = gov.allow_migration_work();

  // Work list: deferred moves first (FIFO — they were admitted earlier), then
  // fresh suggestions in score order.  A fresh suggestion for a thread
  // supersedes its stale pending entry: the planner saw newer attribution.
  struct Candidate {
    ThreadId thread;
    NodeId to;
    double gain_bytes;
    double score;
    bool fresh;
  };
  std::vector<Candidate> work;
  work.reserve(planned_moves_.size() + suggestions.size());
  for (const PlannedMove& p : planned_moves_) {
    work.push_back({p.thread, p.to, p.gain_bytes, p.score, false});
  }
  for (const MigrationSuggestion& s : suggestions) {
    if (s.score < knobs.min_score) break;  // sorted descending by score
    std::erase_if(work, [&](const Candidate& c) {
      return !c.fresh && c.thread == s.thread;
    });
    work.push_back({s.thread, s.to, s.gain_bytes, s.score, true});
  }

  std::vector<PlannedMove> still_pending;
  std::uint32_t executed = 0;
  for (const Candidate& c : work) {
    if (c.thread >= thread_count()) continue;
    if (gos_->thread_node(c.thread) == c.to) continue;  // already there
    // A quarantined (failed) node is un-placeable: drop the candidate rather
    // than defer it — the planner will re-score the thread against the
    // surviving nodes next epoch.
    if (gov.is_quarantined(c.to)) continue;
    if (gov.in_cooldown(c.thread, knobs.cooldown_epochs)) continue;

    EpochResult::MigrationEvent ev;
    ev.thread = c.thread;
    ev.from = gos_->thread_node(c.thread);
    ev.to = c.to;
    ev.gain_bytes = c.gain_bytes;
    ev.score = c.score;

    if (knobs.dry_run) {
      // Ablation: log what *would* run under the same cap/veto, move
      // nothing, defer nothing — the run stays bit-identical to
      // execution-off so the bench band isolates the execution effect.
      if (admitted && executed < knobs.max_migrations_per_epoch) {
        ++executed;
        result.migrations.push_back(ev);
      }
      continue;
    }

    if (!admitted || executed >= knobs.max_migrations_per_epoch) {
      // Deferred, not dropped: stays the intended placement next epoch.
      still_pending.push_back({c.thread, c.to, c.gain_bytes, c.score});
      result.migrations.push_back(ev);
      continue;
    }

    static const JavaStack kNoStack;
    const JavaStack& stk = c.thread < stacks_.size() ? stacks_[c.thread] : kNoStack;
    const ClassFootprint fp =
        c.thread < footprints.size() ? footprints[c.thread] : ClassFootprint{};
    const MigrationOutcome out = migration_.migrate_with_resolution(
        c.thread, c.to, stk, last_invariants(c.thread), fp,
        cfg_.landmark_tolerance,
        knobs.follow_homes ? knobs.max_home_migrations : 0);
    ++executed;

    ev.executed = true;
    ev.sim_cost = out.sim_cost;
    ev.prefetched_bytes = out.prefetched_bytes;
    ev.homes_migrated = out.homes_migrated;
    result.migrations.push_back(ev);

    Governor::ExecutedMigration rec;
    rec.epoch = static_cast<std::uint64_t>(gov.epochs_seen());
    rec.thread = c.thread;
    rec.from = ev.from;
    rec.to = c.to;
    rec.gain_bytes = c.gain_bytes;
    rec.sim_cost_seconds = static_cast<double>(out.sim_cost) * 1e-9;
    rec.prefetched_bytes = out.prefetched_bytes;
    gov.record_migration(rec);
  }
  if (!knobs.dry_run) planned_moves_ = std::move(still_pending);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void Djvm::add_access_observer(AccessObserver obs) {
  access_observers_.push_back(std::move(obs));
  gos_->set_observe_accesses(true);
}

void Djvm::add_interval_observer(IntervalObserver obs) {
  interval_observers_.push_back(std::move(obs));
}

void Djvm::on_stack_sample(ThreadId t) {
  if (t >= stacks_.size()) return;
  const StackSampleWork work = stackman_.sample(t, stacks_[t]);
  const SimTime cost = stack_work_cost(work);
  gos_->clock(t).advance(cost);
  stack_sampling_sim_cost_ += cost;
  const NodeId node = gos_->thread_node(t);
  if (stack_cost_by_node_.size() <= node) stack_cost_by_node_.resize(node + 1, 0);
  stack_cost_by_node_[node] += cost;
}

void Djvm::on_interval_close(ThreadId t) {
  fptracker_.on_interval_close(t, gos_->footprint_touches(t));
  if (cfg_.stack_sampling && t < stacks_.size() && !stacks_[t].empty()) {
    if (last_invariants_.size() <= t) {
      last_invariants_.resize(static_cast<std::size_t>(t) + 1);
    }
    auto inv = stackman_.invariant_refs(t, stacks_[t]);
    if (!inv.empty()) last_invariants_[t] = std::move(inv);
  }
  for (const auto& obs : interval_observers_) obs(t);
}

void Djvm::on_access(ThreadId t, ObjectId obj, bool write) {
  for (const auto& obs : access_observers_) obs(t, obj, write);
}

}  // namespace djvm
