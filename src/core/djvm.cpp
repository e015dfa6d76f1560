#include "core/djvm.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "balance/balancer_feedback.hpp"
#include "balance/load_balancer.hpp"
#include "export/timeline.hpp"

namespace djvm {

namespace {
/// Growth of one monotonic counter since the previous read.  A
/// Gos::reset_stats() or Network::reset_stats() between reads restarts a
/// counter below that read, and a thread migrating mid-epoch takes its clock
/// out of its old node's sum; either way the value read now is the whole
/// growth, where the unsigned subtraction would wrap.
std::uint64_t grown(std::uint64_t now, std::uint64_t then) {
  return now >= then ? now - then : now;
}

CategoryBytes grown(const CategoryBytes& now, const CategoryBytes& then) {
  CategoryBytes out{};
  for (std::size_t c = 0; c < out.size(); ++c) out[c] = grown(now[c], then[c]);
  return out;
}

ProfilingCounters grown(const ProfilingCounters& now,
                        const ProfilingCounters& then) {
  return {grown(now.oal_entries, then.oal_entries),
          grown(now.footprint_touches, then.footprint_touches),
          grown(now.oal_send_ns, then.oal_send_ns),
          grown(now.thread_clocks, then.thread_clocks),
          grown(now.stack_cost, then.stack_cost)};
}

/// Every counter's growth from `then` to `now`.
EpochCounters growth(const EpochCounters& now, const EpochCounters& then) {
  EpochCounters d;
  d.cluster = grown(now.cluster, then.cluster);
  d.nodes.resize(now.nodes.size());
  for (std::size_t n = 0; n < now.nodes.size(); ++n) {
    d.nodes[n] = grown(now.nodes[n], n < then.nodes.size() ? then.nodes[n]
                                                            : ProfilingCounters{});
  }
  d.traffic.bytes = grown(now.traffic.bytes, then.traffic.bytes);
  d.traffic.messages = grown(now.traffic.messages, then.traffic.messages);
  d.traffic.dropped = grown(now.traffic.dropped, then.traffic.dropped);
  d.traffic.retries = grown(now.traffic.retries, then.traffic.retries);
  d.traffic.backoff_ns = grown(now.traffic.backoff_ns, then.traffic.backoff_ns);
  d.ingest.arenas_published =
      grown(now.ingest.arenas_published, then.ingest.arenas_published);
  d.ingest.entries_published =
      grown(now.ingest.entries_published, then.ingest.entries_published);
  d.ingest.entries_drained =
      grown(now.ingest.entries_drained, then.ingest.entries_drained);
  d.ingest.backpressure_events =
      grown(now.ingest.backpressure_events, then.ingest.backpressure_events);
  return d;
}

/// Prices one slice's counter growth (the cluster's, or one node's): the
/// worker CPU the GOS charged to thread clocks for profiling, rate-dependent
/// (OAL log service, footprint re-arm touches, and OAL send time as
/// Network::send charged it — latency, piggybacking and local delivery make
/// a flat bytes-per-second price wrong both ways) and rate-independent
/// (stack-sampler timers), and the application seconds left of the clocks'
/// growth once that is taken back out.  One expression for every slice, so
/// a one-node run's node slice equals its cluster slice bit for bit.
template <typename Slice>
void price(Slice& slice, const ProfilingCounters& d) {
  slice.access_check_seconds =
      (static_cast<double>(d.oal_entries) * static_cast<double>(kLogServiceCost) +
       static_cast<double>(d.footprint_touches) *
           static_cast<double>(kFootprintServiceCost)) *
          1e-9 +
      static_cast<double>(d.oal_send_ns) * 1e-9;
  slice.fixed_seconds = static_cast<double>(d.stack_cost) * 1e-9;
  slice.app_seconds =
      std::max(0.0, static_cast<double>(d.thread_clocks) * 1e-9 -
                        slice.access_check_seconds - slice.fixed_seconds);
}

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
      stackman_(heap_, cfg.extraction, kInvariantMinRounds),
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
    gos_->enable_footprinting(cfg_.footprint_timer, kFootprintPhase,
                              cfg_.footprint_rearm);
  } else {
    gos_->disable_footprinting();
  }
  if (cfg_.governor.enabled) {
    GovernorConfig gcfg;
    gcfg.overhead_budget = cfg_.governor.budget;
    gcfg.distance_threshold = cfg_.adapt_threshold;
    gcfg.per_node = true;  // each node held to the budget (GovernorKnobs)
    daemon_.governor().arm(gcfg);
  }
  RetentionPolicy retention;
  retention.idle_epochs = cfg_.retention.idle_epochs;
  retention.decay = cfg_.retention.decay;
  retention.compact_period = cfg_.retention.compact_period;
  daemon_.set_retention(retention);
  // No disarm branch: Config is immutable after construction, so
  // governor.enabled can never transition to false here; a governor never
  // armed stays passive (GovernorMode::kDisarmed).
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

EpochCounters Djvm::read_counters() const {
  EpochCounters c;
  const ProtocolStats& ps = gos_->stats();
  c.cluster.oal_entries = ps.oal_entries;
  c.cluster.footprint_touches = ps.footprint_touches;
  c.cluster.oal_send_ns = ps.oal_send_ns;
  c.cluster.stack_cost = stack_sampling_sim_cost_;
  c.nodes.resize(cfg_.nodes);
  for (std::uint32_t n = 0; n < cfg_.nodes; ++n) {
    const auto node = static_cast<NodeId>(n);
    const NodeProfilingStats& nps = gos_->node_stats(node);
    ProfilingCounters& nc = c.nodes[n];
    nc.oal_entries = nps.oal_entries;
    nc.footprint_touches = nps.footprint_touches;
    nc.oal_send_ns =
        net_.node_traffic(node).send_ns[static_cast<std::size_t>(MsgCategory::kOal)];
    nc.stack_cost = n < stack_cost_by_node_.size() ? stack_cost_by_node_[n] : 0;
  }
  for (ThreadId t = 0; t < thread_count(); ++t) {
    const SimTime now = gos_->clock(t).now();
    c.cluster.thread_clocks += now;
    // A thread that migrated mid-epoch charges its whole clock to its
    // current node — acceptable smear, since migration already implies the
    // planner believes the work belongs there.
    c.nodes[gos_->thread_node(t)].thread_clocks += now;
  }
  c.traffic = net_.stats();
  c.ingest = gos_->ingest().counters();
  return c;
}

EpochResult Djvm::run_epoch(const EpochRequest& request) {
  // Fault tick: the fault schedule's epoch advances with the governor's;
  // timed kills fire here, stall/partition windows key off the new value.
  if (fault_injector_) {
    fault_injector_->begin_epoch(daemon_.epochs_run());
    const FaultKnobs& fplan = fault_injector_->plan();
    if (fplan.kill_node != kInvalidNode &&
        fault_injector_->node_dead(fplan.kill_node) &&
        !daemon_.governor().is_quarantined(fplan.kill_node)) {
      fail_node(fplan.kill_node);  // the plan's timed kill just fired
    }
  }

  // Placement: hand the daemon the balancer's current co-location partition
  // so this epoch's window is attributed per class against it — the
  // influence input of the governor's back-off scoring, and the execution
  // stage's planner input.  Skipped when neither runs (kBytesPerEntry
  // scoring without execution must not pay the attribution walk).
  const Governor& gov = daemon_.governor();
  const bool influence_loop =
      gov.mode() == GovernorMode::kClosedLoop &&
      gov.config().scoring == BackoffScoring::kInfluenceWeighted &&
      thread_count() > 0;
  const bool execute_stage =
      cfg_.balance.max_migrations_per_epoch > 0 && thread_count() > 0;
  std::vector<NodeId> placement;
  if (influence_loop || execute_stage) {
    placement = live_thread_nodes();
    // Deferred planned moves override their threads' live nodes: attribution
    // and planning score the *intended* post-migration placement, so the
    // loop does not re-argue moves it already decided but has not yet run.
    // Executed moves need no override — they are the live nodes.
    for (const PlannedMove& p : planned_moves_) {
      if (p.thread < placement.size()) placement[p.thread] = p.to;
    }
  }
  daemon_.set_influence_placement(std::move(placement));

  // Pump, then one read of every counter; the epoch is priced from its
  // growth since the previous epoch's read.
  pump_daemon();
  const EpochCounters now = read_counters();
  const EpochCounters grown = growth(now, counters_);
  counters_ = now;

  // Sample: last epoch's plan-and-execute stage and the request's billed
  // share (a cluster arbiter's decision time) are coordinator work; the
  // daemon adds this epoch's map construction on top.  Each node's slice
  // prices its own counters against its own application progress, so one
  // hot node cannot hide behind the cluster average.
  OverheadSample s;
  s.measured = true;
  s.build_seconds = plan_carry_seconds_ + request.coordinator_seconds;
  plan_carry_seconds_ = 0.0;
  price(s, grown.cluster);
  s.nodes.resize(cfg_.nodes);
  for (std::uint32_t n = 0; n < cfg_.nodes; ++n) {
    s.nodes[n].node = static_cast<NodeId>(n);
    price(s.nodes[n], grown.nodes[n]);
  }
  // Every backpressure event parked an arena on a worker thread: rate-
  // dependent worker CPU like the log service itself, billed after the
  // application seconds (the clocks never carried it).
  s.access_check_seconds +=
      static_cast<double>(grown.ingest.backpressure_events) *
      kRingBackpressureSeconds;

  EpochResult result = daemon_.run_epoch(s);

  // Telemetry: the daemon never sees the network or the hub.
  result.traffic_bytes = grown.traffic.bytes;
  result.dropped_msgs = grown.traffic.dropped;
  result.retries = grown.traffic.retries;
  result.backoff_ns = grown.traffic.total_backoff_ns();
  result.ring_published = grown.ingest.arenas_published;
  result.ring_entries = grown.ingest.entries_published;
  result.ring_backpressure = grown.ingest.backpressure_events;
  // The pump drained a quiesced hub, so every entry the lanes published this
  // epoch has been drained unless one was lost.
  result.ring_dropped =
      grown.ingest.entries_published - grown.ingest.entries_drained;
  if (fault_injector_) {
    // Name the nodes whose profiling contribution this epoch's map is
    // missing: dead nodes lost their un-shipped slices (see pump_daemon).
    for (std::uint32_t n = 0; n < cfg_.nodes; ++n) {
      if (fault_injector_->node_dead(static_cast<NodeId>(n))) {
        result.lost_nodes.push_back(static_cast<NodeId>(n));
      }
    }
    result.degraded = !result.lost_nodes.empty();
  }

  // Plan and execute, billed to the *next* epoch's sample (this epoch's
  // decision already ran), same carryover pattern as resampling cost.
  if ((influence_loop || execute_stage) && !result.cells.empty()) {
    plan_carry_seconds_ = plan_and_execute(result, influence_loop, execute_stage);
  }

  // Export: the encode and the line render run here (epoch state is ours to
  // read synchronously), the file writes on the background thread.  Every
  // epoch snapshots for crash recovery, and a still-queued older snapshot is
  // simply replaced; timeline lines are batched under disk pressure, never
  // coalesced away.
  if (snapshot_writer_) {
    if (!cfg_.export_.snapshot_path.empty()) {
      snapshot_writer_->save_async(cfg_.export_.snapshot_path,
                                   daemon_.governor(), daemon_.latest());
    }
    if (!cfg_.export_.timeline_path.empty()) {
      snapshot_writer_->append_async(
          cfg_.export_.timeline_path,
          timeline_line(result, daemon_.governor(), registry_, cfg_.tenant.id));
    }
  }
  return result;
}

double Djvm::plan_and_execute(EpochResult& result, bool influence,
                              bool execute) {
  const auto t0 = std::chrono::steady_clock::now();
  // Close the balancer -> governor loop: run the migration planner over the
  // fresh map, condense cut shares + accepted suggestions + remote-home mass
  // into per-class influence, and let the governor's next back-off weight
  // its benefit/cost scores by it.  One epoch of lag by construction (this
  // epoch's decision used last epoch's influence); the governor's
  // exponential-decay memory is what makes that sound.
  //
  // The map's dimension is cfg_.threads (fixed at daemon construction); the
  // planner indexes node_of_thread up to it, so pad past the spawned threads
  // with kInvalidNode — the planner skips unplaced threads entirely, so
  // filler neither migrates nor occupies a node's capacity.
  const Placement current =
      assemble_placement(daemon_.influence_placement(), result.tcm.size());
  // Context bytes come from the stacks (always live); sticky-set footprints
  // only exist when footprinting is on.  Missing entries fall back to the
  // planner's defaults.
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
  if (execute) {
    result.migration_seconds = execute_migrations(result, suggestions, footprints);
  }
  if (influence) {
    daemon_.governor().observe_balancer_feedback(
        build_balancer_feedback(result.cells, suggestions));
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
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
  // one aggregated payload per batch and bills each re-key through
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
        c.thread, c.to, stk, last_invariants(c.thread), fp, kLandmarkTolerance,
        kMaxHomeMigrations);
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
