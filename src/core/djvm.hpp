// The distributed JVM facade: wires every subsystem together and is the
// public entry point used by examples, tests, and the bench harnesses.
//
//   Djvm djvm(cfg);
//   djvm.spawn_threads_round_robin(cfg.threads);
//   ... allocate via djvm.gos().alloc*, access via read()/write(),
//       synchronize via barrier_all()/acquire()/release() ...
//   djvm.pump_daemon();
//   SquareMatrix tcm = djvm.daemon().build_full();
//
// Djvm implements Gos::Hooks: stack-sampling timer crossings run the per-
// thread stack sampler, interval closes feed the sticky-set footprint
// tracker, and the raw access stream fans out to registered observers (the
// page-grain baseline, oracle recorders in benches).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "dsm/gos.hpp"
#include "migration/cost_model.hpp"
#include "migration/migration.hpp"
#include "net/faults.hpp"
#include "net/network.hpp"
#include "governor/snapshot.hpp"
#include "profiling/correlation_daemon.hpp"
#include "profiling/sampling.hpp"
#include "runtime/heap.hpp"
#include "runtime/klass.hpp"
#include "stack/javastack.hpp"
#include "stackprof/stack_sampler.hpp"
#include "sticky/footprint.hpp"

namespace djvm {

struct MigrationSuggestion;  // balance/load_balancer.hpp

/// Observer of the raw access stream (enabled on demand).
using AccessObserver = std::function<void(ThreadId, ObjectId, bool /*write*/)>;
/// Observer of interval closes.
using IntervalObserver = std::function<void(ThreadId)>;

/// One governed epoch's request (Djvm::run_epoch), a small builder.  The
/// default request is a quiet single-tenant epoch, so a run through the
/// tenant API is bit-identical to one that calls run_epoch() directly.
struct EpochRequest {
  /// Coordinator seconds spent outside the facade on this tenant's behalf
  /// this epoch (e.g. the cluster arbiter's billed decision share); folded
  /// into the sample's coordinator bucket exactly like the plan-and-execute
  /// carry.
  double coordinator_seconds = 0.0;

  EpochRequest& bill_coordinator(double seconds) {
    coordinator_seconds += seconds;
    return *this;
  }
};

class TenantContext;

/// One slice (the cluster, or one node) of the counters an epoch's overhead
/// sample is priced from.  Each grows monotonically between stats resets,
/// except a node's clock sum, which drops when a thread migrates away.
struct ProfilingCounters {
  std::uint64_t oal_entries = 0;        ///< OAL log-service entries
  std::uint64_t footprint_touches = 0;  ///< footprint re-arm touches
  std::uint64_t oal_send_ns = 0;        ///< OAL send time charged to clocks
  SimTime thread_clocks = 0;            ///< summed thread clocks
  SimTime stack_cost = 0;               ///< stack-sampler work
};

/// Every monotonic counter Djvm::run_epoch reads, once per epoch right after
/// the pump; the epoch's sample and telemetry come from its growth.
struct EpochCounters {
  ProfilingCounters cluster;
  std::vector<ProfilingCounters> nodes;  ///< indexed by NodeId
  TrafficStats traffic;
  IngestCounters ingest;
};

/// The whole distributed JVM.
class Djvm final : public Gos::Hooks {
 public:
  explicit Djvm(Config cfg);
  ~Djvm() override;
  Djvm(const Djvm&) = delete;
  Djvm& operator=(const Djvm&) = delete;

  // --- subsystem access -------------------------------------------------------
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }
  [[nodiscard]] KlassRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] Heap& heap() noexcept { return heap_; }
  [[nodiscard]] Network& net() noexcept { return net_; }
  [[nodiscard]] SamplingPlan& plan() noexcept { return plan_; }
  [[nodiscard]] Gos& gos() noexcept { return *gos_; }
  [[nodiscard]] CorrelationDaemon& daemon() noexcept { return daemon_; }
  [[nodiscard]] Governor& governor() noexcept { return daemon_.governor(); }
  [[nodiscard]] StackSamplerManager& stack_samplers() noexcept { return stackman_; }
  [[nodiscard]] FootprintTracker& footprints() noexcept { return fptracker_; }
  [[nodiscard]] MigrationEngine& migration() noexcept { return migration_; }
  [[nodiscard]] MigrationCostModel cost_model() const {
    return MigrationCostModel(heap_, cfg_.costs);
  }

  // --- threads -----------------------------------------------------------------
  ThreadId spawn_thread(NodeId node);
  /// Spawns `count` threads, thread i on node i % nodes.
  void spawn_threads_round_robin(std::uint32_t count);
  [[nodiscard]] std::uint32_t thread_count() const noexcept {
    return gos_->thread_count();
  }
  [[nodiscard]] JavaStack& stack(ThreadId t) { return stacks_[t]; }

  // --- convenience passthroughs (the "bytecode" API workloads program to) ------
  void read(ThreadId t, ObjectId obj) { gos_->read(t, obj); }
  void write(ThreadId t, ObjectId obj) { gos_->write(t, obj); }
  void barrier_all() { gos_->barrier_all(); }
  void acquire(ThreadId t, LockId l) { gos_->acquire(t, l); }
  void release(ThreadId t, LockId l) { gos_->release(t, l); }

  // --- profiling control ---------------------------------------------------------
  /// Applies the Config's profiling switches (sampling rate, tracking mode,
  /// stack sampling, footprinting) to the live system.
  void apply_profiling_config();

  /// Drains published ingest arenas into the correlation daemon.  With a
  /// fault injector attached, a dead node's un-shipped slices are dropped at
  /// ingest (they died with the node).
  void pump_daemon();

  /// The Gos-owned lock-free ingest hub routing interval OALs from worker
  /// threads to the daemon.  Tools that read the raw OAL stream drain it
  /// before pump_daemon() (whatever they pop, the daemon never sees).
  [[nodiscard]] IngestHub* ingest_hub() noexcept { return &gos_->ingest(); }

  /// The per-epoch governor pump: drains the ingest lanes, reads every
  /// monotonic counter once (EpochCounters) and diffs it against the
  /// previous epoch's read, prices the growth into the epoch's overhead
  /// sample — cluster aggregate plus one per-node slice per worker node —
  /// and runs one daemon epoch under the governor.  The same growth fills
  /// the result's traffic, fault and ring telemetry; ring_dropped is the
  /// epoch's published-but-never-drained entries after the pump (0 unless
  /// an entry was lost).  Call once per epoch (e.g. after each barrier round).
  /// With Config::export_.snapshot_path set, the epoch's governor state +
  /// TCM are handed to the async snapshot writer afterwards.
  ///
  /// With Config::balance.max_migrations_per_epoch > 0 the pump closes the
  /// plan→execute→re-key→refeed loop: after the migration planner runs, the
  /// top-scoring suggestions are *executed* via the MigrationEngine
  /// (sticky-set prefetch from last_invariants + footprints, optional
  /// follow-the-thread home migration), capped per epoch, score- and
  /// cooldown-filtered, and vetoed entirely while the governor is over its
  /// back-off band.  Deferred moves persist as the *intended* placement the
  /// next epoch's attribution and planning score.
  EpochResult run_epoch(const EpochRequest& request = {});

  /// The tenant session handle bound to this VM (identity from
  /// Config::tenant).  Cheap to construct; see TenantContext below.
  [[nodiscard]] TenantContext tenant() noexcept;

  /// Live thread→node walk (the balancer's current co-location partition).
  [[nodiscard]] std::vector<NodeId> live_thread_nodes() const;

  // --- fault tolerance ------------------------------------------------------
  /// The fault injector driving the network's fault plan (nullptr unless
  /// Config::faults.enabled, or until the first fail_node call).
  [[nodiscard]] FaultInjector* fault_injector() noexcept {
    return fault_injector_.get();
  }

  /// Fails `node` mid-run: the injector marks it dead (all traffic to/from
  /// it drops), the governor quarantines it out of offender scoring and the
  /// tighten quorum, pending planned moves targeting it are cancelled, its
  /// threads fail over round-robin to surviving nodes, and every object
  /// homed there is re-homed across the survivors through the existing
  /// Gos::migrate_homes path (re-key visits billed via on_home_migrated).
  /// Lazily creates the injector from Config::faults when none is attached.
  /// Idempotent; a no-op when `node` is out of range or the last node alive.
  void fail_node(NodeId node);

  /// Moves admitted by the planner but deferred by the per-epoch cap or a
  /// governor veto, still awaiting execution.
  [[nodiscard]] std::size_t planned_moves_pending() const noexcept {
    return planned_moves_.size();
  }

  /// The background snapshot/timeline writer (nullptr unless
  /// Config::export_.snapshot_path or Config::export_.timeline_path is set).  Exposed so
  /// callers can flush() before inspecting the files.
  [[nodiscard]] SnapshotWriter* snapshot_writer() noexcept {
    return snapshot_writer_.get();
  }

  /// Stack-invariant refs of `t` right now (topmost first).
  [[nodiscard]] std::vector<ObjectId> invariants(ThreadId t) const {
    return stackman_.invariant_refs(t, stacks_[t]);
  }

  /// Invariants snapshotted at `t`'s most recent interval close while stack
  /// sampling was on.  Migration normally happens mid-execution; callers
  /// inspecting a finished run (whose frames are already popped) use this.
  [[nodiscard]] const std::vector<ObjectId>& last_invariants(ThreadId t) const {
    static const std::vector<ObjectId> kEmpty;
    return t < last_invariants_.size() ? last_invariants_[t] : kEmpty;
  }

  // --- observers (baseline, oracles) ---------------------------------------------
  /// Registers a raw-access observer and enables access observation.
  void add_access_observer(AccessObserver obs);
  void add_interval_observer(IntervalObserver obs);

  // --- Gos::Hooks -----------------------------------------------------------------
  void on_stack_sample(ThreadId t) override;
  void on_interval_close(ThreadId t) override;
  void on_access(ThreadId t, ObjectId obj, bool write) override;

  /// Total simulated work done by the stack samplers, converted to SimTime
  /// and already charged to thread clocks.
  [[nodiscard]] SimTime stack_sampling_sim_cost() const noexcept {
    return stack_sampling_sim_cost_;
  }

 private:
  Config cfg_;
  KlassRegistry registry_;
  Heap heap_;
  Network net_;
  SamplingPlan plan_;
  std::unique_ptr<Gos> gos_;
  std::vector<JavaStack> stacks_;
  StackSamplerManager stackman_;
  FootprintTracker fptracker_;
  CorrelationDaemon daemon_;
  MigrationEngine migration_;
  std::unique_ptr<SnapshotWriter> snapshot_writer_;
  std::unique_ptr<FaultInjector> fault_injector_;
  /// True once pump_daemon wired the daemon's dead-node slice filter to the
  /// fault injector (installed lazily: fail_node can create the injector
  /// mid-run).
  bool node_filter_installed_ = false;

  /// One admitted-but-deferred migration (per-epoch cap or governor veto):
  /// overrides the influence placement as the intended post-migration spot
  /// until the execution stage runs it.
  struct PlannedMove {
    ThreadId thread = kInvalidThread;
    NodeId to = kInvalidNode;
    double gain_bytes = 0.0;
    double score = 0.0;
  };

  /// The plan-and-execute stage of run_epoch: runs the migration planner
  /// over the epoch's map, executes its suggestions when `execute` is set,
  /// folds them into the governor's influence feedback when `influence` is
  /// set, and returns the stage's real seconds.
  double plan_and_execute(EpochResult& result, bool influence, bool execute);

  /// The execution stage of run_epoch (see Config::balance):
  /// applies deferred planned moves and fresh admitted suggestions under
  /// the cap/min-score/cooldown/veto/dry-run knobs, records events into
  /// `result`, and returns the stage's real seconds.
  double execute_migrations(EpochResult& result,
                            const std::vector<MigrationSuggestion>& suggestions,
                            const std::vector<ClassFootprint>& footprints);

  /// Reads every monotonic counter an epoch is priced from.
  [[nodiscard]] EpochCounters read_counters() const;

  std::vector<AccessObserver> access_observers_;
  std::vector<IntervalObserver> interval_observers_;
  std::vector<std::vector<ObjectId>> last_invariants_;
  std::vector<PlannedMove> planned_moves_;
  /// Real seconds last epoch's plan-and-execute stage cost (planner,
  /// feedback fold, migration execution); coordinator work billed into the
  /// next epoch's sample, the same carryover pattern as resampling.
  double plan_carry_seconds_ = 0.0;
  SimTime stack_sampling_sim_cost_ = 0;
  /// Stack-sampler cost attributed to the node the sampled thread ran on.
  std::vector<SimTime> stack_cost_by_node_;
  /// The counters as run_epoch last read them.
  EpochCounters counters_;
};

/// A tenant's session handle over one Djvm: the first-class surface a
/// multi-tenant host programs against.  It names the tenant (identity comes
/// from Config::tenant, stamped into every timeline line), runs governed
/// epochs via EpochRequest, and carries the budget handshake with a cluster
/// arbiter (adopt_lease / lease).  The handle is a non-owning view — copy it
/// freely; the Djvm must outlive it.
class TenantContext {
 public:
  explicit TenantContext(Djvm& vm) noexcept : vm_(&vm) {}

  [[nodiscard]] TenantId id() const noexcept { return vm_->config().tenant.id; }
  [[nodiscard]] const std::string& name() const noexcept {
    return vm_->config().tenant.name;
  }
  [[nodiscard]] std::uint32_t tier() const noexcept {
    return vm_->config().tenant.tier;
  }
  [[nodiscard]] double weight() const noexcept {
    return vm_->config().tenant.weight;
  }

  [[nodiscard]] Djvm& vm() noexcept { return *vm_; }
  [[nodiscard]] Governor& governor() noexcept { return vm_->governor(); }

  /// Runs one governed epoch for this tenant (see Djvm::run_epoch).
  EpochResult run_epoch(const EpochRequest& request = {}) {
    return vm_->run_epoch(request);
  }

  /// Adopts an arbiter-granted budget lease: the governor's budget follows
  /// the grant and the lease is carried into snapshots (v7 section).
  void adopt_lease(const Governor::TenantLease& lease) {
    vm_->governor().adopt_lease(lease);
  }
  [[nodiscard]] const std::optional<Governor::TenantLease>& lease() const noexcept {
    return vm_->governor().lease();
  }

 private:
  Djvm* vm_;
};

inline TenantContext Djvm::tenant() noexcept { return TenantContext(*this); }

}  // namespace djvm
