// perfbench: the repository benchmark program.  run.py builds it and calls it
// twice per benchmark run:
//
//   perfbench oracle --workload W --seed S --out FILE
//       Runs the untimed full-sampling oracle pass and stores its maps and
//       application checksum in FILE.
//   perfbench run --workload W --seed S --seconds T --trace 0|1
//                 --oracle FILE --out-dir DIR
//       Repeats the governed workload, each repetition freshly constructed,
//       until T seconds have passed (at least twice), checks every output,
//       and prints the result as one JSON object on the last line.
//
// The loop is closed: one thread issues an epoch's application work, then
// calls the governed epoch and waits for it before the next epoch.
// Every epoch is timed, epoch 0 included, on the benchmark's own clock.
// With --trace 1, untraced and traced repetitions alternate: the traced ones
// give the per-layer figures, the untraced ones the tracing overhead and the
// reference the traced run must reproduce exactly.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "stats.hpp"
#include "systems.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using djvm::Djvm;
using djvm::EpochResult;
using djvm::MsgCategory;
using djvm::SquareMatrix;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// --- command line ------------------------------------------------------------

struct Args {
  std::string mode;
  Workload workload = Workload::kServe;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string oracle_path;
  std::string out_dir;
};

bool parse_args(int argc, char** argv, Args& a) {
  if (argc < 2) return false;
  a.mode = argv[1];
  if (a.mode != "oracle" && a.mode != "run") return false;
  bool have_workload = false;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      const auto w = parse_workload(val);
      if (!w) return false;
      a.workload = *w;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') return false;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || !(a.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a.trace = val == "1";
    } else if (key == "--oracle" || key == "--out") {
      a.oracle_path = val;
    } else if (key == "--out-dir") {
      a.out_dir = val;
    } else {
      return false;
    }
  }
  if (argc % 2 != 0) return false;  // a key without its value
  return have_workload && !a.oracle_path.empty() &&
         (a.mode == "oracle" || !a.out_dir.empty());
}

// --- the oracle pass -----------------------------------------------------------

/// What the full-sampling oracle pass produced for one seed.
struct Oracle {
  double checksum = 0.0;
  std::uint32_t epochs = 0;
  std::uint32_t tenants = 0;
  std::uint32_t n = 0;  ///< map dimension (threads per tenant)
  /// Window map (EpochResult::tcm) per epoch and tenant, then build_full()
  /// per tenant, each n * n cells.
  std::vector<double> cells;

  [[nodiscard]] SquareMatrix map(std::size_t index) const {
    SquareMatrix m(n);
    const auto first = cells.begin() + static_cast<std::ptrdiff_t>(index * n * n);
    std::copy(first, first + static_cast<std::ptrdiff_t>(n * n), m.raw().begin());
    return m;
  }
  [[nodiscard]] SquareMatrix window(std::size_t epoch, std::size_t tenant) const {
    return map(epoch * tenants + tenant);
  }
  [[nodiscard]] SquareMatrix full(std::size_t tenant) const {
    return map(std::size_t{epochs} * tenants + tenant);
  }
};

/// Hex floats show every bit, so checksum mismatches print exactly.
std::string hexfloat(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string oracle_header(const Args& a) {
  return std::string("perfbench-oracle 2 ") + workload_name(a.workload) + " " +
         std::to_string(a.seed);
}

/// File layout: the header line, then checksum, epochs, tenants, n and the
/// cells in native binary form (the file never leaves the machine).
int run_oracle(const Args& a) {
  std::unique_ptr<System> sys = make_system(a.workload, a.seed, Pass::kOracle, "");
  Oracle o;
  o.epochs = sys->epochs();
  o.tenants = static_cast<std::uint32_t>(sys->vms().size());
  o.n = sys->vms()[0]->config().threads;
  for (std::uint32_t e = 0; e < o.epochs; ++e) {
    sys->step();
    for (const EpochResult& r : sys->run_epoch().tenants) {
      o.cells.insert(o.cells.end(), r.tcm.raw().begin(), r.tcm.raw().end());
    }
  }
  for (Djvm* vm : sys->vms()) {
    const SquareMatrix m = vm->daemon().build_full();
    o.cells.insert(o.cells.end(), m.raw().begin(), m.raw().end());
  }
  o.checksum = sys->checksum();
  std::ofstream out(a.oracle_path, std::ios::binary | std::ios::trunc);
  out << oracle_header(a) << "\n";
  out.write(reinterpret_cast<const char*>(&o.checksum), sizeof o.checksum);
  for (const std::uint32_t v : {o.epochs, o.tenants, o.n}) {
    out.write(reinterpret_cast<const char*>(&v), sizeof v);
  }
  out.write(reinterpret_cast<const char*>(o.cells.data()),
            static_cast<std::streamsize>(o.cells.size() * sizeof(double)));
  out.flush();
  if (!out) {
    std::cerr << "perfbench: cannot write " << a.oracle_path << "\n";
    return 2;
  }
  return 0;
}

std::optional<Oracle> read_oracle(const Args& a) {
  std::ifstream in(a.oracle_path, std::ios::binary);
  std::string header;
  if (!std::getline(in, header) || header != oracle_header(a)) return std::nullopt;
  Oracle o;
  in.read(reinterpret_cast<char*>(&o.checksum), sizeof o.checksum);
  for (std::uint32_t* v : {&o.epochs, &o.tenants, &o.n}) {
    in.read(reinterpret_cast<char*>(v), sizeof *v);
  }
  if (!in || o.epochs > 100000 || o.tenants > 64 || o.n > 4096) return std::nullopt;
  o.cells.resize((std::size_t{o.epochs} + 1) * o.tenants * o.n * o.n);
  in.read(reinterpret_cast<char*>(o.cells.data()),
          static_cast<std::streamsize>(o.cells.size() * sizeof(double)));
  if (!in || in.peek() != std::char_traits<char>::eof()) return std::nullopt;
  return o;
}

// --- one repetition --------------------------------------------------------------

/// Figures one repetition produced.  `exact` holds every simulated metric
/// and per-layer count: they are deterministic per seed, so every
/// repetition, traced or not, must reproduce them bit for bit.
struct Rep {
  bool traced = false;
  double setup_s = 0.0;
  std::vector<double> epoch_s;  ///< host seconds per epoch
  /// Simulated GOS accesses per host second, per epoch.
  std::vector<double> access_rate;
  std::vector<std::pair<std::string, double>> exact;
  std::map<std::string, double> host;  ///< host-timed per-layer figures
  std::vector<std::string> violations;
  std::size_t failed_epochs = 0;
  std::string trace_json;  ///< spans and per-epoch layer times (traced)
};

/// Everything summed while the epochs run (bookkeeping outside the timed
/// window).
struct Tally {
  double profiling_s = 0.0;
  double app_s = 0.0;
  std::size_t tenant_epochs = 0;
  std::size_t over_budget = 0;
  double window_error = 0.0;       ///< sum of per-epoch window map errors
  std::size_t window_epochs = 0;  ///< (tenant-)epochs the oracle saw traffic in
  std::uint64_t intervals = 0;
  std::uint64_t entries = 0;
  std::uint64_t ring_dropped = 0;
  std::uint64_t resampled = 0;
  std::uint64_t backoffs = 0, tightens = 0, converges = 0, rearms = 0;
  std::uint64_t executed = 0, deferred = 0, prefetched_bytes = 0,
                homes_migrated = 0, migration_sim_ns = 0;
  std::uint64_t borrow_rounds = 0, lend_rounds = 0;
  double granted_max_frac = 0.0;
  std::uint64_t retained_objects = 0, dropped_objects = 0;
  // host seconds the program reported about itself
  double build_s = 0.0, densify_s = 0.0, migration_s = 0.0, plan_s = 0.0,
         arbitrate_s = 0.0;
  std::size_t plan_epochs = 0;  ///< epochs whose planner time was recovered
};

std::size_t count_lines(const std::string& path) {
  std::ifstream in(path);
  std::size_t n = 0;
  std::string line;
  while (std::getline(in, line)) ++n;
  return n;
}

Rep run_rep(const Args& a, const Oracle& oracle, bool traced,
            const std::string& export_dir) {
  Rep rep;
  rep.traced = traced;
  const Clock::time_point t_setup = Clock::now();
  std::unique_ptr<System> sys = make_system(a.workload, a.seed, Pass::kGoverned, export_dir);
  rep.setup_s = seconds_between(t_setup, Clock::now());

  const std::vector<Djvm*>& vms = sys->vms();
  const std::size_t tenants = vms.size();
  const std::uint32_t epochs = sys->epochs();
  if (oracle.epochs != epochs || oracle.tenants != tenants ||
      oracle.n != vms[0]->config().threads) {
    rep.violations.push_back("the oracle file does not match this workload's shape");
    return rep;
  }
  djvm::ClusterCoordinator* cluster = sys->cluster();
  Tracer tracer(traced ? std::size_t{epochs} * 10 + 8 : 0);
  Tally tally;
  std::vector<double> budgets(tenants, 0.0);
  std::vector<double> prev_migration(tenants, 0.0);
  double prev_decision_s = 0.0;
  std::int32_t prev_core = -1;
  std::vector<std::int32_t> roots;
  std::vector<double> resample_epoch_s;
  std::uint64_t prev_accesses = 0;
  rep.epoch_s.reserve(epochs);

  for (std::uint32_t e = 0; e < epochs; ++e) {
    for (std::size_t i = 0; i < tenants; ++i) {
      budgets[i] = vms[i]->governor().config().overhead_budget;
    }
    Governed g;
    std::int32_t core = -1;
    double ingest_s = 0.0;
    if (!traced) {
      const Clock::time_point t0 = Clock::now();
      sys->step();
      g = sys->run_epoch();
      rep.epoch_s.push_back(seconds_between(t0, Clock::now()));
    } else {
      const std::int32_t root = tracer.begin("epoch", -1, e);
      const std::int32_t step = tracer.begin("apps.step", root, e);
      sys->step();
      tracer.end(step);
      const std::int32_t ingest = tracer.begin("profiling.ingest", root, e);
      for (Djvm* vm : vms) vm->pump_daemon();
      tracer.end(ingest);
      core = tracer.begin("core.run_epoch", root, e);
      g = sys->run_epoch();
      tracer.end(core);
      tracer.end(root);
      roots.push_back(root);
      const auto& spans = tracer.spans();
      rep.epoch_s.push_back(static_cast<double>(spans[root].dur_ns) * 1e-9);
      ingest_s = static_cast<double>(spans[ingest].dur_ns) * 1e-9;
    }

    // --- bookkeeping, outside the timed window ---
    const double coordinator_share =
        cluster != nullptr ? prev_decision_s / static_cast<double>(tenants) : 0.0;
    double build_s = 0.0, densify_s = 0.0, migration_s = 0.0, plan_prev_s = 0.0;
    bool resampled = false;
    bool epoch_ok = true;
    for (std::size_t i = 0; i < tenants; ++i) {
      const EpochResult& r = g.tenants[i];
      const djvm::OverheadMeter& meter = vms[i]->governor().meter();
      tally.profiling_s += meter.profiling_seconds(r.sample);
      tally.app_s += r.sample.app_seconds;
      ++tally.tenant_epochs;
      if (r.overhead_fraction > budgets[i]) ++tally.over_budget;
      const SquareMatrix reference = oracle.window(e, i);
      if (reference.total() > 0.0) {
        tally.window_error += unit_mass_error(r.tcm, reference);
        ++tally.window_epochs;
      }
      tally.intervals += r.intervals;
      tally.entries += r.entries;
      tally.ring_dropped += r.ring_dropped;
      if (r.ring_dropped != 0) epoch_ok = false;
      tally.resampled += r.resampled_objects;
      resampled = resampled || r.resampled_objects > 0;
      switch (r.action) {
        case djvm::GovernorAction::kBackOff: ++tally.backoffs; break;
        case djvm::GovernorAction::kTighten: ++tally.tightens; break;
        case djvm::GovernorAction::kConverge: ++tally.converges; break;
        case djvm::GovernorAction::kRearm: ++tally.rearms; break;
        case djvm::GovernorAction::kNone: break;
      }
      for (const EpochResult::MigrationEvent& m : r.migrations) {
        if (m.executed) {
          ++tally.executed;
          tally.prefetched_bytes += m.prefetched_bytes;
          tally.homes_migrated += m.homes_migrated;
          tally.migration_sim_ns += m.sim_cost;
        } else {
          ++tally.deferred;
        }
      }
      if (e + 1 == epochs) {
        tally.retained_objects += r.retained_objects;
        tally.dropped_objects += r.dropped_objects;
      }
      build_s += r.build_seconds;
      densify_s += r.densify_seconds;
      migration_s += r.migration_seconds;
      if (e > 0) {
        plan_prev_s += recovered_plan_seconds(r.sample.build_seconds, r.build_seconds,
                                              prev_migration[i], coordinator_share);
      }
      prev_migration[i] = r.migration_seconds;
    }
    double decision_s = 0.0;
    if (g.arbitration) {
      const djvm::ArbitrationOutcome& arb = *g.arbitration;
      decision_s = arb.decision_seconds;
      if (arb.lenders > 0) ++tally.lend_rounds;
      if (arb.borrowers > 0) ++tally.borrow_rounds;
      if (arb.global_budget > 0.0) {
        tally.granted_max_frac =
            std::max(tally.granted_max_frac, arb.granted_total / arb.global_budget);
      }
      double leased = 0.0;
      for (const auto& lease : arb.leases) {
        leased += lease.granted_budget;
        if (lease.granted_budget < lease.floor) epoch_ok = false;
      }
      if (leased > arb.global_budget * (1.0 + 1e-12)) epoch_ok = false;
    }
    if (!epoch_ok) ++rep.failed_epochs;
    tally.build_s += build_s;
    tally.densify_s += densify_s;
    tally.migration_s += migration_s;
    tally.arbitrate_s += decision_s;
    if (e > 0) {
      tally.plan_s += plan_prev_s;
      ++tally.plan_epochs;
    }
    if (resampled) resample_epoch_s.push_back(rep.epoch_s.back());
    std::uint64_t accesses = 0;
    for (Djvm* vm : vms) accesses += vm->gos().stats().accesses;
    rep.access_rate.push_back(static_cast<double>(accesses - prev_accesses) /
                              rep.epoch_s.back());
    prev_accesses = accesses;
    if (traced) {
      // The program's own durations, nested under the governed epoch that
      // contained them.  The ingest span already holds the folds that
      // build_seconds counts, so the build child is the remainder.
      const std::int32_t build = tracer.reported(
          "profiling.build", core, e, std::max(0.0, build_s - ingest_s));
      tracer.reported("profiling.densify", build, e, densify_s);
      tracer.reported("migration.exec", core, e, migration_s);
      if (g.arbitration) tracer.reported("cluster.arbitrate", core, e, decision_s);
      if (prev_core >= 0) tracer.reported("balance.plan", prev_core, e - 1, plan_prev_s);
      prev_core = core;
    }
    prev_decision_s = decision_s;
  }

  // --- after the last epoch ---
  double flush_s = 0.0;
  {
    std::int32_t span = traced ? tracer.begin("export.flush", -1, epochs) : -1;
    const Clock::time_point t0 = Clock::now();
    for (Djvm* vm : vms) {
      if (vm->snapshot_writer() != nullptr) vm->snapshot_writer()->flush();
    }
    flush_s = seconds_between(t0, Clock::now());
    if (traced) tracer.end(span);
  }

  djvm::ProtocolStats ps;
  djvm::TrafficStats ts;
  djvm::IngestCounters ic;
  double sim_wall_ns = 0.0, stack_sim_ns = 0.0, run_map_error = 0.0;
  std::uint64_t objects = 0, snapshots = 0, coalesced = 0, lines = 0;
  for (std::size_t i = 0; i < tenants; ++i) {
    Djvm& vm = *vms[i];
    const djvm::ProtocolStats& s = vm.gos().stats();
    ps.accesses += s.accesses;
    ps.object_faults += s.object_faults;
    ps.fault_bytes += s.fault_bytes;
    ps.diffs_sent += s.diffs_sent;
    ps.intervals_closed += s.intervals_closed;
    ps.home_migrations += s.home_migrations;
    ps.oal_entries += s.oal_entries;
    ps.stack_samples += s.stack_samples;
    ps.footprint_touches += s.footprint_touches;
    const djvm::TrafficStats& t = vm.net().stats();
    for (std::size_t c = 0; c < t.bytes.size(); ++c) {
      ts.bytes[c] += t.bytes[c];
      ts.messages[c] += t.messages[c];
    }
    const djvm::IngestCounters c = vm.ingest_hub()->counters();
    ic.arenas_published += c.arenas_published;
    ic.entries_published += c.entries_published;
    ic.entries_drained += c.entries_drained;
    ic.backpressure_events += c.backpressure_events;
    for (djvm::ThreadId th = 0; th < vm.thread_count(); ++th) {
      sim_wall_ns = std::max(sim_wall_ns, static_cast<double>(vm.gos().clock(th).now()));
    }
    stack_sim_ns += static_cast<double>(vm.stack_sampling_sim_cost());
    objects += vm.heap().object_count();
    if (djvm::SnapshotWriter* w = vm.snapshot_writer()) {
      snapshots += w->submitted();
      coalesced += w->coalesced();
      lines += w->appended();
      if (!w->all_ok()) rep.violations.push_back("snapshot writer reported a failed write");
      const std::size_t file_lines = count_lines(vm.config().export_.timeline_path);
      if (file_lines != epochs) {
        rep.violations.push_back("tenant " + std::to_string(i) + " timeline has " +
                                 std::to_string(file_lines) + " lines for " +
                                 std::to_string(epochs) + " epochs");
      }
    }
    const SquareMatrix map = vm.daemon().build_full();
    if (!map_well_formed(map, vm.config().threads)) {
      rep.violations.push_back("tenant " + std::to_string(i) + " map is not finite, "
                               "non-negative and threads x threads");
    } else {
      run_map_error += unit_mass_error(map, oracle.full(i));
    }
  }
  run_map_error /= static_cast<double>(tenants);

  if (ic.entries_published != ic.entries_drained) {
    rep.violations.push_back("ingest published " + std::to_string(ic.entries_published) +
                             " entries but drained " + std::to_string(ic.entries_drained));
  }
  if (tally.ring_dropped != 0) rep.violations.push_back("ingest rings dropped arenas");
  if (rep.failed_epochs != 0) {
    rep.violations.push_back(std::to_string(rep.failed_epochs) +
                             " epochs broke a lease or ring invariant");
  }
  const double checksum = sys->checksum();
  if (std::memcmp(&checksum, &oracle.checksum, sizeof checksum) != 0) {
    rep.violations.push_back("checksum " + hexfloat(checksum) + " differs from the oracle's " +
                             hexfloat(oracle.checksum));
  }

  const auto kb = [&](MsgCategory c) { return static_cast<double>(ts.bytes_of(c)) / 1024.0; };
  double messages = 0.0;
  for (std::uint64_t m : ts.messages) messages += static_cast<double>(m);
  const double executed = static_cast<double>(tally.executed);
  const double moves = executed + static_cast<double>(tally.deferred);
  rep.exact = {
      {"sim_wall_s", sim_wall_ns * 1e-9},
      {"overhead_frac", tally.app_s > 0.0 ? tally.profiling_s / tally.app_s : 0.0},
      {"within_budget_frac", 1.0 - static_cast<double>(tally.over_budget) /
                                       static_cast<double>(tally.tenant_epochs)},
      {"map_error", tally.window_epochs > 0
                        ? tally.window_error / static_cast<double>(tally.window_epochs)
                        : 0.0},
      {"checksum", checksum},
      {"dsm.accesses", static_cast<double>(ps.accesses)},
      {"dsm.object_faults", static_cast<double>(ps.object_faults)},
      {"dsm.fault_kb", static_cast<double>(ps.fault_bytes) / 1024.0},
      {"dsm.diffs_sent", static_cast<double>(ps.diffs_sent)},
      {"dsm.intervals_closed", static_cast<double>(ps.intervals_closed)},
      {"dsm.home_migrations", static_cast<double>(ps.home_migrations)},
      {"dsm.fault_ratio", ps.accesses > 0 ? static_cast<double>(ps.object_faults) /
                                                static_cast<double>(ps.accesses)
                                          : 0.0},
      {"net.kb.object-data", kb(MsgCategory::kObjectData)},
      {"net.kb.oal", kb(MsgCategory::kOal)},
      {"net.kb.control", kb(MsgCategory::kControl)},
      {"net.kb.migration", kb(MsgCategory::kMigration)},
      {"net.messages", messages},
      {"profiling.oal_entries", static_cast<double>(ps.oal_entries)},
      {"profiling.intervals", static_cast<double>(tally.intervals)},
      {"profiling.ring_arenas", static_cast<double>(ic.arenas_published)},
      {"profiling.ring_backpressure", static_cast<double>(ic.backpressure_events)},
      {"profiling.lost_entries",
       static_cast<double>(ic.entries_published) - static_cast<double>(ic.entries_drained)},
      {"profiling.retained_objects", static_cast<double>(tally.retained_objects)},
      {"profiling.dropped_objects", static_cast<double>(tally.dropped_objects)},
      {"profiling.run_map_error", run_map_error},
      {"governor.over_budget_epochs", static_cast<double>(tally.over_budget)},
      {"governor.resampled_objects", static_cast<double>(tally.resampled)},
      {"governor.backoffs", static_cast<double>(tally.backoffs)},
      {"governor.tightens", static_cast<double>(tally.tightens)},
      {"governor.converges", static_cast<double>(tally.converges)},
      {"governor.rearms", static_cast<double>(tally.rearms)},
      {"migration.executed", executed},
      {"migration.deferred", static_cast<double>(tally.deferred)},
      {"migration.exec_ratio", moves > 0.0 ? executed / moves : 0.0},
      {"migration.prefetched_kb", static_cast<double>(tally.prefetched_bytes) / 1024.0},
      {"migration.homes_migrated", static_cast<double>(tally.homes_migrated)},
      {"migration.sim_cost_ms", static_cast<double>(tally.migration_sim_ns) * 1e-6},
      {"cluster.borrow_rounds", static_cast<double>(tally.borrow_rounds)},
      {"cluster.lend_rounds", static_cast<double>(tally.lend_rounds)},
      {"cluster.granted_max_frac", tally.granted_max_frac},
      {"export.snapshots", static_cast<double>(snapshots)},
      {"export.lines", static_cast<double>(lines)},
      {"stackprof.samples", static_cast<double>(ps.stack_samples)},
      {"stackprof.sim_ms", stack_sim_ns * 1e-6},
      {"sticky.footprint_touches", static_cast<double>(ps.footprint_touches)},
      {"runtime.objects", static_cast<double>(objects)},
  };

  // Host figures.  Layer times are means per epoch; export.flush is once per
  // repetition.  The writer's coalescing depends on how fast its thread ran,
  // so it is a host figure, not a reproducible count.
  const double n = static_cast<double>(epochs);
  rep.host["export.coalesced"] = static_cast<double>(coalesced);
  rep.host["export.flush_ms"] = flush_s * 1e3;
  rep.host["profiling.build_ms"] = tally.build_s * 1e3 / n;
  rep.host["profiling.densify_ms"] = tally.densify_s * 1e3 / n;
  rep.host["migration.exec_ms"] = tally.migration_s * 1e3 / n;
  rep.host["cluster.arbitrate_ms"] = tally.arbitrate_s * 1e3 / n;
  rep.host["balance.plan_ms"] =
      tally.plan_epochs > 0 ? tally.plan_s * 1e3 / static_cast<double>(tally.plan_epochs) : 0.0;
  rep.host["profiling.ns_per_entry"] =
      tally.entries > 0 ? tally.build_s * 1e9 / static_cast<double>(tally.entries) : 0.0;
  rep.host["governor.resample_epoch_ms_p50"] = median(resample_epoch_s) * 1e3;

  if (traced) {
    // Per-epoch self time by layer (a span's layer is its name's prefix);
    // the root's self time is the part of the epoch no span covers.
    const std::vector<Tracer::Span>& spans = tracer.spans();
    const std::vector<std::int64_t> self = tracer.self_ns();
    std::vector<std::map<std::string, std::int64_t>> layer_ns(epochs);
    std::map<std::string, double> dur_sum;
    for (std::size_t s = 0; s < spans.size(); ++s) {
      const Tracer::Span& sp = spans[s];
      if (sp.epoch >= epochs) continue;  // the final flush
      const std::string name = sp.name;
      const std::string layer =
          name == "epoch" ? "uncovered" : name.substr(0, name.find('.'));
      layer_ns[sp.epoch][layer] += self[s];
      dur_sum[name] += static_cast<double>(sp.dur_ns);
      if (name == "core.run_epoch") dur_sum["core.self"] += static_cast<double>(self[s]);
    }
    rep.host["apps.step_ms"] = dur_sum["apps.step"] * 1e-6 / n;
    rep.host["profiling.ingest_ms"] = dur_sum["profiling.ingest"] * 1e-6 / n;
    rep.host["core.run_epoch_ms"] = dur_sum["core.run_epoch"] * 1e-6 / n;
    rep.host["core.self_ms"] = dur_sum["core.self"] * 1e-6 / n;
    rep.host["trace.uncovered_ms"] = 0.0;
    for (const auto& per_epoch : layer_ns) {
      const auto it = per_epoch.find("uncovered");
      if (it != per_epoch.end()) rep.host["trace.uncovered_ms"] += static_cast<double>(it->second);
    }
    rep.host["trace.uncovered_ms"] *= 1e-6 / n;
    rep.host["dsm.step_ns_per_access"] =
        ps.accesses > 0 ? dur_sum["apps.step"] / static_cast<double>(ps.accesses) : 0.0;

    std::ostringstream os;
    os << "{\"epochs\":[";
    for (std::uint32_t e = 0; e < epochs; ++e) {
      os << (e == 0 ? "\n" : ",\n") << "{\"epoch\":" << e << ",\"host_ns\":"
         << spans[roots[e]].dur_ns << ",\"self_ns\":{";
      bool first = true;
      for (const auto& [layer, ns] : layer_ns[e]) {
        os << (first ? "" : ",") << "\"" << layer << "\":" << ns;
        first = false;
      }
      os << "}}";
    }
    os << "\n],\"spans\":";
    tracer.write_json(os);
    os << "}";
    rep.trace_json = os.str();
  }
  return rep;
}

// --- the run -----------------------------------------------------------------------

std::string unit_of(const std::string& name) {
  if (name.ends_with("_ms") || name.ends_with("_ms_p50")) return "ms";
  if (name.ends_with("_kb") || name.starts_with("net.kb.")) return "KB";
  if (name.ends_with("_ns_per_access") || name.ends_with("ns_per_entry")) return "ns";
  if (name.ends_with("_ratio") || name.ends_with("_frac") || name.ends_with("_error")) {
    return "ratio";
  }
  return "count";
}

constexpr int kSetupProbes = 10;

int run_bench(const Args& a) {
  const std::optional<Oracle> oracle = read_oracle(a);
  if (!oracle) {
    std::cerr << "perfbench: oracle file " << a.oracle_path << " is missing or stale\n";
    return 2;
  }
  const std::string export_dir =
      a.out_dir + "/work-" + workload_name(a.workload) + "-" + std::to_string(::getpid());
  std::filesystem::create_directories(export_dir);

  const Clock::time_point start = Clock::now();
  std::vector<Rep> reps;
  std::vector<double> setups;
  // Trace runs alternate untraced and traced repetitions so both see the
  // same machine conditions.
  while (reps.size() < 2 || seconds_between(start, Clock::now()) < a.seconds) {
    const bool traced = a.trace && reps.size() % 2 == 1;
    reps.push_back(run_rep(a, *oracle, traced, export_dir));
  }
  // Set-up takes milliseconds, so one figure per repetition is noisy: after
  // the timed repetitions (so they cannot disturb them) the run builds and
  // discards the system a few more times, and setup_s is the median over all
  // set-ups.
  for (int i = 0; i < (a.trace ? 0 : kSetupProbes); ++i) {
    const Clock::time_point t0 = Clock::now();
    const std::unique_ptr<System> probe =
        make_system(a.workload, a.seed, Pass::kGoverned, export_dir);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  std::filesystem::remove_all(export_dir);

  std::vector<std::string> violations;
  std::size_t attempted = 0, failed = 0;
  for (std::size_t r = 0; r < reps.size(); ++r) {
    const Rep& rep = reps[r];
    attempted += rep.epoch_s.size();
    failed += rep.failed_epochs;
    for (const std::string& v : rep.violations) {
      violations.push_back("repetition " + std::to_string(r) + ": " + v);
    }
    if (rep.exact.size() != reps[0].exact.size()) continue;  // reported above
    for (std::size_t k = 0; k < rep.exact.size(); ++k) {
      const double mine = rep.exact[k].second;
      const double first = reps[0].exact[k].second;
      if (std::memcmp(&mine, &first, sizeof mine) != 0) {
        violations.push_back("repetition " + std::to_string(r) +
                             (rep.traced ? " (traced)" : "") + " does not reproduce " +
                             rep.exact[k].first + ": " + fmt(mine) + " vs " + fmt(first));
      }
    }
  }

  std::vector<double> untraced_epochs, traced_epochs, throughput;
  for (const Rep& rep : reps) {
    std::vector<double>& pool = rep.traced ? traced_epochs : untraced_epochs;
    pool.insert(pool.end(), rep.epoch_s.begin(), rep.epoch_s.end());
    if (!rep.traced) {
      setups.push_back(rep.setup_s);
      throughput.insert(throughput.end(), rep.access_rate.begin(), rep.access_rate.end());
    }
  }
  const std::optional<Tail> tail = tail_percentile(untraced_epochs);
  if (!tail) violations.push_back("too few epochs for a tail percentile");

  std::map<std::string, double> exact(reps[0].exact.begin(), reps[0].exact.end());
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::ostringstream detail;
  detail << "{\"workload\":\"" << workload_name(a.workload) << "\",\"seed\":" << a.seed
         << ",\"repetitions\":" << reps.size() << ",\"epochs_per_repetition\":"
         << reps[0].epoch_s.size() << ",\"untraced_epochs\":" << untraced_epochs.size()
         << ",\"checksum\":\"" << hexfloat(exact["checksum"]) << "\"";
  detail << ",\"repetition_epoch_ms_p50\":[";
  for (std::size_t r = 0; r < reps.size(); ++r) {
    detail << (r == 0 ? "" : ",") << (reps[r].traced ? "\"T\"," : "") << fmt(median(reps[r].epoch_s) * 1e3);
  }
  detail << "],\"repetition_setup_s\":[";
  for (std::size_t r = 0; r < reps.size(); ++r) {
    detail << (r == 0 ? "" : ",") << fmt(reps[r].setup_s);
  }
  detail << "]";
  if (!a.trace) {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    metrics = {
        {"epoch_ms_p50", {median(untraced_epochs) * 1e3, "ms"}},
        {"epoch_ms_tail", {tail ? tail->value * 1e3 : 0.0, "ms"}},
        {"sim_accesses_per_s", {median(throughput), "1/s"}},
        {"setup_s", {median(setups), "s"}},
        {"peak_rss_mb", {static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"}},
        {"sim_wall_s", {exact["sim_wall_s"], "s"}},
        {"overhead_frac", {exact["overhead_frac"], "ratio"}},
        {"within_budget_frac", {exact["within_budget_frac"], "ratio"}},
        {"map_error", {exact["map_error"], "ratio"}},
    };
    if (tail) {
      detail << ",\"epoch_ms_tail_percentile\":" << fmt(tail->percentile)
             << ",\"epoch_ms_tail_count\":" << tail->count;
    }
  } else {
    // Per-layer figures: counts from the first repetition (every repetition
    // reproduces them), host times as the median over traced repetitions.
    std::map<std::string, std::vector<double>> host;
    for (const Rep& rep : reps) {
      if (!rep.traced) continue;
      for (const auto& [name, v] : rep.host) host[name].push_back(v);
    }
    for (const auto& [name, v] : reps[0].exact) {
      if (name.find('.') != std::string::npos) metrics.push_back({name, {v, unit_of(name)}});
    }
    for (const auto& [name, v] : host) metrics.push_back({name, {median(v), unit_of(name)}});
    metrics.push_back({"trace.overhead_ms",
                       {(median(traced_epochs) - median(untraced_epochs)) * 1e3, "ms"}});
    const std::string path = a.out_dir + "/trace-" + workload_name(a.workload) + "-" +
                             std::to_string(a.seed) + ".json";
    std::ofstream out(path, std::ios::trunc);
    for (const Rep& rep : reps) {
      if (rep.traced) {
        out << rep.trace_json << "\n";
        break;
      }
    }
    detail << ",\"trace_artifact\":\"" << path << "\"";
  }
  detail << "}";
  std::cout << "# " << detail.str() << "\n";
  for (const std::string& v : violations) std::cerr << "perfbench: VIOLATION " << v << "\n";

  std::cout << "{\"correct\": " << (violations.empty() ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, vu] = metrics[i];
    std::cout << (i == 0 ? "" : ", ") << "\"" << name << "\": {\"value\": "
              << fmt(vu.first) << ", \"unit\": \"" << vu.second << "\"}";
  }
  std::cout << "}}" << std::endl;
  return violations.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench oracle --workload W --seed S --out FILE\n"
                 "       perfbench run --workload W --seed S --seconds T --trace 0|1 "
                 "--oracle FILE --out-dir DIR\n"
                 "workloads: serve, wide, barnes_hut\n";
    return 2;
  }
  return args.mode == "oracle" ? perfbench::run_oracle(args) : perfbench::run_bench(args);
}
