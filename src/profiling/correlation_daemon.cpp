#include "profiling/correlation_daemon.hpp"

#include <chrono>

#include "profiling/accuracy.hpp"

namespace djvm {

namespace {
double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}
}  // namespace

CorrelationDaemon::CorrelationDaemon(SamplingPlan& plan, std::uint32_t threads)
    : plan_(plan),
      threads_(threads),
      governor_(plan),
      full_(threads),
      latest_(threads) {}

void CorrelationDaemon::filter_arena(OalArena& arena) const {
  if (!node_filter_) return;
  bool any_dead = false;
  for (const ArenaInterval& iv : arena.intervals) {
    if (!node_filter_(iv.node)) {
      any_dead = true;
      break;
    }
  }
  if (!any_dead) return;
  // Compact in place: the arena is recycled (and cleared) after the epoch
  // anyway, so dropping a dead node's slices here loses exactly the
  // un-shipped intervals that would have died with the node.
  std::vector<OalEntry> entries;
  entries.reserve(arena.entries.size());
  std::vector<ArenaInterval> intervals;
  intervals.reserve(arena.intervals.size());
  for (const ArenaInterval& iv : arena.intervals) {
    if (!node_filter_(iv.node)) continue;
    ArenaInterval kept = iv;
    kept.begin = static_cast<std::uint32_t>(entries.size());
    entries.insert(entries.end(), arena.entries.begin() + iv.begin,
                   arena.entries.begin() + iv.end);
    kept.end = static_cast<std::uint32_t>(entries.size());
    intervals.push_back(kept);
  }
  arena.entries = std::move(entries);
  arena.intervals = std::move(intervals);
}

std::size_t CorrelationDaemon::ingest(IngestHub& hub, bool quiesced) {
  const auto t0 = std::chrono::steady_clock::now();
  hub_ = &hub;
  // Entries are external input: a class id beyond the registry must not tag
  // the window (the tag sizes class-indexed attribution vectors — the same
  // invariant note_epoch_entry enforces on the epoch stats).  Untagged
  // entries still count in the map; they just carry no attribution.
  const std::size_t classes = plan_.heap().registry().size();
  std::size_t consumed = 0;
  const auto consume = [&](OalArena* a) {
    filter_arena(*a);
    for (OalEntry& e : a->entries) {
      if (e.klass != kInvalidClass && e.klass >= classes) {
        e.klass = kInvalidClass;
      }
    }
    total_entries_ += a->entries.size();
    pending_slices_ += a->intervals.size();
    pending_arenas_.push_back(a);
    ++consumed;
  };
  while (OalArena* a = hub.try_pop()) consume(a);
  if (quiesced) {
    for (OalArena* a : hub.take_stranded()) consume(a);
  }
  ingest_seconds_ += seconds_since(t0);
  return consumed;
}

ReaderArena CorrelationDaemon::build_window() {
  return TcmBuilder::reorganize_arena(
      std::span<const OalArena* const>(pending_arenas_), /*weighted=*/true,
      scratch_);
}

EpochResult CorrelationDaemon::run_epoch(OverheadSample sample) {
  EpochResult out;
  out.intervals = pending_slices_;
  // Per-class benefit/cost stats feed only the closed-loop back-off; the
  // legacy and disarmed paths skip the per-entry pass.  Each entry is also
  // attributed to the worker node whose interval shipped it, so the
  // per-node back-off can see which classes dominate one node's cost.
  const bool class_stats = governor_.mode() == GovernorMode::kClosedLoop;
  const bool want_cells = !influence_placement_.empty();
  std::vector<double> home_mass;
  if (class_stats) plan_.begin_epoch_stats();
  const Heap& heap = plan_.heap();
  // Walk the drained arena slices (each carries its interval's header
  // context).  Remote-home mass: HT-weighted bytes the logging node
  // accessed on objects homed elsewhere.  Under the home-based protocol each
  // such access pays a remote fault whether or not a peer shares the object,
  // so build_balancer_feedback credits it to the class even when the class
  // has no pair cells.
  for (const OalArena* a : pending_arenas_) {
    out.entries += a->entries.size();
    if (class_stats || want_cells) {
      for (const ArenaInterval& iv : a->intervals) {
        for (std::uint32_t i = iv.begin; i < iv.end; ++i) {
          const OalEntry& e = a->entries[i];
          if (class_stats) {
            plan_.note_epoch_entry(e.klass, e.bytes, e.gap);
            plan_.note_epoch_node_entry(iv.node, e.klass, e.bytes, e.gap);
          }
          if (want_cells && iv.node != kInvalidNode &&
              e.klass != kInvalidClass && e.obj < heap.object_count() &&
              heap.meta(e.obj).home != iv.node) {
            if (home_mass.size() <= e.klass) home_mass.resize(e.klass + 1, 0.0);
            home_mass[e.klass] +=
                static_cast<double>(e.bytes) * static_cast<double>(e.gap);
          }
        }
      }
    }
  }

  // The window's map: one CSR arena over every pending arena, its pairs
  // accrued sparsely, and — against the balancer's placement — its pair mass
  // split by owning class (the reader lists are the only place the "which
  // classes produced these cells" question can be answered without
  // densifying per class).  All of it is coordinator map work, timed into
  // build_seconds with ingest()'s share.
  const auto tw = std::chrono::steady_clock::now();
  const ReaderArena window = build_window();
  const UpperTriangle pairs = TcmBuilder::accrue_sparse(window, threads_);
  if (want_cells) {
    out.cells =
        TcmBuilder::attribute_cells(window, influence_placement_, threads_);
    out.cells.home_mass = std::move(home_mass);
  }
  const double window_seconds = seconds_since(tw);

  const auto t0 = std::chrono::steady_clock::now();
  out.tcm = pairs.densify();
  out.densify_seconds = seconds_since(t0);

  // Merge the window into the whole-run store (drained arenas are recycled,
  // leaving nothing to re-read later); under retention, periodically evict
  // stale objects too.
  double retention_seconds = 0.0;
  {
    const auto tr = std::chrono::steady_clock::now();
    full_.absorb(window);
    if (retention_.active()) {
      full_.advance_epoch();
      if (retention_.compact_period != 0 &&
          full_.epoch() % retention_.compact_period == 0) {
        dropped_objects_ +=
            full_.compact(retention_.idle_epochs, retention_.decay)
                .dropped_objects;
      }
      out.retained_objects = full_.object_count();
      out.retained_readers = full_.reader_entries();
      out.dropped_objects = dropped_objects_;
    }
    retention_seconds = seconds_since(tr);
  }

  out.build_seconds = ingest_seconds_ + window_seconds + out.densify_seconds +
                      retention_seconds;
  ingest_seconds_ = 0.0;
  build_seconds_ += out.build_seconds;
  out.epoch = epochs_;
  ++epochs_;

  if (have_latest_) {
    out.rel_distance = absolute_error(out.tcm, latest_);
  }

  // Add the daemon's own costs, then let the governor decide.  Added rather
  // than assigned: a caller-supplied build_seconds carries coordinator work
  // done outside the daemon (the facade's plan-and-execute stage from the
  // previous epoch), which stays in the sample alongside this epoch's map
  // construction.
  sample.build_seconds += out.build_seconds;
  sample.resampled_objects += carryover_resampled_;
  // Resampling passes run *after* a decision, so their per-node cost lands
  // in the next epoch's sample — attributed to the node that walked its own
  // cached copies, and merged only into node slices the pump already
  // measured (a node absent from a measured sample has no app time to
  // budget against).
  for (NodeOverheadSample& ns : sample.nodes) {
    if (ns.node < carryover_resampled_by_node_.size()) {
      ns.resampled_objects += carryover_resampled_by_node_[ns.node];
    }
  }
  static_cast<void>(  // discard passes not owed to the governor
      plan_.drain_resampled_by_node());
  const Governor::EpochOutcome decision =
      governor_.on_epoch(out.rel_distance, sample);
  out.sample = sample;
  out.rate_changed = decision.rate_changed;
  out.resampled_objects = decision.resampled_objects;
  out.action = decision.action;
  out.overhead_fraction = decision.overhead_fraction;
  out.offender = decision.offender;
  out.offender_fraction = decision.offender_fraction;
  carryover_resampled_ = decision.resampled_objects;
  carryover_resampled_by_node_ = plan_.drain_resampled_by_node();
  const OverheadMeter& meter = governor_.meter();
  out.node_fractions.resize(meter.node_count());
  for (std::size_t n = 0; n < out.node_fractions.size(); ++n) {
    out.node_fractions[n] = meter.node_rolling_fraction(static_cast<NodeId>(n));
  }

  latest_ = out.tcm;
  have_latest_ = true;
  intervals_seen_ += pending_slices_;
  release_pending_arenas();
  return out;
}

void CorrelationDaemon::release_pending_arenas() {
  if (hub_ != nullptr) {
    for (OalArena* a : pending_arenas_) hub_->recycle(a);
  }
  pending_arenas_.clear();
  pending_slices_ = 0;
}

SquareMatrix CorrelationDaemon::build_full() {
  // The whole-run map is the store (fed by every run_epoch's window) plus
  // whatever sits in the unconsumed window.  The store carries HT-weighted
  // bytes only — the raw entries were recycled after the merge, so there is
  // nothing to re-weigh.
  const auto tr = std::chrono::steady_clock::now();
  full_.absorb(build_window());
  intervals_seen_ += pending_slices_;
  release_pending_arenas();
  SquareMatrix tcm = TcmBuilder::accrue_sparse(full_.csr(), threads_).densify();
  build_seconds_ += ingest_seconds_ + seconds_since(tr);
  ingest_seconds_ = 0.0;
  latest_ = tcm;
  have_latest_ = true;
  return tcm;
}

}  // namespace djvm
