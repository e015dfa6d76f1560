#include "systems.hpp"

#include "apps/barnes_hut.hpp"
#include "apps/request_serving.hpp"
#include "common/rng.hpp"

namespace perfbench {

using djvm::ClassId;
using djvm::Config;
using djvm::Djvm;
using djvm::ObjectId;
using djvm::ThreadId;

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "serve") return Workload::kServe;
  if (name == "wide") return Workload::kWide;
  if (name == "barnes_hut") return Workload::kBarnesHut;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kServe: return "serve";
    case Workload::kWide: return "wide";
    case Workload::kBarnesHut: return "barnes_hut";
  }
  return "?";
}

Governed System::run_epoch() {
  Governed g;
  if (cluster_) {
    djvm::ClusterCoordinator::ClusterEpoch round = cluster_->run_epoch();
    g.tenants = std::move(round.tenants);
    g.arbitration = std::move(round.arbitration);
  } else {
    g.tenants.push_back(solo_->run_epoch(djvm::EpochRequest{}));
  }
  return g;
}

void System::full_sampling(Djvm& vm) {
  for (ClassId c = 0; c < vm.registry().size(); ++c) {
    vm.plan().set_nominal_gap(c, 1);
  }
  vm.plan().resample_all();
}

namespace {

/// Profiling switches every workload shares: OALs are shipped to the
/// coordinator (so OAL wire cost is real) and the governor runs closed-loop
/// on the governed pass.
Config base_config(std::uint32_t nodes, std::uint32_t threads, Pass pass) {
  Config cfg;
  cfg.nodes = nodes;
  cfg.threads = threads;
  cfg.oal_transfer = djvm::OalTransfer::kSend;
  cfg.governor.enabled = pass == Pass::kGoverned;
  return cfg;
}

// --- serve --------------------------------------------------------------------
// Three request-serving tenants under one coordinator.  Tenant 0 is always
// busy; tenants 1 and 2 take turns being busy every kServeSwap epochs, so the
// arbiter lends a quiet tenant's headroom and reclaims it when it wakes.  A
// busy tenant's full-rate demand is about 1.2% overhead, so the 1.2% global
// budget is about half of what the two busy tenants would spend unchecked.
constexpr std::uint32_t kServeTenants = 3;
constexpr std::uint32_t kServeNodes = 4;
constexpr std::uint32_t kServeThreads = 8;
constexpr std::uint32_t kServeEpochs = 240;
constexpr std::uint32_t kServeSwap = 20;
constexpr double kServeGlobalBudget = 0.012;

class Serve final : public System {
 public:
  Serve(std::uint64_t seed, Pass pass, const std::string& export_dir)
      : System(kServeEpochs) {
    djvm::ArbiterKnobs knobs;
    knobs.global_budget = kServeGlobalBudget;
    cluster_ = std::make_unique<djvm::ClusterCoordinator>(knobs);
    djvm::SplitMix64 seeds(seed);
    for (djvm::TenantId id = 0; id < kServeTenants; ++id) {
      Config cfg = base_config(kServeNodes, kServeThreads, pass);
      cfg.tenant.id = id;
      if (pass == Pass::kGoverned && !export_dir.empty()) {
        const std::string stem = export_dir + "/serve-t" + std::to_string(id);
        cfg.export_.snapshot_path = stem + ".snap";
        cfg.export_.timeline_path = stem + ".jsonl";
      }
      Djvm& vm = cluster_->add_tenant(cfg).vm();
      vm.spawn_threads_round_robin(kServeThreads);
      djvm::RequestServingParams p;
      p.hot_objects = 16384;
      p.sessions_per_epoch = 1024;
      p.session_ops = 32;
      p.phase_period = 32;
      p.seed = seeds.next();
      apps_.emplace_back(p);
      apps_.back().build(vm);
      if (pass == Pass::kOracle) full_sampling(vm);
      vms_.push_back(&vm);
      // A quiet epoch advances each thread by a busy epoch's compute.
      quiet_ns_ = static_cast<djvm::SimTime>(p.sessions_per_epoch / kServeThreads) *
                  p.session_ops * 20 * cfg.costs.compute_per_flop;
    }
  }

  void step() override {
    const bool even_turn = (epoch_ / kServeSwap) % 2 == 0;
    for (std::uint32_t i = 0; i < kServeTenants; ++i) {
      const bool busy = i == 0 || (i == 1) == even_turn;
      Djvm& vm = *vms_[i];
      if (busy) {
        apps_[i].serve_epoch(vm);
      } else {
        for (ThreadId t = 0; t < vm.thread_count(); ++t) {
          vm.gos().clock(t).advance(quiet_ns_);
        }
        vm.barrier_all();
      }
    }
    ++epoch_;
  }

  [[nodiscard]] double checksum() const override {
    double sum = 0.0;
    for (const djvm::RequestServingApp& a : apps_) sum += a.checksum();
    return sum;
  }

 private:
  std::vector<djvm::RequestServingApp> apps_;
  djvm::SimTime quiet_ns_ = 0;
  std::uint32_t epoch_ = 0;
};

// --- wide ---------------------------------------------------------------------
// 64 threads on 8 nodes over ~200k 64-byte records.  Threads work in groups
// of 8; each group's region of the record heap drifts by half a region every
// kWideDrift epochs, and every thread also touches a small hot set all threads
// share.  Group g's slice of the heap is homed on node g, and kWideDisplaced
// of its threads start on the next group's node, so the planner has moves to
// make toward one clear placement.  (Starting round-robin instead leaves the
// planner in a seed-dependent local optimum, which makes the simulated
// metrics bimodal across seeds.)
constexpr std::uint32_t kWideNodes = 8;
constexpr std::uint32_t kWideThreads = 64;
constexpr std::uint32_t kWideGroup = 8;
constexpr std::uint32_t kWideDisplaced = 3;
constexpr std::uint32_t kWideRecords = 200'000;
constexpr std::uint32_t kWideHot = 512;
constexpr std::uint32_t kWideRegion = 4096;
constexpr std::uint32_t kWideDrift = 4;
constexpr std::uint32_t kWideOps = 2048;
constexpr std::uint32_t kWideEpochs = 80;

constexpr std::uint32_t kSpacing = kWideRecords / (kWideThreads / kWideGroup);

class Wide final : public System {
 public:
  // Each (epoch, thread) stream starts from a base drawn from the seed, so
  // two seeds share no streams (XOR-ing a small seed into the thread id
  // would only permute the streams among a group's threads).
  Wide(std::uint64_t seed, Pass pass)
      : System(kWideEpochs), stream_base_(djvm::SplitMix64(seed).next()) {
    Config cfg = base_config(kWideNodes, kWideThreads, pass);
    cfg.governor.budget = 0.03;
    cfg.retention.idle_epochs = 4;
    cfg.retention.decay = 0.5;
    cfg.retention.compact_period = 4;
    if (pass == Pass::kGoverned) cfg.balance.max_migrations_per_epoch = 4;
    compute_ns_ = 40 * cfg.costs.compute_per_flop;
    solo_ = std::make_unique<Djvm>(cfg);
    Djvm& vm = *solo_;
    vms_.push_back(&vm);
    for (ThreadId t = 0; t < kWideThreads; ++t) {
      const bool displaced = t % kWideGroup >= kWideGroup - kWideDisplaced;
      vm.spawn_thread(static_cast<djvm::NodeId>((t / kWideGroup + displaced) % kWideNodes));
    }
    const ClassId record = vm.registry().register_class("WideRecord", 64, 0);
    const ClassId hot = vm.registry().register_class("WideHot", 64, 0);
    records_.reserve(kWideRecords);
    for (std::uint32_t i = 0; i < kWideRecords; ++i) {
      records_.push_back(vm.gos().alloc(record, static_cast<djvm::NodeId>(i / kSpacing)));
    }
    hot_.reserve(kWideHot);
    for (std::uint32_t i = 0; i < kWideHot; ++i) {
      hot_.push_back(vm.gos().alloc(hot, static_cast<djvm::NodeId>(i % kWideNodes)));
    }
    if (pass == Pass::kOracle) full_sampling(vm);
  }

  void step() override {
    djvm::Gos& gos = solo_->gos();
    // The region wraps inside the group's home slice.
    const std::uint32_t shift =
        (epoch_ / kWideDrift) * (kWideRegion / 2) % (kSpacing - kWideRegion);
    for (ThreadId t = 0; t < kWideThreads; ++t) {
      const std::uint32_t base = (t / kWideGroup) * kSpacing + shift;
      djvm::SplitMix64 rng(stream_base_ + (std::uint64_t{epoch_} << 16) + t);
      for (std::uint32_t op = 0; op < kWideOps; ++op) {
        const std::uint64_t u = rng.next();
        // Bits 0-3: 1 in 16 ops go to the hot set; bits 4-6: 1 in 8 writes;
        // the high bits pick the object.
        const bool to_hot = (u & 15u) == 0;
        const bool write = ((u >> 4) & 7u) == 0;
        const ObjectId obj =
            to_hot ? hot_[(u >> 8) % kWideHot]
                   : records_[base + (u >> 8) % kWideRegion];
        if (write) {
          gos.write(t, obj);
        } else {
          gos.read(t, obj);
        }
        digest_ = digest_ * 0x100000001B3ULL + obj + (write ? 1 : 0);
        gos.clock(t).advance(compute_ns_);
      }
    }
    gos.barrier_all();
    ++epoch_;
  }

  [[nodiscard]] double checksum() const override {
    return static_cast<double>(digest_ >> 11);
  }

 private:
  std::uint64_t stream_base_;
  djvm::SimTime compute_ns_ = 0;
  std::vector<ObjectId> records_;
  std::vector<ObjectId> hot_;
  std::uint64_t digest_ = 0;
  std::uint32_t epoch_ = 0;
};

// --- barnes_hut ---------------------------------------------------------------
// The paper's Barnes-Hut at paper scale, one round per governed epoch.  Stack
// sampling, footprinting and sticky-set migrations are on; the bodies come
// from Config::seed.
constexpr std::uint32_t kBhNodes = 4;
constexpr std::uint32_t kBhThreads = 32;
constexpr std::uint32_t kBhEpochs = 45;

class BarnesHut final : public System {
 public:
  BarnesHut(std::uint64_t seed, Pass pass) : System(kBhEpochs), app_(params()) {
    Config cfg = base_config(kBhNodes, kBhThreads, pass);
    cfg.seed = seed;
    cfg.governor.budget = 0.01;
    cfg.stack_sampling = true;
    cfg.footprinting = true;
    if (pass == Pass::kGoverned) cfg.balance.max_migrations_per_epoch = 2;
    solo_ = std::make_unique<Djvm>(cfg);
    vms_.push_back(solo_.get());
    solo_->spawn_threads_round_robin(kBhThreads);
    app_.build(*solo_);
    if (pass == Pass::kOracle) full_sampling(*solo_);
  }

  void step() override { app_.run(*solo_); }
  [[nodiscard]] double checksum() const override { return app_.checksum(); }

 private:
  static djvm::BarnesHutParams params() {
    djvm::BarnesHutParams p;
    p.bodies = 4096;
    p.rounds = 1;
    return p;
  }

  djvm::BarnesHutWorkload app_;
};

}  // namespace

std::unique_ptr<System> make_system(Workload w, std::uint64_t seed, Pass pass,
                                    const std::string& export_dir) {
  switch (w) {
    case Workload::kServe: return std::make_unique<Serve>(seed, pass, export_dir);
    case Workload::kWide: return std::make_unique<Wide>(seed, pass);
    case Workload::kBarnesHut: return std::make_unique<BarnesHut>(seed, pass);
  }
  return nullptr;
}

}  // namespace perfbench
