// The three benchmark workloads, each a system under test built only through
// the simulator's public API: tenant VMs (Djvm), the ClusterCoordinator above
// them on `serve`, and the application that issues one epoch's work.
//
// Every input is generated from the seed, and it reaches the program only as
// generated input: RequestServingParams::seed per tenant, Config::seed for the
// Barnes-Hut bodies, and the access stream `wide` generates itself.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/coordinator.hpp"
#include "core/djvm.hpp"

namespace perfbench {

enum class Workload { kServe, kWide, kBarnesHut };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload w);

/// How a system is built.  The oracle pass runs the same generated inputs
/// and retention settings with the governor disarmed, every class at gap 1,
/// no migrations and no exports: the full-sampling reference map.
enum class Pass { kGoverned, kOracle };

/// One governed epoch's outcome: an EpochResult per tenant, and on a
/// multi-tenant system the arbitration that followed.
struct Governed {
  std::vector<djvm::EpochResult> tenants;
  std::optional<djvm::ArbitrationOutcome> arbitration;
};

class System {
 public:
  virtual ~System() = default;

  /// Issues one epoch's generated application work on every tenant.
  virtual void step() = 0;
  /// Digest of the application's computed result; profiling must not
  /// perturb it.
  [[nodiscard]] virtual double checksum() const = 0;

  /// The governed epoch: ClusterCoordinator::run_epoch when the system has
  /// a coordinator, Djvm::run_epoch otherwise.
  Governed run_epoch();

  /// Epochs one run of this workload lasts.
  [[nodiscard]] std::uint32_t epochs() const noexcept { return epochs_; }
  [[nodiscard]] const std::vector<djvm::Djvm*>& vms() const noexcept {
    return vms_;
  }
  [[nodiscard]] djvm::ClusterCoordinator* cluster() const noexcept {
    return cluster_.get();
  }

 protected:
  explicit System(std::uint32_t epochs) : epochs_(epochs) {}
  /// Sets every registered class of `vm` to gap 1 and resamples (oracle).
  static void full_sampling(djvm::Djvm& vm);

  std::unique_ptr<djvm::ClusterCoordinator> cluster_;
  std::unique_ptr<djvm::Djvm> solo_;
  std::vector<djvm::Djvm*> vms_;

 private:
  std::uint32_t epochs_;
};

/// Builds `w` for `seed`.  With a non-empty `export_dir`, a governed `serve`
/// writes each tenant's snapshot and timeline there.
[[nodiscard]] std::unique_ptr<System> make_system(Workload w, std::uint64_t seed,
                                                  Pass pass,
                                                  const std::string& export_dir);

}  // namespace perfbench
