// Statistics the benchmark derives from what the program reports: medians,
// the tail-percentile rule, the planner time the facade bills one epoch late,
// and map error at unit mass.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "common/matrix.hpp"

namespace perfbench {

/// Median of `v` (mean of the two middle values for an even count); 0 when
/// `v` is empty.
[[nodiscard]] double median(std::vector<double> v);

/// The tail of a timing sample: the highest percentile that still has at
/// least `beyond` samples above it, by nearest rank, and the sample count it
/// was taken over.
struct Tail {
  double percentile = 0.0;  ///< in [0, 100)
  double value = 0.0;
  std::size_t count = 0;
};

/// nullopt when the sample holds no more than `beyond` values: no percentile
/// then has enough samples beyond it.
[[nodiscard]] std::optional<Tail> tail_percentile(std::vector<double> samples,
                                                  std::size_t beyond = 10);

/// Planner seconds of the epoch *before* the one whose figures are passed.
/// Djvm::run_epoch bills the previous epoch's planner and migration seconds
/// plus the request's coordinator share into this epoch's sample, and the
/// daemon adds this epoch's map build on top:
///
///   sample.build_seconds = plan(prev) + migration(prev) + coordinator + build
///
/// Rounding leaves a remainder of a few ulps, possibly negative, when no
/// planner ran; a negative remainder reads as 0.
[[nodiscard]] double recovered_plan_seconds(double sample_build_seconds,
                                            double build_seconds,
                                            double prev_migration_seconds,
                                            double coordinator_seconds);

/// E_ABS (eq. 2) between `map` and `reference` after scaling each to unit
/// mass.  Gap-weighted estimates under different back-off histories scale a
/// whole map; the balancer consumes its relative sharing structure.
[[nodiscard]] double unit_mass_error(const djvm::SquareMatrix& map,
                                     const djvm::SquareMatrix& reference);

/// True when `m` is `n` x `n` and every cell is finite and non-negative.
[[nodiscard]] bool map_well_formed(const djvm::SquareMatrix& m, std::size_t n);

}  // namespace perfbench
