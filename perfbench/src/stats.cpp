#include "stats.hpp"

#include <algorithm>
#include <cmath>

#include "profiling/accuracy.hpp"

namespace perfbench {

namespace {
djvm::SquareMatrix unit_mass(djvm::SquareMatrix m) {
  const double total = m.total();
  if (total > 0.0) {
    for (double& v : m.raw()) v /= total;
  }
  return m;
}
}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

std::optional<Tail> tail_percentile(std::vector<double> samples,
                                    std::size_t beyond) {
  const std::size_t n = samples.size();
  if (n <= beyond) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  // The k-th smallest value is the 100*k/n-th percentile by nearest rank;
  // k = n - beyond leaves exactly `beyond` samples above it.
  const std::size_t k = n - beyond;
  Tail t;
  t.percentile = 100.0 * static_cast<double>(k) / static_cast<double>(n);
  t.value = samples[k - 1];
  t.count = n;
  return t;
}

double recovered_plan_seconds(double sample_build_seconds, double build_seconds,
                              double prev_migration_seconds,
                              double coordinator_seconds) {
  const double plan = sample_build_seconds - build_seconds -
                      prev_migration_seconds - coordinator_seconds;
  return std::max(0.0, plan);
}

double unit_mass_error(const djvm::SquareMatrix& map,
                       const djvm::SquareMatrix& reference) {
  return djvm::absolute_error(unit_mass(map), unit_mass(reference));
}

bool map_well_formed(const djvm::SquareMatrix& m, std::size_t n) {
  if (m.size() != n || m.raw().size() != n * n) return false;
  return std::all_of(m.raw().begin(), m.raw().end(),
                     [](double v) { return std::isfinite(v) && v >= 0.0; });
}

}  // namespace perfbench
