#include "common/stats.hpp"

#include <algorithm>
#include <vector>

namespace djvm {

double median(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  if (v.size() % 2 == 1) return v[mid];
  return 0.5 * (v[mid - 1] + v[mid]);
}

}  // namespace djvm
