// Small statistics helpers shared by the bench harnesses.
#pragma once

#include <span>

namespace djvm {

/// Median (0 for an empty span); copies and sorts internally.
[[nodiscard]] double median(std::span<const double> xs);

}  // namespace djvm
