// Counts what a sampling plan samples, for tests that compare rates before
// and after a gap or shift change.
#pragma once

#include <cstdint>

#include "profiling/sampling.hpp"

namespace djvm {

/// Heap objects `reader` samples under its effective gap; the default reader
/// (kInvalidNode, which carries no shift) counts the cluster view.
inline std::uint64_t count_sampled(const SamplingPlan& plan,
                                   NodeId reader = kInvalidNode) {
  std::uint64_t n = 0;
  for (ObjectId o = 0; o < plan.heap().object_count(); ++o) {
    n += plan.is_sampled(reader, o) ? 1 : 0;
  }
  return n;
}

}  // namespace djvm
