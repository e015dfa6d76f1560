#include "balance/balancer_feedback.hpp"

#include <algorithm>

namespace djvm {

BalancerFeedback build_balancer_feedback(
    const TcmClassAttribution& cells,
    std::span<const MigrationSuggestion> suggestions, double suggestion_weight,
    double home_weight) {
  BalancerFeedback fb;
  const std::size_t classes =
      std::max({cells.cut_bytes.size(), cells.local_bytes.size(),
                cells.home_mass.size()});
  fb.influence.assign(classes, 0.0);
  fb.mass.assign(classes, 0.0);

  for (std::size_t c = 0; c < classes; ++c) {
    const double cut = c < cells.cut_bytes.size() ? cells.cut_bytes[c] : 0.0;
    const double local = c < cells.local_bytes.size() ? cells.local_bytes[c] : 0.0;
    // The cut contribution is the direct influence: zeroing this class's
    // cells would move remote_shared_bytes of the current partition by
    // exactly this much.  Weighted home mass counts on *both* sides of the
    // share: a class whose objects are each read by a single thread
    // remotely from their home has no pair mass at all, yet every one of
    // those accesses pays a remote fault under the home-based protocol —
    // dividing by pair mass alone would zero its share and the governor
    // would shed it first.
    const double home = home_weight > 0.0 && c < cells.home_mass.size()
                            ? home_weight * cells.home_mass[c]
                            : 0.0;
    fb.mass[c] = cut + local + home;
    fb.total_mass += fb.mass[c];
    fb.influence[c] = cut + home;
  }

  // Accepted migration suggestions: the planner moved thread t because of
  // the pair mass it shares across the current boundary — credit the gain to
  // classes in proportion to their share of t's mass, since those are the
  // cells that argued for the move.
  if (suggestion_weight > 0.0) {
    for (const MigrationSuggestion& s : suggestions) {
      if (s.thread == kInvalidThread || s.gain_bytes <= 0.0) continue;
      double thread_total = 0.0;
      for (std::size_t c = 0; c < classes; ++c) {
        if (c < cells.thread_mass.size() &&
            s.thread < cells.thread_mass[c].size()) {
          thread_total += cells.thread_mass[c][s.thread];
        }
      }
      if (thread_total <= 0.0) continue;
      for (std::size_t c = 0; c < classes; ++c) {
        if (c < cells.thread_mass.size() &&
            s.thread < cells.thread_mass[c].size()) {
          fb.influence[c] += suggestion_weight * s.gain_bytes *
                             (cells.thread_mass[c][s.thread] / thread_total);
        }
      }
    }
  }

  fb.valid = fb.total_mass > 0.0;
  return fb;
}

}  // namespace djvm
