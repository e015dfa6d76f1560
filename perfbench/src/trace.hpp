// In-memory span recorder for the traced run.
//
// The benchmark opens a span around each call it makes into a layer (the
// application step, Djvm::pump_daemon, the governed epoch, the final
// SnapshotWriter::flush) and nests the durations the program reports about
// itself (map build, densify, planner, migration, arbitration) under the
// governed-epoch span that contained them.  Spans stay in memory until the
// run ends and are written out once.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    const char* name = "";   ///< "<layer>.<what>"; the layer is the prefix
    std::int64_t start_ns = 0;  ///< since the tracer's origin; -1 if reported
    std::int64_t dur_ns = 0;
    std::int32_t parent = -1;   ///< index into spans(); -1 for a root
    std::uint32_t epoch = 0;    ///< request id: one epoch's spans share it
  };

  explicit Tracer(std::size_t expected_spans = 0);

  /// Opens a span timed by the benchmark's clock; returns its id.
  std::int32_t begin(const char* name, std::int32_t parent, std::uint32_t epoch);
  void end(std::int32_t id);
  /// Records a duration the program measured itself, nested under `parent`.
  /// Its placement inside the parent is unknown, so it has no start.
  std::int32_t reported(const char* name, std::int32_t parent,
                        std::uint32_t epoch, double seconds);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Each span's duration minus the durations of its direct children.
  [[nodiscard]] std::vector<std::int64_t> self_ns() const;
  /// Writes the spans as a JSON array.
  void write_json(std::ostream& os) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
