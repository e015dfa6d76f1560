#include "trace.hpp"

#include <cmath>

namespace perfbench {

Tracer::Tracer(std::size_t expected_spans) : origin_(Clock::now()) {
  spans_.reserve(expected_spans);
}

std::int32_t Tracer::begin(const char* name, std::int32_t parent,
                           std::uint32_t epoch) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.epoch = epoch;
  spans_.push_back(s);
  // Read the clock last so the bookkeeping above is not inside the span.
  spans_.back().start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
          .count();
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::end(std::int32_t id) {
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
          .count();
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.dur_ns = now - s.start_ns;
}

std::int32_t Tracer::reported(const char* name, std::int32_t parent,
                              std::uint32_t epoch, double seconds) {
  Span s;
  s.name = name;
  s.start_ns = -1;
  s.dur_ns = std::llround(seconds * 1e9);
  s.parent = parent;
  s.epoch = epoch;
  spans_.push_back(s);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::vector<std::int64_t> Tracer::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].dur_ns;
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.dur_ns;
  }
  return self;
}

void Tracer::write_json(std::ostream& os) const {
  os << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
       << "\",\"parent\":" << s.parent << ",\"epoch\":" << s.epoch
       << ",\"start_ns\":";
    if (s.start_ns < 0) {
      os << "null";
    } else {
      os << s.start_ns;
    }
    os << ",\"dur_ns\":" << s.dur_ns << "}";
  }
  os << "\n]";
}

}  // namespace perfbench
