// Object access lists (OALs) and the log arenas that carry them (paper
// Section II.A).
//
// By the at-most-once property of HLRC, a thread logs each sampled shared
// object at most once per interval.  On interval close the OAL — accessed
// object id and (amortized) size — is packed with the interval context into a
// jumbo message for the central coordinator, piggybacked on lock/barrier
// traffic when possible.  In memory that message is one slice of an
// `OalArena`: the single OAL representation every consumer (the daemon's
// window build, offline tools) reads.  The ingest transport that moves
// arenas lives in ingest.hpp.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace djvm {

/// One OAL entry.  `bytes` is the amortized sample size at logging time;
/// `gap` is the class's real sampling gap at logging time so the TCM builder
/// can apply Horvitz-Thompson scaling even after later rate changes.
struct OalEntry {
  ObjectId obj = kInvalidObject;
  ClassId klass = kInvalidClass;
  std::uint32_t bytes = 0;
  std::uint32_t gap = 1;
};

/// Wire size of one OAL entry: the paper ships "accessed object id and size"
/// — the id and byte fields exactly.  `klass` and `gap` are coordinator-side
/// context reconstructed from the id, never shipped, so they do not appear
/// in the sum.  Derived from the shipped fields so adding or widening one
/// moves the constant with it (a hand-kept 12 silently under-bills traffic).
inline constexpr std::uint64_t kOalEntryWireBytes =
    sizeof(OalEntry::obj) + sizeof(OalEntry::bytes);
static_assert(kOalEntryWireBytes == 12,
              "OAL wire entry is an 8-byte object id + 4-byte size; a shipped "
              "field changed — update every reader of kOalEntryWireBytes");
static_assert(sizeof(OalEntry) == 24,
              "OalEntry gained or lost a field; decide whether it ships and "
              "update kOalEntryWireBytes accordingly");

/// One closed interval's slice of an arena's entry log: the interval context
/// header plus the entry range it owns.  A single interval may split across
/// arenas when it fills one mid-append; each slice then carries the full
/// header (the wire ships one header per interval close, however it splits).
struct ArenaInterval {
  ThreadId thread = kInvalidThread;
  IntervalId interval = 0;
  NodeId node = kInvalidNode;
  /// Interval context: the paper delimits intervals by start/end bytecode
  /// PCs; workloads label phases with small integers serving that role.
  std::uint32_t start_pc = 0;
  std::uint32_t end_pc = 0;
  std::uint32_t begin = 0;  ///< entry range [begin, end) in OalArena::entries
  std::uint32_t end = 0;
};

/// Interval context header: every header field ships (thread id, interval
/// id, source node, start/end bytecode PC) plus two bytes of wire padding
/// that keep the entry payload 4-byte aligned for the coordinator's bulk
/// decode.  The entry range is in-memory framing, implicit in the wire's
/// length prefix, so it does not ship.  Derived the same way as the entry
/// size: field changes move the constant, and the static_assert forces the
/// pad to be revisited.
inline constexpr std::uint64_t kIntervalHeaderWirePad = 2;
inline constexpr std::uint64_t kIntervalHeaderWireBytes =
    sizeof(ArenaInterval::thread) + sizeof(ArenaInterval::interval) +
    sizeof(ArenaInterval::node) + sizeof(ArenaInterval::start_pc) +
    sizeof(ArenaInterval::end_pc) + kIntervalHeaderWirePad;
static_assert(kIntervalHeaderWireBytes == 24,
              "interval header layout changed — update the wire pad (entry "
              "payload must stay 4-byte aligned) and every reader of "
              "kIntervalHeaderWireBytes");

/// A fixed-capacity OAL log arena: the unit of hand-off between a producer
/// lane and the daemon.  Entries from many intervals share one contiguous
/// buffer; `intervals` indexes the slices.
struct OalArena {
  std::uint32_t lane = 0;  ///< owning producer lane (routes recycling)
  std::vector<OalEntry> entries;
  std::vector<ArenaInterval> intervals;

  [[nodiscard]] bool empty() const noexcept { return entries.empty(); }
  void clear() noexcept {
    entries.clear();
    intervals.clear();
  }
};

}  // namespace djvm
