#include "profiling/tcm.hpp"

#include <algorithm>
#include <cassert>


namespace djvm {

namespace {

/// Direct-index tables stop growing past this many object ids; rarer sparse
/// ids (nothing in the tree produces them, but the API accepts any id) go
/// through a hash map instead of sizing an allocation.
constexpr ObjectId kDirectSlotCap = 1ull << 24;

/// An entry's byte value: Horvitz-Thompson scaled by its logging-time gap
/// when `weighted`, raw otherwise.
double entry_bytes(const OalEntry& e, bool weighted) {
  return weighted ? static_cast<double>(e.bytes) * e.gap
                  : static_cast<double>(e.bytes);
}

/// build_reference's per-object access summary: (thread, weighted bytes)
/// readers, each byte value the maximum over the window's intervals.
struct ObjectAccessSummary {
  ObjectId obj = kInvalidObject;
  std::vector<std::pair<ThreadId, double>> readers;
};

/// build_reference's dense accrual: cell (i, j) accumulates
/// min(bytes_i, bytes_j) per object shared by threads i and j.
SquareMatrix accrue(std::span<const ObjectAccessSummary> summaries,
                    std::uint32_t threads) {
  SquareMatrix tcm(threads);
  for (const ObjectAccessSummary& s : summaries) {
    const auto& r = s.readers;
    for (std::size_t i = 0; i < r.size(); ++i) {
      for (std::size_t j = i + 1; j < r.size(); ++j) {
        const double shared = std::min(r[i].second, r[j].second);
        if (r[i].first < threads && r[j].first < threads) {
          tcm.add_symmetric(r[i].first, r[j].first, shared);
        }
      }
    }
  }
  return tcm;
}

}  // namespace

// --- ObjectSlotMap ------------------------------------------------------------

std::int32_t ObjectSlotMap::get_or_assign(ObjectId obj, bool& fresh) {
  if (obj < kDirectSlotCap) [[likely]] {
    if (obj >= table_.size()) {
      table_.resize(static_cast<std::size_t>(obj) + 1, -1);
    }
    std::int32_t& cell = table_[static_cast<std::size_t>(obj)];
    fresh = cell < 0;
    if (fresh) cell = count_++;
    return cell;
  }
  auto [it, inserted] = spill_.try_emplace(obj, count_);
  fresh = inserted;
  if (inserted) ++count_;
  return it->second;
}

bool ObjectSlotMap::contains(ObjectId obj) const {
  if (obj < kDirectSlotCap) {
    return obj < table_.size() && table_[static_cast<std::size_t>(obj)] >= 0;
  }
  return spill_.count(obj) != 0;
}

void ObjectSlotMap::release(std::span<const ObjectId> touched) {
  for (const ObjectId obj : touched) {
    if (obj < kDirectSlotCap) {
      table_[static_cast<std::size_t>(obj)] = -1;
    }
  }
  spill_.clear();
  count_ = 0;
}

// --- arena reorganize ---------------------------------------------------------

namespace {

/// The shared bucket-sort machinery behind every reorganize/merge variant:
/// `for_each` must invoke its argument once per (thread, object, class,
/// already-scaled bytes) tuple, in any order, any number of times per
/// (thread, object).  Pass 1 flattens through the direct-indexed slot map,
/// pass 2 prefix-sums + scatters, pass 3 stamp-dedups each segment in place
/// with max-combining.
template <typename ForEach>
ReaderArena reorganize_impl(ArenaScratch& s, std::size_t total_hint,
                            ForEach&& for_each) {
  ReaderArena arena;
  s.counts.clear();
  s.flat_slot.clear();
  s.flat_reader.clear();

  // Pass 1: flatten entries, assigning dense object slots in first-appearance
  // order (direct-indexed bucket "hash" — object ids are dense heap ids) and
  // counting each slot's bucket size.
  s.flat_slot.reserve(total_hint);
  s.flat_reader.reserve(total_hint);

  ThreadId max_thread = 0;
  for_each([&](ThreadId thread, ObjectId obj, ClassId klass, double bytes) {
    bool fresh = false;
    const std::int32_t slot = s.slots.get_or_assign(obj, fresh);
    if (fresh) {
      arena.objects.push_back(obj);
      arena.klass.push_back(klass);
      s.counts.push_back(0);
    }
    ++s.counts[static_cast<std::size_t>(slot)];
    max_thread = std::max(max_thread, thread);
    s.flat_slot.push_back(static_cast<std::uint32_t>(slot));
    s.flat_reader.emplace_back(thread, bytes);
  });

  // Pass 2: prefix sums + scatter into the contiguous buffer (bucket sort).
  const std::size_t object_count = arena.objects.size();
  arena.offsets.assign(object_count + 1, 0);
  for (std::size_t k = 0; k < object_count; ++k) {
    arena.offsets[k + 1] = arena.offsets[k] + s.counts[k];
  }
  s.cursor.assign(arena.offsets.begin(), arena.offsets.end() - 1);
  arena.readers.resize(s.flat_reader.size());
  for (std::size_t i = 0; i < s.flat_reader.size(); ++i) {
    arena.readers[s.cursor[s.flat_slot[i]]++] = s.flat_reader[i];
  }

  // Pass 3: dedup each segment by thread with max-combining.  Stamps are
  // direct-indexed by thread id (thread ids are dense too) and epoch-tagged,
  // so reuse across calls never needs a re-zeroing pass; the write cursor
  // trails the read cursor, so compaction is in place.
  if (s.stamp.size() <= max_thread) {
    s.stamp.resize(static_cast<std::size_t>(max_thread) + 1, 0);
    s.pos.resize(static_cast<std::size_t>(max_thread) + 1, 0);
  }
  std::uint32_t write = 0;
  for (std::size_t k = 0; k < object_count; ++k) {
    const std::uint64_t epoch = ++s.epoch;
    const std::uint32_t lo = arena.offsets[k];
    const std::uint32_t hi = arena.offsets[k + 1];
    arena.offsets[k] = write;
    for (std::uint32_t r = lo; r < hi; ++r) {
      const auto [thread, bytes] = arena.readers[r];
      const auto ti = static_cast<std::size_t>(thread);
      if (s.stamp[ti] != epoch) {
        s.stamp[ti] = epoch;
        s.pos[ti] = write;
        arena.readers[write++] = {thread, bytes};
      } else if (bytes > arena.readers[s.pos[ti]].second) {
        arena.readers[s.pos[ti]].second = bytes;
      }
    }
  }
  arena.offsets[object_count] = write;
  arena.readers.resize(write);

  // Release the slot assignments (the direct table keeps its allocation for
  // the next call).
  s.slots.release(arena.objects);
  return arena;
}

}  // namespace

ReaderArena TcmBuilder::reorganize_arena(std::span<const OalArena> logs,
                                         bool weighted, ArenaScratch& s) {
  std::size_t total_entries = 0;
  for (const OalArena& log : logs) total_entries += log.entries.size();
  return reorganize_impl(s, total_entries, [&](auto&& emit) {
    for (const OalArena& log : logs) {
      for (const ArenaInterval& iv : log.intervals) {
        for (std::uint32_t i = iv.begin; i < iv.end; ++i) {
          const OalEntry& e = log.entries[i];
          emit(iv.thread, e.obj, e.klass, entry_bytes(e, weighted));
        }
      }
    }
  });
}

ReaderArena TcmBuilder::reorganize_arena(std::span<const ArenaSliceRef> slices,
                                         bool weighted, ArenaScratch& s) {
  std::size_t total_entries = 0;
  for (const ArenaSliceRef& ref : slices) {
    const ArenaInterval& iv = ref.log->intervals[ref.slice];
    total_entries += iv.end - iv.begin;
  }
  return reorganize_impl(s, total_entries, [&](auto&& emit) {
    for (const ArenaSliceRef& ref : slices) {
      const ArenaInterval& iv = ref.log->intervals[ref.slice];
      for (std::uint32_t i = iv.begin; i < iv.end; ++i) {
        const OalEntry& e = ref.log->entries[i];
        emit(iv.thread, e.obj, e.klass, entry_bytes(e, weighted));
      }
    }
  });
}

ReaderArena TcmBuilder::merge_arenas(const ReaderArena& a, const ReaderArena& b,
                                     ArenaScratch& s) {
  const auto feed = [](const ReaderArena& src, auto& emit) {
    for (std::size_t k = 0; k < src.object_count(); ++k) {
      for (const auto& [thread, bytes] : src.readers_of(k)) {
        emit(thread, src.objects[k], src.klass[k], bytes);
      }
    }
  };
  return reorganize_impl(s, a.readers.size() + b.readers.size(),
                         [&](auto&& emit) {
                           feed(a, emit);
                           feed(b, emit);
                         });
}

// --- accrual ------------------------------------------------------------------

UpperTriangle TcmBuilder::accrue_sparse(const ReaderArena& arena,
                                        std::uint32_t threads) {
  UpperTriangle pairs(threads);
  for (std::size_t k = 0; k < arena.object_count(); ++k) {
    const auto r = arena.readers_of(k);
    for (std::size_t i = 0; i < r.size(); ++i) {
      if (r[i].first >= threads) continue;
      for (std::size_t j = i + 1; j < r.size(); ++j) {
        if (r[j].first >= threads) continue;
        pairs.add(r[i].first, r[j].first, std::min(r[i].second, r[j].second));
      }
    }
  }
  return pairs;
}

SquareMatrix TcmBuilder::build_reference(std::span<const OalArena> logs,
                                         std::uint32_t threads, bool weighted) {
  // The seed's pipeline: per-object summaries behind a hash map (one rehash
  // + one linear reader scan per entry, one vector per object), then dense
  // accrual — the oracle the sparse pipeline is measured and verified
  // against.
  std::unordered_map<ObjectId, std::size_t> index;
  std::vector<ObjectAccessSummary> summaries;
  index.reserve(1024);
  for (const OalArena& log : logs) {
    for (const ArenaInterval& iv : log.intervals) {
      for (std::uint32_t i = iv.begin; i < iv.end; ++i) {
        const OalEntry& e = log.entries[i];
        const double bytes = entry_bytes(e, weighted);
        auto [it, inserted] = index.try_emplace(e.obj, summaries.size());
        if (inserted) {
          summaries.push_back(ObjectAccessSummary{e.obj, {}});
        }
        auto& readers = summaries[it->second].readers;
        auto rit = std::find_if(readers.begin(), readers.end(),
                                [&](const auto& p) { return p.first == iv.thread; });
        if (rit == readers.end()) {
          readers.emplace_back(iv.thread, bytes);
        } else {
          rit->second = std::max(rit->second, bytes);
        }
      }
    }
  }
  return accrue(summaries, threads);
}

// --- incremental accumulator --------------------------------------------------

TcmAccumulator::TcmAccumulator(std::uint32_t threads, bool weighted)
    : threads_(threads), weighted_(weighted), pairs_(threads) {}

std::int32_t TcmAccumulator::assign_slot(ObjectId obj) {
  bool fresh = false;
  const std::int32_t slot = slots_.get_or_assign(obj, fresh);
  if (fresh) {
    touched_.push_back(obj);
    klass_.push_back(kInvalidClass);
    heads_.push_back(kNone);
    last_touch_.push_back(epoch_);
    decay_epoch_.push_back(kNeverDecayed);
  }
  return slot;
}

std::int32_t TcmAccumulator::alloc_reader(ThreadId thread, double bytes,
                                          std::int32_t next) {
  ++live_readers_;
  if (free_head_ != kNone) {
    const std::int32_t r = free_head_;
    free_head_ = pool_[r].next;
    pool_[r] = Reader{thread, bytes, next};
    return r;
  }
  pool_.push_back(Reader{thread, bytes, next});
  return static_cast<std::int32_t>(pool_.size()) - 1;
}

void TcmAccumulator::add_one(ObjectId obj, ThreadId thread, double bytes) {
  if (thread >= threads_) return;  // beyond the map's dimension (as accrue)
  const std::int32_t slot = assign_slot(obj);
  last_touch_[static_cast<std::size_t>(slot)] = epoch_;
  std::int32_t& head = heads_[static_cast<std::size_t>(slot)];

  std::int32_t found = kNone;
  for (std::int32_t r = head; r != kNone; r = pool_[r].next) {
    if (pool_[r].thread == thread) {
      found = r;
      break;
    }
  }
  if (found != kNone) {
    const double old = pool_[found].bytes;
    if (bytes <= old) return;  // max-combining: nothing new to contribute
    // Raising this reader's byte value moves every pair it participates in
    // by min(new, other) - min(old, other); the invariant pair == min(cur_i,
    // cur_j) per object is preserved.
    for (std::int32_t r = head; r != kNone; r = pool_[r].next) {
      if (r == found) continue;
      const double other = pool_[r].bytes;
      const double delta = std::min(bytes, other) - std::min(old, other);
      if (delta > 0.0) pairs_.add(thread, pool_[r].thread, delta);
    }
    pool_[found].bytes = bytes;
    return;
  }
  // First sighting of this (object, thread): pair up with every reader
  // already on the object's list.
  for (std::int32_t r = head; r != kNone; r = pool_[r].next) {
    pairs_.add(thread, pool_[r].thread, std::min(bytes, pool_[r].bytes));
  }
  head = alloc_reader(thread, bytes, head);
}

void TcmAccumulator::add(std::span<const OalArena> logs) {
  // Arena-reorganize the batch first: in-batch duplicates collapse under a
  // stamp check instead of paying a reader-list walk each.  The scratch
  // persists across folds, so steady-state batches allocate only the
  // arena's own payload.
  const ReaderArena arena =
      TcmBuilder::reorganize_arena(logs, weighted_, scratch_);
  for (std::size_t k = 0; k < arena.object_count(); ++k) {
    add_readers(arena.objects[k], arena.readers_of(k), arena.klass[k]);
  }
}

void TcmAccumulator::add_readers(
    ObjectId obj, std::span<const std::pair<ThreadId, double>> readers,
    ClassId klass) {
  for (const auto& [thread, bytes] : readers) add_one(obj, thread, bytes);
  if (klass == kInvalidClass) return;
  // Tag only objects that actually hold a slot (every reader could have been
  // beyond the map's dimension, in which case add_one assigned nothing).
  if (slots_.contains(obj)) {
    bool fresh = false;
    klass_[static_cast<std::size_t>(slots_.get_or_assign(obj, fresh))] = klass;
  }
}

TcmClassAttribution TcmAccumulator::attribute_cells(
    std::span<const NodeId> node_of_thread) const {
  TcmClassAttribution out;
  const auto node_of = [&](ThreadId t) {
    return t < node_of_thread.size() ? node_of_thread[t] : kInvalidNode;
  };
  const auto grow = [&](std::size_t c) {
    if (out.cut_bytes.size() <= c) {
      out.cut_bytes.resize(c + 1, 0.0);
      out.local_bytes.resize(c + 1, 0.0);
      out.thread_mass.resize(c + 1);
    }
    if (out.thread_mass[c].empty()) out.thread_mass[c].resize(threads_, 0.0);
  };
  for (std::size_t slot = 0; slot < touched_.size(); ++slot) {
    const ClassId klass = klass_[slot];
    if (klass == kInvalidClass) continue;  // untagged partial: no attribution
    const auto c = static_cast<std::size_t>(klass);
    for (std::int32_t i = heads_[slot]; i != kNone; i = pool_[i].next) {
      for (std::int32_t j = pool_[i].next; j != kNone; j = pool_[j].next) {
        const double w = std::min(pool_[i].bytes, pool_[j].bytes);
        if (w <= 0.0) continue;
        grow(c);
        const NodeId ni = node_of(pool_[i].thread);
        const NodeId nj = node_of(pool_[j].thread);
        // Unplaced threads make no cross-node claim: count them local.
        if (ni != nj && ni != kInvalidNode && nj != kInvalidNode) {
          out.cut_bytes[c] += w;
        } else {
          out.local_bytes[c] += w;
        }
        out.thread_mass[c][pool_[i].thread] += w;
        out.thread_mass[c][pool_[j].thread] += w;
      }
    }
  }
  return out;
}

void TcmAccumulator::merge(const TcmAccumulator& other) {
  assert(threads_ == other.threads_);
  // Replay the other partial's reader lists: cross-partial pairs appear as
  // the readers land, and pairs internal to `other` are reconstructed, so
  // the merged state is exactly what one accumulator over both streams
  // would hold.
  for (std::size_t slot = 0; slot < other.touched_.size(); ++slot) {
    const ObjectId obj = other.touched_[slot];
    for (std::int32_t r = other.heads_[slot]; r != kNone; r = other.pool_[r].next) {
      add_one(obj, other.pool_[r].thread, other.pool_[r].bytes);
    }
    if (other.klass_[slot] != kInvalidClass && slots_.contains(obj)) {
      bool fresh = false;
      klass_[static_cast<std::size_t>(slots_.get_or_assign(obj, fresh))] =
          other.klass_[slot];
    }
  }
}

void TcmAccumulator::reset() {
  slots_.release(touched_);
  touched_.clear();
  klass_.clear();
  heads_.clear();
  last_touch_.clear();
  decay_epoch_.clear();
  pool_.clear();
  pairs_.clear();
  free_head_ = kNone;
  live_readers_ = 0;
  epoch_ = 0;
}

TcmCompactStats TcmAccumulator::compact(std::uint32_t idle_epochs,
                                        double decay) {
  TcmCompactStats stats;
  if (idle_epochs == 0) return stats;  // age 0 would evict the live epoch too
  bool any_dead = false;
  for (std::size_t slot = 0; slot < touched_.size(); ++slot) {
    if (heads_[slot] == kNone) continue;  // already evicted, awaiting compact
    const std::uint32_t age = epoch_ - last_touch_[slot];
    if (age < idle_epochs) continue;

    if (decay > 0.0) {
      if (decay_epoch_[slot] == epoch_) continue;  // idempotent per epoch
      double max_bytes = 0.0;
      for (std::int32_t r = heads_[slot]; r != kNone; r = pool_[r].next) {
        max_bytes = std::max(max_bytes, pool_[r].bytes);
      }
      if (decay * max_bytes >= 1.0) {
        // Scaling every reader of this object by d scales each of its pair
        // contributions min(b_i, b_j) by d as well: subtract the (1 - d)
        // share, then scale the bytes, and the invariant holds over the
        // decayed values.
        for (std::int32_t i = heads_[slot]; i != kNone; i = pool_[i].next) {
          for (std::int32_t j = pool_[i].next; j != kNone; j = pool_[j].next) {
            const double w = std::min(pool_[i].bytes, pool_[j].bytes);
            if (w > 0.0) {
              pairs_.add(pool_[i].thread, pool_[j].thread, -(1.0 - decay) * w);
            }
          }
        }
        for (std::int32_t r = heads_[slot]; r != kNone; r = pool_[r].next) {
          pool_[r].bytes *= decay;
        }
        decay_epoch_[slot] = epoch_;
        ++stats.decayed_objects;
        continue;
      }
      // Decayed to less than a byte: dust — fall through to the drop path.
    }

    // Drop outright: subtract this object's exact pair contribution (byte
    // values are the ones the adds accumulated, so never-decayed objects
    // cancel exactly), return its reader nodes to the free list.
    for (std::int32_t i = heads_[slot]; i != kNone; i = pool_[i].next) {
      for (std::int32_t j = pool_[i].next; j != kNone; j = pool_[j].next) {
        const double w = std::min(pool_[i].bytes, pool_[j].bytes);
        if (w > 0.0) pairs_.add(pool_[i].thread, pool_[j].thread, -w);
      }
    }
    for (std::int32_t r = heads_[slot]; r != kNone;) {
      const std::int32_t next = pool_[r].next;
      pool_[r].next = free_head_;
      free_head_ = r;
      r = next;
      --live_readers_;
      ++stats.freed_readers;
    }
    heads_[slot] = kNone;
    any_dead = true;
    ++stats.dropped_objects;
  }

  if (any_dead) {
    // Compact the slot arrays in place (stable order), then re-assign
    // sequential slots: get_or_assign hands out 0, 1, 2... in call order, so
    // survivor k lands back at slot k.
    slots_.release(touched_);
    std::size_t w = 0;
    for (std::size_t slot = 0; slot < touched_.size(); ++slot) {
      if (heads_[slot] == kNone) continue;
      touched_[w] = touched_[slot];
      klass_[w] = klass_[slot];
      heads_[w] = heads_[slot];
      last_touch_[w] = last_touch_[slot];
      decay_epoch_[w] = decay_epoch_[slot];
      ++w;
    }
    touched_.resize(w);
    klass_.resize(w);
    heads_.resize(w);
    last_touch_.resize(w);
    decay_epoch_.resize(w);
    for (std::size_t k = 0; k < w; ++k) {
      bool fresh = false;
      const std::int32_t s = slots_.get_or_assign(touched_[k], fresh);
      assert(fresh && s == static_cast<std::int32_t>(k));
      (void)s;
    }
  }
  return stats;
}

std::size_t TcmAccumulator::memory_bytes() const noexcept {
  return touched_.capacity() * sizeof(ObjectId) +
         klass_.capacity() * sizeof(ClassId) +
         heads_.capacity() * sizeof(std::int32_t) +
         last_touch_.capacity() * sizeof(std::uint32_t) +
         decay_epoch_.capacity() * sizeof(std::uint32_t) +
         pool_.capacity() * sizeof(Reader) +
         pairs_.cell_count() * sizeof(double);
}

}  // namespace djvm
