#include "profiling/tcm.hpp"

#include <algorithm>
#include <numeric>

namespace djvm {

namespace {

/// An entry's byte value: Horvitz-Thompson scaled by its logging-time gap
/// when `weighted`, raw otherwise.
double entry_bytes(const OalEntry& e, bool weighted) {
  return weighted ? static_cast<double>(e.bytes) * e.gap
                  : static_cast<double>(e.bytes);
}

}  // namespace

// --- ObjectSlotMap ------------------------------------------------------------

std::int32_t ObjectSlotMap::get_or_assign(ObjectId obj, bool& fresh) {
  if (obj < kDirectCap) [[likely]] {
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

void ObjectSlotMap::release(std::span<const ObjectId> touched) {
  for (const ObjectId obj : touched) {
    if (obj < kDirectCap) {
      table_[static_cast<std::size_t>(obj)] = -1;
    }
  }
  spill_.clear();
  count_ = 0;
}

// --- arena reorganize ---------------------------------------------------------

ReaderArena TcmBuilder::reorganize_arena(std::span<const OalArena* const> logs,
                                         bool weighted, ArenaScratch& s) {
  ReaderArena arena;
  s.counts.clear();
  s.flat_slot.clear();
  s.flat_reader.clear();

  // Pass 1: flatten entries, assigning dense object slots in first-appearance
  // order (direct-indexed bucket "hash" — object ids are dense heap ids) and
  // counting each slot's bucket size.
  std::size_t total_entries = 0;
  for (const OalArena* log : logs) total_entries += log->entries.size();
  s.flat_slot.reserve(total_entries);
  s.flat_reader.reserve(total_entries);

  ThreadId max_thread = 0;
  for (const OalArena* log : logs) {
    for (const ArenaInterval& iv : log->intervals) {
      for (std::uint32_t i = iv.begin; i < iv.end; ++i) {
        const OalEntry& e = log->entries[i];
        bool fresh = false;
        const std::int32_t slot = s.slots.get_or_assign(e.obj, fresh);
        if (fresh) {
          arena.objects.push_back(e.obj);
          arena.klass.push_back(e.klass);
          s.counts.push_back(0);
        }
        ++s.counts[static_cast<std::size_t>(slot)];
        max_thread = std::max(max_thread, iv.thread);
        s.flat_slot.push_back(static_cast<std::uint32_t>(slot));
        s.flat_reader.emplace_back(iv.thread, entry_bytes(e, weighted));
      }
    }
  }

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

TcmClassAttribution TcmBuilder::attribute_cells(
    const ReaderArena& arena, std::span<const NodeId> node_of_thread,
    std::uint32_t threads) {
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
    if (out.thread_mass[c].empty()) out.thread_mass[c].resize(threads, 0.0);
  };
  for (std::size_t k = 0; k < arena.object_count(); ++k) {
    const ClassId klass = arena.klass[k];
    if (klass == kInvalidClass) continue;  // untagged: no attribution
    const auto c = static_cast<std::size_t>(klass);
    const auto r = arena.readers_of(k);
    for (std::size_t i = 0; i < r.size(); ++i) {
      if (r[i].first >= threads) continue;
      for (std::size_t j = i + 1; j < r.size(); ++j) {
        if (r[j].first >= threads) continue;
        const double w = std::min(r[i].second, r[j].second);
        if (w <= 0.0) continue;
        grow(c);
        const NodeId ni = node_of(r[i].first);
        const NodeId nj = node_of(r[j].first);
        // Unplaced threads make no cross-node claim: count them local.
        if (ni != nj && ni != kInvalidNode && nj != kInvalidNode) {
          out.cut_bytes[c] += w;
        } else {
          out.local_bytes[c] += w;
        }
        out.thread_mass[c][r[i].first] += w;
        out.thread_mass[c][r[j].first] += w;
      }
    }
  }
  return out;
}

// --- whole-run store ----------------------------------------------------------

TcmStore::TcmStore(std::uint32_t threads)
    : threads_(threads), stamp_(threads, 0), pos_(threads, 0) {
  csr_.offsets.push_back(0);
}

void TcmStore::order_window(const ReaderArena& w) {
  const std::size_t n = w.object_count();
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), 0u);
  if (n == 0) return;
  const auto [lo, hi] = std::minmax_element(w.objects.begin(), w.objects.end());
  const auto range = static_cast<std::size_t>(*hi - *lo) + 1;
  if (*hi >= ObjectSlotMap::kDirectCap || range / 8 > n) {
    // Spill or sparse ids: sort.
    std::sort(order_.begin(), order_.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return w.objects[a] < w.objects[b];
              });
    return;
  }
  // Compact ids (the common case): scan a direct-indexed table over the
  // window's id range instead of sorting.
  if (rank_.size() < range) rank_.resize(range, -1);
  for (std::size_t k = 0; k < n; ++k) {
    rank_[w.objects[k] - *lo] = static_cast<std::int32_t>(k);
  }
  order_.clear();
  for (std::size_t i = 0; i < range; ++i) {
    if (rank_[i] >= 0) {
      order_.push_back(static_cast<std::uint32_t>(rank_[i]));
      rank_[i] = -1;
    }
  }
}

void TcmStore::stamp_readers(std::uint32_t begin, std::uint32_t end) {
  ++tag_;
  for (std::uint32_t r = begin; r < end; ++r) {
    const ThreadId t = csr_.readers[r].first;
    stamp_[t] = tag_;
    pos_[t] = r;
  }
}

void TcmStore::absorb(const ReaderArena& w) {
  order_window(w);
  auto& ids = csr_.objects;
  auto& offsets = csr_.offsets;
  auto& readers = csr_.readers;
  const std::size_t n = ids.size();

  // Pass 1, forward co-scan: max-combine readers of held objects in place,
  // and count the objects and readers the store must grow by.
  std::size_t new_objects = 0;
  std::size_t new_readers = 0;
  std::size_t i = 0;
  for (const std::uint32_t k : order_) {
    const ObjectId id = w.objects[k];
    while (i < n && ids[i] < id) ++i;
    const bool held = i < n && ids[i] == id;
    if (held) stamp_readers(offsets[i], offsets[i + 1]);
    std::size_t grown = 0;
    bool touched = false;
    for (const auto& [t, bytes] : w.readers_of(k)) {
      if (t >= threads_) continue;
      touched = true;
      if (held && stamp_[t] == tag_) {
        double& cur = readers[pos_[t]].second;
        cur = std::max(cur, bytes);
      } else {
        ++grown;
      }
    }
    if (!touched) continue;
    if (held) {
      last_touch_[i] = epoch_;
    } else {
      ++new_objects;
    }
    new_readers += grown;
  }
  if (new_objects == 0 && new_readers == 0) return;

  // Pass 2, back to front: every held object keeps its place relative to
  // the others, so each segment moves right by the new readers below it and
  // is moved once.  Stops as soon as nothing below needs to shift.
  const auto old_readers = static_cast<std::uint32_t>(readers.size());
  ids.resize(n + new_objects);
  last_touch_.resize(n + new_objects);
  decay_epoch_.resize(n + new_objects);
  offsets.resize(n + new_objects + 1);
  readers.resize(old_readers + new_readers);
  std::size_t src = n;                 // held objects [0, src) not yet placed
  std::size_t dst = n + new_objects;   // output slots [0, dst) not yet written
  std::uint32_t src_end = old_readers; // end of held object src - 1's readers
  auto dst_end = static_cast<std::uint32_t>(readers.size());
  offsets[dst] = dst_end;
  std::size_t kk = order_.size();      // window objects order_[0, kk) left
  const auto append_new = [&](std::uint32_t k, bool held) {
    // Writes window object k's readers the store lacks below dst_end.
    for (const auto& rd : w.readers_of(k)) {
      if (rd.first < threads_ && !(held && stamp_[rd.first] == tag_)) {
        readers[--dst_end] = rd;
      }
    }
  };
  while (dst != src || dst_end != src_end) {
    if (kk > 0 && (src == 0 || w.objects[order_[kk - 1]] > ids[src - 1])) {
      // A window object the store does not hold yet.
      const std::uint32_t k = order_[--kk];
      const std::uint32_t end = dst_end;
      append_new(k, /*held=*/false);
      if (dst_end == end) continue;  // no reader within the thread bound
      --dst;
      ids[dst] = w.objects[k];
      last_touch_[dst] = epoch_;
      decay_epoch_[dst] = kNeverDecayed;
      offsets[dst] = dst_end;
      continue;
    }
    --src;
    const std::uint32_t begin = offsets[src];
    if (kk > 0 && w.objects[order_[kk - 1]] == ids[src]) {
      stamp_readers(begin, src_end);
      append_new(order_[--kk], /*held=*/true);
    }
    std::move_backward(readers.begin() + begin, readers.begin() + src_end,
                       readers.begin() + dst_end);
    dst_end -= src_end - begin;
    --dst;
    ids[dst] = ids[src];
    last_touch_[dst] = last_touch_[src];
    decay_epoch_[dst] = decay_epoch_[src];
    offsets[dst] = dst_end;
    src_end = begin;
  }
}

TcmCompactStats TcmStore::compact(std::uint32_t idle_epochs, double decay) {
  TcmCompactStats stats;
  if (idle_epochs == 0) return stats;  // age 0 would evict the live epoch too
  auto& ids = csr_.objects;
  auto& offsets = csr_.offsets;
  auto& readers = csr_.readers;
  std::size_t kept = 0;
  std::uint32_t write = 0;
  std::uint32_t begin = 0;
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const std::uint32_t end = offsets[k + 1];
    const std::uint32_t lo = begin;
    begin = end;
    if (epoch_ - last_touch_[k] >= idle_epochs &&
        !(decay > 0.0 && decay_epoch_[k] == epoch_)) {
      double max_bytes = 0.0;
      for (std::uint32_t r = lo; r < end; ++r) {
        max_bytes = std::max(max_bytes, readers[r].second);
      }
      if (decay > 0.0 && decay * max_bytes >= 1.0) {
        for (std::uint32_t r = lo; r < end; ++r) readers[r].second *= decay;
        decay_epoch_[k] = epoch_;
        ++stats.decayed_objects;
      } else {
        // decay 0, or decayed to less than a byte: dust.
        ++stats.dropped_objects;
        stats.dropped_readers += end - lo;
        continue;
      }
    }
    std::move(readers.begin() + lo, readers.begin() + end,
              readers.begin() + write);
    ids[kept] = ids[k];
    last_touch_[kept] = last_touch_[k];
    decay_epoch_[kept] = decay_epoch_[k];
    offsets[kept] = write;
    write += end - lo;
    ++kept;
  }
  ids.resize(kept);
  last_touch_.resize(kept);
  decay_epoch_.resize(kept);
  offsets.resize(kept + 1);
  offsets[kept] = write;
  readers.resize(write);
  return stats;
}

std::size_t TcmStore::memory_bytes() const noexcept {
  return csr_.objects.capacity() * sizeof(ObjectId) +
         csr_.offsets.capacity() * sizeof(std::uint32_t) +
         csr_.readers.capacity() * sizeof(csr_.readers[0]) +
         last_touch_.capacity() * sizeof(std::uint32_t) +
         decay_epoch_.capacity() * sizeof(std::uint32_t);
}

}  // namespace djvm
