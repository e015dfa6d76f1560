// Home-effect-aware placement input (the paper's future work: "our active
// correlation tracking mechanism still needs to be enhanced for taking home
// effect into account ... in some tricky cases that objects shared by a pair
// of threads are homed at neither node of the threads", Section VI).
//
// The TCM only says how much two *threads* share; it cannot distinguish
// whether colocating them helps if the shared objects' home is a third node
// (every access still pays a remote fault there).  The thread-home affinity
// matrix fills that gap: cell (t, n) is the HT-weighted byte volume of
// objects thread t accessed whose home is node n.  A migration toward high
// home affinity reduces fault traffic even with no co-located peer.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "profiling/oal.hpp"
#include "runtime/heap.hpp"

namespace djvm {

/// threads x nodes matrix of access-volume-to-home-node.
class ThreadHomeAffinity {
 public:
  ThreadHomeAffinity(std::uint32_t threads, std::uint32_t nodes)
      : nodes_(nodes), data_(static_cast<std::size_t>(threads) * nodes, 0.0) {}

  [[nodiscard]] std::uint32_t threads() const noexcept {
    return nodes_ == 0 ? 0 : static_cast<std::uint32_t>(data_.size() / nodes_);
  }
  [[nodiscard]] std::uint32_t nodes() const noexcept { return nodes_; }

  double& at(ThreadId t, NodeId n) { return data_[static_cast<std::size_t>(t) * nodes_ + n]; }
  [[nodiscard]] double at(ThreadId t, NodeId n) const {
    return data_[static_cast<std::size_t>(t) * nodes_ + n];
  }

  /// Node with the highest affinity for `t`.
  [[nodiscard]] NodeId best_node(ThreadId t) const;

  /// Total volume thread `t` accesses remotely under placement `node_of_t`.
  [[nodiscard]] double remote_volume(ThreadId t, NodeId node_of_t) const;

 private:
  std::uint32_t nodes_;
  std::vector<double> data_;
};

/// Builds the matrix from collected OAL log arenas: every logged entry
/// contributes its HT-weighted bytes to (slice thread, home(entry.obj)),
/// each (thread, object) pair at most once across the window.  Homes are
/// read at call time, so home migrations are reflected.
[[nodiscard]] ThreadHomeAffinity build_home_affinity(
    std::span<const OalArena> logs, const Heap& heap, std::uint32_t threads,
    std::uint32_t nodes, bool weighted = true);

}  // namespace djvm
