#include "balance/load_balancer.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <numeric>

namespace djvm {

std::vector<std::uint32_t> Placement::loads(std::uint32_t nodes) const {
  std::vector<std::uint32_t> l(nodes, 0);
  for (NodeId n : node_of_thread) {
    if (n < nodes) ++l[n];
  }
  return l;
}

Placement round_robin_placement(std::uint32_t threads, std::uint32_t nodes) {
  Placement p;
  p.node_of_thread.resize(threads);
  for (std::uint32_t t = 0; t < threads; ++t) {
    p.node_of_thread[t] = static_cast<NodeId>(t % nodes);
  }
  return p;
}

double remote_shared_bytes(const SquareMatrix& tcm, const Placement& p) {
  double remote = 0.0;
  const std::size_t n = tcm.size();
  assert(p.node_of_thread.size() >= n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (p.node_of_thread[i] != p.node_of_thread[j]) remote += tcm.at(i, j);
    }
  }
  return remote;
}

double local_shared_bytes(const SquareMatrix& tcm, const Placement& p) {
  double local = 0.0;
  const std::size_t n = tcm.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (p.node_of_thread[i] == p.node_of_thread[j]) local += tcm.at(i, j);
    }
  }
  return local;
}

Placement correlation_placement(const SquareMatrix& tcm, std::uint32_t nodes,
                                std::uint32_t slack) {
  const std::uint32_t threads = static_cast<std::uint32_t>(tcm.size());
  const std::uint32_t capacity =
      nodes == 0 ? threads : (threads + nodes - 1) / nodes + slack;

  // Union-find clustering, merging heaviest TCM edges first.
  std::vector<std::uint32_t> parent(threads);
  std::vector<std::uint32_t> size(threads, 1);
  std::iota(parent.begin(), parent.end(), 0);
  std::function<std::uint32_t(std::uint32_t)> find = [&](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };

  struct Edge {
    double w;
    std::uint32_t i, j;
  };
  std::vector<Edge> edges;
  edges.reserve(threads * (threads - 1) / 2);
  for (std::uint32_t i = 0; i < threads; ++i) {
    for (std::uint32_t j = i + 1; j < threads; ++j) {
      const double w = tcm.at(i, j);
      if (w > 0.0) edges.push_back({w, i, j});
    }
  }
  std::stable_sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.w != b.w) return a.w > b.w;
    if (a.i != b.i) return a.i < b.i;
    return a.j < b.j;
  });
  for (const Edge& e : edges) {
    const std::uint32_t ri = find(e.i);
    const std::uint32_t rj = find(e.j);
    if (ri == rj) continue;
    if (size[ri] + size[rj] > capacity) continue;
    parent[rj] = ri;
    size[ri] += size[rj];
  }

  // Gather clusters; assign first-fit decreasing onto nodes.
  std::vector<std::vector<std::uint32_t>> clusters;
  std::vector<std::int32_t> cluster_of(threads, -1);
  for (std::uint32_t t = 0; t < threads; ++t) {
    const std::uint32_t r = find(t);
    if (cluster_of[r] < 0) {
      cluster_of[r] = static_cast<std::int32_t>(clusters.size());
      clusters.emplace_back();
    }
    clusters[static_cast<std::size_t>(cluster_of[r])].push_back(t);
  }
  std::stable_sort(clusters.begin(), clusters.end(),
                   [](const auto& a, const auto& b) { return a.size() > b.size(); });

  Placement p;
  p.node_of_thread.assign(threads, 0);
  std::vector<std::uint32_t> load(std::max<std::uint32_t>(nodes, 1), 0);
  for (const auto& cluster : clusters) {
    // Pick the least-loaded node that can take the whole cluster; fall back
    // to the least-loaded node.
    std::uint32_t best = 0;
    bool found = false;
    for (std::uint32_t n = 0; n < load.size(); ++n) {
      if (load[n] + cluster.size() <= capacity &&
          (!found || load[n] < load[best])) {
        best = n;
        found = true;
      }
    }
    if (!found) {
      best = static_cast<std::uint32_t>(
          std::min_element(load.begin(), load.end()) - load.begin());
    }
    for (std::uint32_t t : cluster) p.node_of_thread[t] = static_cast<NodeId>(best);
    load[best] += static_cast<std::uint32_t>(cluster.size());
  }
  return p;
}

Placement assemble_placement(std::span<const NodeId> placed, std::size_t dim) {
  Placement p;
  p.node_of_thread.assign(dim, kInvalidNode);
  for (std::size_t t = 0; t < placed.size() && t < dim; ++t) {
    p.node_of_thread[t] = placed[t];
  }
  return p;
}

std::vector<MigrationSuggestion> plan_migrations(
    const SquareMatrix& tcm, const Placement& current,
    std::span<const ClassFootprint> footprints,
    std::span<const std::uint64_t> context_bytes, const MigrationCostModel& model,
    std::uint32_t nodes, double bytes_per_ns, std::uint32_t slack) {
  // Per-(thread, node) affinities, precomputed in one O(threads^2) pass: a
  // node is scored once per (thread, candidate node), and recomputing the
  // thread scan there would make the every-epoch planner O(threads^2 x nodes).
  const std::uint32_t threads = static_cast<std::uint32_t>(tcm.size());
  std::vector<double> affinity(static_cast<std::size_t>(threads) * nodes, 0.0);
  for (std::uint32_t t = 0; t < threads; ++t) {
    for (std::uint32_t u = 0; u < threads; ++u) {
      if (u == t) continue;
      const NodeId n = current.node_of_thread[u];
      if (n < nodes) affinity[static_cast<std::size_t>(t) * nodes + n] += tcm.at(t, u);
    }
  }
  const auto value = [&](std::uint32_t t, std::uint32_t n) {
    return affinity[static_cast<std::size_t>(t) * nodes + n];
  };

  std::vector<std::uint32_t> load = current.loads(nodes);
  // Capacity is derived from the threads that actually sit on a node (the
  // sum of the loads): kInvalidNode padding for map slots with no spawned
  // thread must not inflate the ceiling into accepting infeasible moves.
  const std::uint32_t placed = std::accumulate(load.begin(), load.end(), 0u);
  const std::uint32_t capacity =
      nodes == 0 ? placed : (placed + nodes - 1) / nodes + slack;

  // One pass over the threads, so no two suggestions ever move the same
  // thread.
  std::vector<MigrationSuggestion> out;
  for (std::uint32_t t = 0; t < threads; ++t) {
    const NodeId cur = current.node_of_thread[t];
    // Unplaced threads (kInvalidNode padding for map slots with no spawned
    // thread) can neither migrate nor occupy capacity.
    if (cur >= nodes) continue;
    NodeId best = cur;
    const double cur_value = value(t, cur);
    double best_value = cur_value;
    for (std::uint32_t n = 0; n < nodes; ++n) {
      if (n == cur) continue;
      if (load[n] + 1 > capacity) continue;
      const double v = value(t, n);
      if (v > best_value) {
        best = static_cast<NodeId>(n);
        best_value = v;
      }
    }
    if (best == cur) continue;

    const double gain = best_value - cur_value;
    const ClassFootprint fp =
        t < footprints.size() ? footprints[t] : ClassFootprint{};
    const std::uint64_t ctx = t < context_bytes.size() ? context_bytes[t] : 1024;
    const MigrationCostEstimate est = model.estimate(ctx, fp);
    const double cost_bytes =
        static_cast<double>(est.total_with_prefetch()) * bytes_per_ns;
    if (gain <= cost_bytes) continue;

    // Accept: apply the move to the loads and the affinity table so later
    // candidates score against the intended batch, not the stale pre-batch
    // placement — the mover's mass in every other thread's row shifts from
    // the old node's column to the new one (O(threads) per accepted move).
    --load[cur];
    ++load[best];
    for (std::uint32_t u = 0; u < threads; ++u) {
      if (u == t) continue;
      const double w = tcm.at(u, t);
      if (w == 0.0) continue;
      affinity[static_cast<std::size_t>(u) * nodes + cur] -= w;
      affinity[static_cast<std::size_t>(u) * nodes + best] += w;
    }

    MigrationSuggestion s;
    s.thread = t;
    s.from = cur;
    s.to = best;
    s.gain_bytes = gain;
    s.cost = est.total_with_prefetch();
    s.score = cost_bytes > 0.0 ? gain / cost_bytes : gain;
    out.push_back(s);
  }
  std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.score > b.score;
  });
  return out;
}

}  // namespace djvm
