#include "embed/embedder.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>

#include "graph/dijkstra.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace cdst {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Walks a search's parent-edge chain from `at` back to the seed it came
/// from; the predecessor of a labelled vertex is the other end of its parent
/// edge, so the chain needs no predecessor array. Returns that seed; `path`
/// receives the chain's edges in seed -> `at` order. `at` must have been
/// labelled by the search.
VertexId walk_to_seed(const Graph& g, const std::vector<EdgeId>& parent_edge,
                      VertexId at, std::vector<EdgeId>& path) {
  path.clear();
  while (parent_edge[at] != kInvalidEdge) {
    const EdgeId e = parent_edge[at];
    path.push_back(e);
    at = g.other_end(e, at);
  }
  std::reverse(path.begin(), path.end());
  return at;
}

/// A node's propagation as read by a pinned parent: only its value at the
/// parent's pin vertex, plus the chain the backtrack would walk from there.
struct PinnedReach {
  double value{kInf};             ///< propagated table at the pin
  VertexId seed{kInvalidVertex};  ///< the node's placement
  std::vector<EdgeId> path;       ///< seed -> pin edges
};

/// Searches stopped at a target, sharing one set of n-sized labels and one
/// heap across the propagations one task runs. Distances stay all-inf
/// between searches: each search resets exactly the vertices it labelled
/// (parent edges are rewritten whenever a vertex is labelled, so they need
/// no reset). No predecessor array: walk_to_seed derives it.
class BoundedSearch {
 public:
  explicit BoundedSearch(std::size_t n) {
    r_.dist.assign(n, kInf);
    r_.parent_edge.assign(n, kInvalidEdge);
    heap_.reserve(n);
  }

  BinaryHeap<double>& heap() { return heap_; }

  template <typename LengthFn>
  PinnedReach reach(const Graph& g,
                    const std::vector<std::pair<VertexId, double>>& seeds,
                    const LengthFn& length, VertexId pin) {
    dijkstra_search(g, seeds, length, pin, r_, heap_, &labelled_);
    PinnedReach out;
    out.value = r_.dist[pin];
    if (out.value < kInf) {
      out.seed = walk_to_seed(g, r_.parent_edge, pin, out.path);
    }
    for (const VertexId v : labelled_) r_.dist[v] = kInf;
    labelled_.clear();
    return out;
  }

 private:
  DijkstraResult r_;
  BinaryHeap<double> heap_;
  std::vector<VertexId> labelled_;
};

/// Scratch of one running node task: the bounded-search labels and heap,
/// plus the seed list.
struct Workspace {
  explicit Workspace(std::size_t n) : bounded(n) {}
  BoundedSearch bounded;
  std::vector<std::pair<VertexId, double>> seeds;
};

/// Free lists local to one embedding: workspaces (one per concurrently
/// running node task) and the dist arrays of full propagations, which a
/// Steiner node hands back once it has summed them, so the next full
/// propagation refills a recycled array instead of allocating one.
class Recycler {
 public:
  explicit Recycler(std::size_t n) : n_(n) {}

  std::unique_ptr<Workspace> take_workspace() {
    {
      MutexLock lock(mu_);
      if (!workspaces_.empty()) {
        std::unique_ptr<Workspace> ws = std::move(workspaces_.back());
        workspaces_.pop_back();
        return ws;
      }
    }
    return std::make_unique<Workspace>(n_);
  }
  void give(std::unique_ptr<Workspace> ws) {
    MutexLock lock(mu_);
    workspaces_.push_back(std::move(ws));
  }

  /// An all-inf dist array.
  std::vector<double> take_dist() {
    std::vector<double> v;
    {
      MutexLock lock(mu_);
      if (!dists_.empty()) {
        v = std::move(dists_.back());
        dists_.pop_back();
      }
    }
    v.assign(n_, kInf);
    return v;
  }
  void give(std::vector<double>&& v) {
    MutexLock lock(mu_);
    dists_.push_back(std::move(v));
  }

 private:
  const std::size_t n_;
  Mutex mu_;
  std::vector<std::unique_ptr<Workspace>> workspaces_ CDST_GUARDED_BY(mu_);
  std::vector<std::vector<double>> dists_ CDST_GUARDED_BY(mu_);
};

}  // namespace

EmbedResult embed_topology(const PlaneTopology& topo,
                           const CostDistanceInstance& instance,
                           const SolveControls* controls) {
  instance.validate();
  topo.validate(instance.sinks.size());
  const std::atomic<bool>* cancel =
      controls != nullptr ? controls->cancel : nullptr;
  const auto poll = [cancel, controls] {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      throw SolveCancelled();
    }
    throw_if_deadline_expired(controls);
  };
  poll();
  ThreadPool* const pool = controls != nullptr ? controls->pool : nullptr;
  const Graph& g = *instance.graph;
  const std::vector<double>& c = *instance.cost;
  const std::vector<double>& d = *instance.delay;
  const std::size_t n = g.num_vertices();
  const std::size_t nn = topo.nodes.size();
  const auto ch = topo.children();

  // Subtree delay weights and pins: a sink node is pinned to its sink
  // vertex, node 0 (unless it is itself a sink) to the root vertex; Steiner
  // nodes float. Heights (a leaf is 0, a parent one above its highest
  // child) order the DP: nodes of one height depend only on lower ones.
  std::vector<double> subw(nn, 0.0);
  std::vector<VertexId> pin(nn, kInvalidVertex);
  std::vector<std::size_t> height(nn, 0);
  pin[0] = instance.root;
  for (std::size_t i = nn; i-- > 0;) {
    if (topo.nodes[i].sink_index >= 0) {
      const Terminal& s =
          instance.sinks[static_cast<std::size_t>(topo.nodes[i].sink_index)];
      subw[i] += s.weight;
      pin[i] = s.vertex;
    }
    if (topo.nodes[i].parent >= 0) {
      const auto p = static_cast<std::size_t>(topo.nodes[i].parent);
      subw[p] += subw[i];
      height[p] = std::max(height[p], height[i] + 1);
    }
  }
  // A node under a Steiner parent runs a full propagation.
  const auto full = [&](std::size_t i) {
    return pin[static_cast<std::size_t>(topo.nodes[i].parent)] ==
           kInvalidVertex;
  };
  std::vector<std::vector<std::size_t>> levels(nn > 1 ? height[0] : 0);
  for (std::size_t i = nn; i-- > 1;) levels[height[i]].push_back(i);

  // Bottom-up DP. Node i's table F_i is the sum of its children's
  // propagations, restricted to its pin if it has one; it seeds one
  // Dijkstra under the metric c + W_i * d whose result the parent reads.
  // A pinned parent reads it at its pin only, so that search stops there
  // (reach[i]); a Steiner parent reads all of it (dist[i], released once
  // summed, and parent_edge[i], kept for the backtrack). Each node writes
  // only its own slots and sums its children in ch[i] order, so running a
  // level's nodes concurrently changes no value, placement or path.
  std::vector<PinnedReach> reach(nn);
  std::vector<std::vector<double>> dist(nn);
  std::vector<std::vector<EdgeId>> parent_edge(nn);
  Recycler recycler(n);

  const auto propagate = [&](std::size_t i, Workspace& ws) {
    // One propagation per node makes the node the natural cancellation
    // granularity (bounded latency: one propagation).
    poll();
    std::vector<std::pair<VertexId, double>>& seeds = ws.seeds;
    seeds.clear();
    if (pin[i] != kInvalidVertex) {
      // All children read at this pin: F_i(pin) is the sum of their values.
      double at_pin = 0.0;
      for (const std::int32_t cc : ch[i]) {
        at_pin += reach[static_cast<std::size_t>(cc)].value;
      }
      if (at_pin < kInf) seeds.emplace_back(pin[i], at_pin);
    } else if (!ch[i].empty()) {
      // F_i accumulates in the first child's dist array, which dies here
      // anyway. Starting from it instead of from 0.0 changes no bit: every
      // label is a seed (a sum that starts at +0.0) plus non-negative
      // lengths, so it is never -0.0, and 0.0 + x == x for all others.
      std::vector<double> fi =
          std::move(dist[static_cast<std::size_t>(ch[i][0])]);
      for (std::size_t k = 1; k < ch[i].size(); ++k) {
        const std::vector<double>& gu =
            dist[static_cast<std::size_t>(ch[i][k])];
        for (std::size_t v = 0; v < n; ++v) fi[v] += gu[v];
      }
      for (VertexId v = 0; v < n; ++v) {
        if (fi[v] < kInf) {
          // The backtrack walks each child's parent edges from wherever
          // this node lands, with no dist left to check reachability. A
          // finite sum of non-negative labels means every child reached v;
          // checking it here keeps that a release-build guarantee.
          for (std::size_t k = 1; k < ch[i].size(); ++k) {
            CDST_CHECK_MSG(dist[static_cast<std::size_t>(ch[i][k])][v] < kInf,
                           "embedding backtrack would hit unreached vertex");
          }
          seeds.emplace_back(v, fi[v]);
        }
      }
      for (std::size_t k = 1; k < ch[i].size(); ++k) {
        recycler.give(std::move(dist[static_cast<std::size_t>(ch[i][k])]));
      }
      recycler.give(std::move(fi));
    }
    // Propagate upward under the weighted metric c + W_i * d, scanning the
    // instance's SoA arc plane when one is attached (bit-identical to the
    // per-edge gather path).
    const CostDelayLength metric =
        instance.arc_costs != nullptr
            ? CostDelayLength(*instance.arc_costs, subw[i])
            : CostDelayLength{c, d, subw[i]};
    if (!full(i)) {
      const auto p = static_cast<std::size_t>(topo.nodes[i].parent);
      reach[i] = ws.bounded.reach(g, seeds, metric, pin[p]);
    } else {
      DijkstraResult r;
      r.dist = recycler.take_dist();
      r.parent_edge.assign(n, kInvalidEdge);
      dijkstra_search(g, seeds, metric, kInvalidVertex, r,
                      ws.bounded.heap());
      dist[i] = std::move(r.dist);
      parent_edge[i] = std::move(r.parent_edge);
    }
  };

  // One parallel_for per height: idle lanes of the pool (lanes whose own
  // batch ran dry) join a level while its nodes remain.
  for (const std::vector<std::size_t>& level : levels) {
    const std::function<void(std::size_t)> run = [&](std::size_t k) {
      std::unique_ptr<Workspace> ws = recycler.take_workspace();
      propagate(level[k], *ws);
      recycler.give(std::move(ws));
    };
    if (pool != nullptr) {
      pool->parallel_for(0, level.size(), run);
    } else {
      for (std::size_t k = 0; k < level.size(); ++k) run(k);
    }
  }

  // Root: a topology's root node is pinned to the root vertex, and F_0
  // there is the sum of its children's values.
  double root_value = kInf;
  if (!ch[0].empty() && pin[0] == instance.root) {
    root_value = 0.0;
    for (const std::int32_t cc : ch[0]) {
      root_value += reach[static_cast<std::size_t>(cc)].value;
    }
  }
  CDST_CHECK_MSG(root_value < kInf,
                 "topology cannot be embedded: graph disconnected");

  // ---- Backtrack: place nodes top-down and collect embedded paths. -------
  TreeAssembler assembler(g);
  std::vector<TreeAssembler::NodeId> anode(nn, TreeAssembler::kNoNode);
  std::vector<VertexId> placed(nn, kInvalidVertex);
  placed[0] = instance.root;
  anode[0] = assembler.add_root(instance.root);

  std::vector<EdgeId> path_up;  // child (= seed) -> parent order
  for (std::size_t i = 1; i < nn; ++i) {
    const auto p = static_cast<std::size_t>(topo.nodes[i].parent);
    CDST_ASSERT(placed[p] != kInvalidVertex);
    // The seed of the chain that reaches the parent's placement is node i's
    // optimal placement. A pinned parent sits at its pin, where reach[i]
    // already stopped. A Steiner parent sits where its F_p was finite, so
    // node i's full propagation reached it (asserted at the sum).
    if (!full(i)) {
      CDST_ASSERT(placed[p] == pin[p]);
      PinnedReach& rr = reach[i];
      CDST_CHECK_MSG(rr.value < kInf,
                     "embedding backtrack hit unreached vertex");
      placed[i] = rr.seed;
      path_up = std::move(rr.path);
    } else {
      placed[i] = walk_to_seed(g, parent_edge[i], placed[p], path_up);
    }

    const std::int32_t si = topo.nodes[i].sink_index;
    anode[i] = (si >= 0) ? assembler.add_sink(placed[i], si)
                         : assembler.add_steiner(placed[i]);
    assembler.add_segment(anode[i], anode[p], path_up);
  }

  EmbedResult out;
  out.tree = assembler.finalize();
  out.tree.validate(g, instance.sinks.size(), /*allow_shared_edges=*/true);
  out.eval = evaluate_tree(out.tree, instance);
  return out;
}

}  // namespace cdst
