#include "embed/embedder.h"

#include <algorithm>
#include <limits>

#include "graph/dijkstra.h"

namespace cdst {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Walks r's parent chain from `at` back to the search seed it came from.
/// Returns that seed; `path` receives the chain's edges in seed -> `at`
/// order.
VertexId walk_to_seed(const DijkstraResult& r, VertexId at,
                      std::vector<EdgeId>& path) {
  path.clear();
  while (r.parent_edge[at] != kInvalidEdge) {
    path.push_back(r.parent_edge[at]);
    at = r.parent[at];
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
/// heap across a whole embedding. Distances stay all-inf between searches:
/// each search resets exactly the vertices it labelled (parent entries are
/// rewritten whenever a vertex is labelled, so they need no reset).
class BoundedSearch {
 public:
  explicit BoundedSearch(std::size_t n) {
    r_.dist.assign(n, kInf);
    r_.parent_edge.assign(n, kInvalidEdge);
    r_.parent.assign(n, kInvalidVertex);
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
    if (out.value < kInf) out.seed = walk_to_seed(r_, pin, out.path);
    for (const VertexId v : labelled_) r_.dist[v] = kInf;
    labelled_.clear();
    return out;
  }

 private:
  DijkstraResult r_;
  BinaryHeap<double> heap_;
  std::vector<VertexId> labelled_;
};

}  // namespace

EmbedResult embed_topology(const PlaneTopology& topo,
                           const CostDistanceInstance& instance,
                           const SolveControls* controls) {
  instance.validate();
  topo.validate(instance.sinks.size());
  const std::atomic<bool>* cancel =
      controls != nullptr ? controls->cancel : nullptr;
  const auto poll_cancel = [cancel] {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      throw SolveCancelled();
    }
  };
  poll_cancel();
  const Graph& g = *instance.graph;
  const std::vector<double>& c = *instance.cost;
  const std::vector<double>& d = *instance.delay;
  const std::size_t n = g.num_vertices();
  const std::size_t nn = topo.nodes.size();
  const auto ch = topo.children();

  // Subtree delay weights and pins: a sink node is pinned to its sink
  // vertex, node 0 (unless it is itself a sink) to the root vertex; Steiner
  // nodes float.
  std::vector<double> subw(nn, 0.0);
  std::vector<VertexId> pin(nn, kInvalidVertex);
  pin[0] = instance.root;
  for (std::size_t i = nn; i-- > 0;) {
    if (topo.nodes[i].sink_index >= 0) {
      const Terminal& s =
          instance.sinks[static_cast<std::size_t>(topo.nodes[i].sink_index)];
      subw[i] += s.weight;
      pin[i] = s.vertex;
    }
    if (topo.nodes[i].parent >= 0) {
      subw[static_cast<std::size_t>(topo.nodes[i].parent)] += subw[i];
    }
  }

  // Bottom-up DP. Node i's table F_i is the sum of its children's
  // propagations, restricted to its pin if it has one; it seeds one
  // Dijkstra under the metric c + W_i * d whose result the parent reads.
  // A pinned parent reads it at its pin only, so that search stops there
  // (reach[i]); a Steiner parent reads all of it (table[i]).
  std::vector<PinnedReach> reach(nn);
  std::vector<DijkstraResult> table(nn);
  BoundedSearch bounded(n);
  std::vector<double> fi;
  std::vector<std::pair<VertexId, double>> seeds;
  double root_value = kInf;

  for (std::size_t i = nn; i-- > 0;) {
    // One propagation per node makes the node loop the natural
    // cancellation granularity (bounded latency: one propagation).
    poll_cancel();
    seeds.clear();
    if (pin[i] != kInvalidVertex) {
      // All children read at this pin: F_i(pin) is the sum of their values.
      double at_pin = 0.0;
      for (const std::int32_t cc : ch[i]) {
        at_pin += reach[static_cast<std::size_t>(cc)].value;
      }
      if (i == 0) {
        // Root: a topology's root node is pinned to the root vertex.
        if (!ch[0].empty() && pin[0] == instance.root) root_value = at_pin;
        break;
      }
      if (at_pin < kInf) seeds.emplace_back(pin[i], at_pin);
    } else if (!ch[i].empty()) {
      fi.assign(n, 0.0);
      for (const std::int32_t cc : ch[i]) {
        const std::vector<double>& gu =
            table[static_cast<std::size_t>(cc)].dist;
        for (std::size_t v = 0; v < n; ++v) fi[v] += gu[v];
      }
      for (VertexId v = 0; v < n; ++v) {
        if (fi[v] < kInf) seeds.emplace_back(v, fi[v]);
      }
    }
    // Propagate upward under the weighted metric c + W_i * d, scanning the
    // instance's SoA arc plane when one is attached (bit-identical to the
    // per-edge gather path).
    const CostDelayLength metric =
        instance.arc_costs != nullptr
            ? CostDelayLength(*instance.arc_costs, subw[i])
            : CostDelayLength{c, d, subw[i]};
    const auto p = static_cast<std::size_t>(topo.nodes[i].parent);
    if (pin[p] != kInvalidVertex) {
      reach[i] = bounded.reach(g, seeds, metric, pin[p]);
    } else {
      DijkstraResult& r = table[i];
      r.dist.assign(n, kInf);
      r.parent_edge.assign(n, kInvalidEdge);
      r.parent.assign(n, kInvalidVertex);
      dijkstra_search(g, seeds, metric, kInvalidVertex, r, bounded.heap());
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
    // already stopped.
    if (pin[p] != kInvalidVertex) {
      CDST_ASSERT(placed[p] == pin[p]);
      PinnedReach& rr = reach[i];
      CDST_CHECK_MSG(rr.value < kInf,
                     "embedding backtrack hit unreached vertex");
      placed[i] = rr.seed;
      path_up = std::move(rr.path);
    } else {
      const DijkstraResult& r = table[i];
      CDST_CHECK_MSG(r.reached(placed[p]),
                     "embedding backtrack hit unreached vertex");
      placed[i] = walk_to_seed(r, placed[p], path_up);
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
