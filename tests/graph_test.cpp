// Tests for the CSR graph, Dijkstra variants and ALT landmarks.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <utility>
#include <vector>

#include "graph/arc_cost_view.h"
#include "graph/dijkstra.h"
#include "graph/graph.h"
#include "graph/landmarks.h"
#include "util/rng.h"

namespace cdst {
namespace {

Graph path_graph(std::size_t n) {
  GraphBuilder b(n);
  for (VertexId v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return Graph(b);
}

TEST(Graph, CsrAdjacency) {
  GraphBuilder b(4);
  const EdgeId e0 = b.add_edge(0, 1);
  const EdgeId e1 = b.add_edge(1, 2);
  b.add_edge(0, 2);
  b.add_edge(0, 2);  // parallel edge
  Graph g(b);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(2), 3u);
  EXPECT_EQ(g.degree(3), 0u);
  EXPECT_EQ(g.other_end(e0, 0), 1u);
  EXPECT_EQ(g.other_end(e0, 1), 0u);
  EXPECT_EQ(g.tail(e1), 1u);
  EXPECT_EQ(g.head(e1), 2u);
}

TEST(Graph, SelfLoopRejected) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(1, 1), ContractViolation);
}

TEST(Dijkstra, PathGraphDistances) {
  const Graph g = path_graph(5);
  const auto r = dijkstra(g, {0}, [](EdgeId) { return 2.0; });
  for (VertexId v = 0; v < 5; ++v) {
    EXPECT_DOUBLE_EQ(r.dist[v], 2.0 * v);
  }
  const auto path = r.path_edges(g, 4);
  EXPECT_EQ(path.size(), 4u);
}

TEST(Dijkstra, MultiSource) {
  const Graph g = path_graph(7);
  const auto r = dijkstra(g, {0, 6}, [](EdgeId) { return 1.0; });
  EXPECT_DOUBLE_EQ(r.dist[3], 3.0);
  EXPECT_DOUBLE_EQ(r.dist[5], 1.0);
}

TEST(Dijkstra, UnreachableIsInfinity) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  Graph g(b);
  const auto r = dijkstra(g, {0}, [](EdgeId) { return 1.0; });
  EXPECT_FALSE(r.reached(2));
  EXPECT_TRUE(r.reached(1));
}

TEST(Dijkstra, PotentialsSeedInitialLabels) {
  const Graph g = path_graph(4);
  std::vector<double> init{5.0, DijkstraResult::kInf, DijkstraResult::kInf,
                           0.0};
  const auto r =
      dijkstra_from_potentials(g, init, [](EdgeId) { return 1.0; });
  EXPECT_DOUBLE_EQ(r.dist[0], 3.0);  // reached from vertex 3, not its own 5.0
  EXPECT_DOUBLE_EQ(r.dist[3], 0.0);
  EXPECT_DOUBLE_EQ(r.dist[1], 2.0);
}

class RandomGraphTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  struct Rand {
    Graph g;
    std::vector<double> len;
  };
  Rand make(std::size_t n, std::size_t m) {
    Rng rng(GetParam());
    GraphBuilder b(n);
    std::vector<double> len;
    // Spanning path for connectivity, then random extra edges.
    for (VertexId v = 0; v + 1 < n; ++v) {
      b.add_edge(v, v + 1);
      len.push_back(rng.uniform_double(0.1, 10.0));
    }
    for (std::size_t e = n; e < m; ++e) {
      const auto u = static_cast<VertexId>(rng.uniform(n));
      auto v = static_cast<VertexId>(rng.uniform(n));
      if (u == v) v = (v + 1) % static_cast<VertexId>(n);
      b.add_edge(u, v);
      len.push_back(rng.uniform_double(0.1, 10.0));
    }
    return Rand{Graph(b), std::move(len)};
  }
};

TEST_P(RandomGraphTest, DijkstraMatchesBellmanFord) {
  const auto [g, len] = make(40, 120);
  const auto r = dijkstra(g, {0}, [&](EdgeId e) { return len[e]; });
  // Bellman-Ford reference.
  std::vector<double> dist(g.num_vertices(), DijkstraResult::kInf);
  dist[0] = 0.0;
  for (std::size_t round = 0; round < g.num_vertices(); ++round) {
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const VertexId a = g.tail(e), b = g.head(e);
      if (dist[a] + len[e] < dist[b]) dist[b] = dist[a] + len[e];
      if (dist[b] + len[e] < dist[a]) dist[a] = dist[b] + len[e];
    }
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(r.dist[v], dist[v], 1e-9);
  }
}

TEST_P(RandomGraphTest, PathEdgesReconstructDistance) {
  const auto [g, len] = make(30, 80);
  const auto r = dijkstra(g, {0}, [&](EdgeId e) { return len[e]; });
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    double sum = 0.0;
    for (const EdgeId e : r.path_edges(g, v)) sum += len[e];
    EXPECT_NEAR(sum, r.dist[v], 1e-9);
  }
}

TEST_P(RandomGraphTest, LandmarkBoundsAreAdmissibleAndUseful) {
  const auto [g, len] = make(50, 150);
  const auto length = [&](EdgeId e) { return len[e]; };
  Landmarks lm(g, length, 4);
  EXPECT_EQ(lm.count(), 4u);
  Rng rng(GetParam() + 1);
  for (int trial = 0; trial < 30; ++trial) {
    const auto s = static_cast<VertexId>(rng.uniform(g.num_vertices()));
    const auto r = dijkstra(g, {s}, length);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_LE(lm.lower_bound(s, v), r.dist[v] + 1e-9)
          << "landmark bound must never exceed the true distance";
    }
  }
  // The bound from a landmark to itself is exact along its own table.
  const VertexId l0 = lm.landmark(0);
  const auto r0 = dijkstra(g, {l0}, length);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(lm.lower_bound(l0, v), r0.dist[v], 1e-9);
  }
}

/// The parent chain from v back to its seed, as (edge, vertex) steps.
std::vector<std::pair<EdgeId, VertexId>> parent_chain(const Graph& g,
                                                      const DijkstraResult& r,
                                                      VertexId v) {
  std::vector<std::pair<EdgeId, VertexId>> out;
  while (r.parent_edge[v] != kInvalidEdge) {
    const EdgeId e = r.parent_edge[v];
    v = g.other_end(e, v);
    out.emplace_back(e, v);
  }
  return out;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The target contract: a search stopped at t reports the untargeted run's
/// dist[t] and parent chain bit for bit, both as a one-shot call and through
/// one reused heap + label set whose dists are reset via `labelled`.
template <typename LengthFn>
void expect_settled_prefix_is_final(
    const Graph& g, const std::vector<std::pair<VertexId, double>>& seeds,
    const LengthFn& length, const std::string& what) {
  SCOPED_TRACE(what);
  const std::size_t n = g.num_vertices();
  const DijkstraResult full = dijkstra_with_initial_labels(g, seeds, length);
  DijkstraResult ws;
  ws.dist.assign(n, DijkstraResult::kInf);
  ws.parent_edge.assign(n, kInvalidEdge);
  BinaryHeap<double> heap;
  std::vector<VertexId> labelled;
  for (VertexId t = 0; t < n; ++t) {
    const DijkstraResult once =
        dijkstra_with_initial_labels(g, seeds, length, t);
    EXPECT_EQ(bits(once.dist[t]), bits(full.dist[t])) << "target " << t;
    EXPECT_EQ(parent_chain(g, once, t), parent_chain(g, full, t))
        << "target " << t;

    dijkstra_search(g, seeds, length, t, ws, heap, &labelled);
    EXPECT_TRUE(heap.empty());
    EXPECT_EQ(bits(ws.dist[t]), bits(full.dist[t])) << "target " << t;
    EXPECT_EQ(parent_chain(g, ws, t), parent_chain(g, full, t))
        << "target " << t;
    // `labelled` lists exactly the vertices this search reached, once each.
    std::vector<VertexId> sorted = labelled;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
    std::size_t reached = 0;
    for (VertexId v = 0; v < n; ++v) reached += ws.reached(v) ? 1 : 0;
    EXPECT_EQ(reached, labelled.size()) << "target " << t;
    // Only dist needs a reset: the next search rewrites the parent entries
    // of every vertex it labels.
    for (const VertexId v : labelled) ws.dist[v] = DijkstraResult::kInf;
    labelled.clear();
  }
}

/// Runs the contract for one graph under every length-functor form: a bare
/// per-edge ArrayLength and CostDelayLength, and both again scanning an
/// attached arc plane (the blocked SIMD relax).
void expect_contract_for_all_lengths(
    const Graph& g, const std::vector<double>& cost,
    const std::vector<double>& delay,
    const std::vector<std::pair<VertexId, double>>& seeds,
    const std::string& what) {
  const ArcCostView plane(g, cost, delay);
  const double w = 0.75;
  expect_settled_prefix_is_final(g, seeds, ArrayLength(cost),
                                 what + ", ArrayLength");
  expect_settled_prefix_is_final(g, seeds, ArrayLength(plane),
                                 what + ", ArrayLength + arc plane");
  expect_settled_prefix_is_final(g, seeds, CostDelayLength{cost, delay, w},
                                 what + ", CostDelayLength");
  expect_settled_prefix_is_final(g, seeds, CostDelayLength(plane, w),
                                 what + ", CostDelayLength + arc plane");
}

TEST_P(RandomGraphTest, TargetedSearchSettledPrefixIsFinal) {
  Rng rng(GetParam() * 7 + 3);

  // Tie-heavy: a uniform-length grid graph, integer potentials.
  const std::size_t side = 9;
  GraphBuilder b(side * side);
  for (std::size_t y = 0; y < side; ++y) {
    for (std::size_t x = 0; x < side; ++x) {
      const auto v = static_cast<VertexId>(y * side + x);
      if (x + 1 < side) b.add_edge(v, v + 1);
      if (y + 1 < side) b.add_edge(v, static_cast<VertexId>(v + side));
    }
  }
  const Graph grid(b);
  const std::vector<double> ones(grid.num_edges(), 1.0);
  std::vector<std::pair<VertexId, double>> single{
      {static_cast<VertexId>(rng.uniform(grid.num_vertices())), 0.0}};
  std::vector<std::pair<VertexId, double>> potentials;
  for (VertexId v = 0; v < grid.num_vertices(); ++v) {
    potentials.emplace_back(v, static_cast<double>(rng.uniform(4)));
  }
  expect_contract_for_all_lengths(grid, ones, ones, single,
                                  "uniform grid, single seed");
  expect_contract_for_all_lengths(grid, ones, ones, potentials,
                                  "uniform grid, all-finite potentials");

  // Random lengths on a graph dense enough for full 8-arc relax strips.
  const auto [g, len] = make(40, 200);
  std::vector<double> delay(g.num_edges());
  for (double& x : delay) x = rng.uniform_double(0.0, 3.0);
  single = {{static_cast<VertexId>(rng.uniform(g.num_vertices())), 0.0}};
  potentials.clear();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    potentials.emplace_back(v, rng.uniform_double(0.0, 20.0));
  }
  expect_contract_for_all_lengths(g, len, delay, single,
                                  "random lengths, single seed");
  expect_contract_for_all_lengths(g, len, delay, potentials,
                                  "random lengths, all-finite potentials");
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphTest,
                         ::testing::Values(11, 12, 13, 14, 15));

}  // namespace
}  // namespace cdst
