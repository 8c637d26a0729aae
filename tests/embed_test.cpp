// Tests for the optimal topology embedding DP and the exact enumeration
// oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <thread>

#include "embed/embedder.h"
#include "embed/enumerate.h"
#include "graph/arc_cost_view.h"
#include "graph/dijkstra.h"
#include "grid/routing_grid.h"
#include "topology/prim_dijkstra.h"
#include "topology/rsmt.h"
#include "topology/shallow_light.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cdst {
namespace {

struct GridInstance {
  std::unique_ptr<RoutingGrid> grid;
  std::vector<double> cost;
  std::vector<double> delay;
  CostDistanceInstance inst;
  std::vector<PlaneTerminal> plane_sinks;
  Point2 root_xy;
};

/// `unit_metric` sets every edge's cost and delay to 1: every search metric
/// is then uniform, so equal-hop paths tie exactly and the heap's tie order
/// decides the tree. The random cost factors are drawn either way, so pins
/// and weights do not depend on it.
GridInstance make_instance(std::uint64_t seed, int nx, int ny, int nz,
                           std::size_t num_sinks, double dbif = 0.0,
                           bool unit_metric = false) {
  GridInstance gi;
  gi.grid = std::make_unique<RoutingGrid>(
      nx, ny, make_default_layer_stack(nz), ViaSpec{});
  Rng rng(seed);
  const Graph& g = gi.grid->graph();
  gi.cost.resize(g.num_edges());
  gi.delay = gi.grid->edge_delays();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const double factor = std::exp(rng.uniform_double(0.0, 1.5));
    gi.cost[e] = unit_metric ? 1.0 : gi.grid->base_costs()[e] * factor;
  }
  if (unit_metric) gi.delay.assign(g.num_edges(), 1.0);
  gi.inst.graph = &g;
  gi.inst.cost = &gi.cost;
  gi.inst.delay = &gi.delay;
  gi.inst.dbif = dbif;
  gi.inst.eta = 0.25;
  std::set<VertexId> used;
  auto pick = [&]() {
    while (true) {
      const auto x = static_cast<std::int32_t>(rng.uniform(nx));
      const auto y = static_cast<std::int32_t>(rng.uniform(ny));
      const VertexId v = gi.grid->vertex_at(x, y, 0);
      if (used.insert(v).second) return v;
    }
  };
  gi.inst.root = pick();
  gi.root_xy = gi.grid->position(gi.inst.root).xy();
  for (std::size_t s = 0; s < num_sinks; ++s) {
    const VertexId v = pick();
    const double w = std::exp(rng.uniform_double(-1.5, 1.5));
    gi.inst.sinks.push_back(Terminal{v, w});
    gi.plane_sinks.push_back(
        PlaneTerminal{gi.grid->position(v).xy(), w, 0.0});
  }
  return gi;
}

TEST(Enumerate, TopologyCountsMatchDoubleFactorial) {
  EXPECT_EQ(enumerate_binary_topologies(1).size(), 1u);
  EXPECT_EQ(enumerate_binary_topologies(2).size(), 1u);
  EXPECT_EQ(enumerate_binary_topologies(3).size(), 3u);
  EXPECT_EQ(enumerate_binary_topologies(4).size(), 15u);
  EXPECT_EQ(enumerate_binary_topologies(5).size(), 105u);
}

TEST(Enumerate, TopologiesAreValidAndBinary) {
  for (const PlaneTopology& t : enumerate_binary_topologies(4)) {
    t.validate(4);
    const auto ch = t.children();
    EXPECT_EQ(ch[0].size(), 1u) << "root terminal must be a leaf";
    for (std::size_t i = 1; i < t.nodes.size(); ++i) {
      if (t.nodes[i].sink_index >= 0) {
        EXPECT_TRUE(ch[i].empty()) << "sink terminals must be leaves";
      } else {
        EXPECT_EQ(ch[i].size(), 2u) << "internal nodes must bifurcate";
      }
    }
  }
}

TEST(Embed, StarTopologyEqualsIndependentShortestPaths) {
  const GridInstance gi = make_instance(21, 7, 7, 3, 4);
  const PlaneTopology star = star_topology(gi.root_xy, gi.plane_sinks);
  const EmbedResult r = embed_topology(star, gi.inst);
  double expected = 0.0;
  for (const Terminal& s : gi.inst.sinks) {
    const auto sp = dijkstra(
        *gi.inst.graph, {gi.inst.root},
        [&](EdgeId e) { return gi.cost[e] + s.weight * gi.delay[e]; },
        s.vertex);
    expected += sp.dist[s.vertex];
  }
  EXPECT_NEAR(r.eval.objective, expected, 1e-6)
      << "a star topology decomposes into independent weighted paths";
}

TEST(Embed, SingleSinkChainIsShortestPath) {
  const GridInstance gi = make_instance(22, 6, 6, 3, 1);
  const PlaneTopology star = star_topology(gi.root_xy, gi.plane_sinks);
  const EmbedResult r = embed_topology(star, gi.inst);
  const double w = gi.inst.sinks[0].weight;
  const auto sp = dijkstra(
      *gi.inst.graph, {gi.inst.root},
      [&](EdgeId e) { return gi.cost[e] + w * gi.delay[e]; },
      gi.inst.sinks[0].vertex);
  EXPECT_NEAR(r.eval.objective, sp.dist[gi.inst.sinks[0].vertex], 1e-6);
}

class EmbedSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EmbedSeeds, ExactIsNeverWorseThanAnyEmbedding) {
  for (const double dbif : {0.0, 3.0}) {
    const GridInstance gi = make_instance(GetParam() * 17, 6, 6, 3, 3, dbif);
    const ExactResult exact = solve_exact(gi.inst);
    EXPECT_EQ(exact.num_topologies, 3u);  // (2*4 - 5)!! for 3 sinks + root

    // Exact <= optimal embedding of any heuristic topology.
    const PlaneTopology star = star_topology(gi.root_xy, gi.plane_sinks);
    const PlaneTopology steiner = rsmt_topology(gi.root_xy, gi.plane_sinks);
    EXPECT_LE(exact.eval.objective,
              embed_topology(star, gi.inst).eval.objective + 1e-9);
    EXPECT_LE(exact.eval.objective,
              embed_topology(steiner, gi.inst).eval.objective + 1e-9);
  }
}

TEST_P(EmbedSeeds, EmbeddingIsOptimalForItsTopology) {
  // Verify the DP against brute force: for a 2-sink chain topology
  // root - s0 - s1, enumerate the junction vertex placement by hand.
  const GridInstance gi = make_instance(GetParam() * 29 + 3, 5, 5, 2, 2);
  PlaneTopology chain;
  chain.nodes.push_back(PlaneTopology::Node{gi.root_xy, -1, -1});
  chain.nodes.push_back(
      PlaneTopology::Node{gi.plane_sinks[0].pos, 0, 0});
  chain.nodes.push_back(
      PlaneTopology::Node{gi.plane_sinks[1].pos, 1, 1});
  const EmbedResult r = embed_topology(chain, gi.inst);

  // Brute force: s0 is pinned; cost = dist_{c + (w0+w1) d}(root, s0pin)
  // + dist_{c + w1 d}(s0pin, s1pin).
  const double w0 = gi.inst.sinks[0].weight;
  const double w1 = gi.inst.sinks[1].weight;
  const VertexId p0 = gi.inst.sinks[0].vertex;
  const VertexId p1 = gi.inst.sinks[1].vertex;
  const auto up = dijkstra(
      *gi.inst.graph, {gi.inst.root},
      [&](EdgeId e) { return gi.cost[e] + (w0 + w1) * gi.delay[e]; }, p0);
  const auto down = dijkstra(
      *gi.inst.graph, {p0},
      [&](EdgeId e) { return gi.cost[e] + w1 * gi.delay[e]; }, p1);
  EXPECT_NEAR(r.eval.objective, up.dist[p0] + down.dist[p1], 1e-6);
}

TEST_P(EmbedSeeds, EmbeddedTreesAreStructurallySound) {
  const GridInstance gi = make_instance(GetParam() + 71, 8, 8, 3, 6, 2.0);
  const PlaneTopology topo = rsmt_topology(gi.root_xy, gi.plane_sinks);
  const EmbedResult r = embed_topology(topo, gi.inst);
  r.tree.validate(*gi.inst.graph, gi.inst.sinks.size(),
                  /*allow_shared_edges=*/true);
  const TreeEvaluation re = evaluate_tree(r.tree, gi.inst);
  EXPECT_NEAR(re.objective, r.eval.objective, 1e-9);
}

// ------------------------------------------------ bounded-DP differential

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The full-propagation DP the embedder used before its searches stopped at
/// pinned parents: every node's table is propagated over the whole graph
/// and kept for the backtrack. Kept here as the reference the bounded DP
/// must match bit for bit.
EmbedResult reference_embed(const PlaneTopology& topo,
                            const CostDistanceInstance& instance) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const Graph& g = *instance.graph;
  const std::size_t n = g.num_vertices();
  const std::size_t nn = topo.nodes.size();
  const auto ch = topo.children();
  std::vector<double> subw(nn, 0.0);
  for (std::size_t i = nn; i-- > 0;) {
    if (topo.nodes[i].sink_index >= 0) {
      subw[i] +=
          instance.sinks[static_cast<std::size_t>(topo.nodes[i].sink_index)]
              .weight;
    }
    if (topo.nodes[i].parent >= 0) {
      subw[static_cast<std::size_t>(topo.nodes[i].parent)] += subw[i];
    }
  }
  std::vector<DijkstraResult> up(nn);
  double root_value = kInf;
  for (std::size_t i = nn; i-- > 0;) {
    std::vector<double> fi;
    if (ch[i].empty()) {
      fi.assign(n, kInf);
    } else {
      fi.assign(n, 0.0);
      for (const std::int32_t cc : ch[i]) {
        const std::vector<double>& gu = up[static_cast<std::size_t>(cc)].dist;
        for (std::size_t v = 0; v < n; ++v) fi[v] += gu[v];
      }
    }
    const std::int32_t si = topo.nodes[i].sink_index;
    if (si >= 0) {
      const VertexId pin = instance.sinks[static_cast<std::size_t>(si)].vertex;
      const double at_pin = ch[i].empty() ? 0.0 : fi[pin];
      fi.assign(n, kInf);
      fi[pin] = at_pin;
    }
    if (i == 0) {
      root_value = ch[i].empty() ? kInf : fi[instance.root];
      break;
    }
    const CostDelayLength metric =
        instance.arc_costs != nullptr
            ? CostDelayLength(*instance.arc_costs, subw[i])
            : CostDelayLength{*instance.cost, *instance.delay, subw[i]};
    up[i] = dijkstra_from_potentials(g, fi, metric);
  }
  CDST_CHECK(root_value < kInf);

  TreeAssembler assembler(g);
  std::vector<TreeAssembler::NodeId> anode(nn, TreeAssembler::kNoNode);
  std::vector<VertexId> placed(nn, kInvalidVertex);
  placed[0] = instance.root;
  anode[0] = assembler.add_root(instance.root);
  for (std::size_t i = 1; i < nn; ++i) {
    const auto p = static_cast<std::size_t>(topo.nodes[i].parent);
    const DijkstraResult& r = up[i];
    VertexId at = placed[p];
    CDST_CHECK(r.reached(at));
    std::vector<EdgeId> path_up;
    while (r.parent_edge[at] != kInvalidEdge) {
      path_up.push_back(r.parent_edge[at]);
      at = g.other_end(r.parent_edge[at], at);
    }
    std::reverse(path_up.begin(), path_up.end());
    placed[i] = at;
    const std::int32_t si = topo.nodes[i].sink_index;
    anode[i] = (si >= 0) ? assembler.add_sink(at, si) : assembler.add_steiner(at);
    assembler.add_segment(anode[i], anode[p], path_up);
  }
  EmbedResult out;
  out.tree = assembler.finalize();
  out.eval = evaluate_tree(out.tree, instance);
  return out;
}

void expect_same_embedding(const EmbedResult& got, const EmbedResult& want,
                           const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(got.tree.nodes.size(), want.tree.nodes.size());
  for (std::size_t k = 0; k < got.tree.nodes.size(); ++k) {
    const SteinerTree::Node& a = got.tree.nodes[k];
    const SteinerTree::Node& b = want.tree.nodes[k];
    EXPECT_EQ(a.graph_vertex, b.graph_vertex) << "placement of node " << k;
    EXPECT_EQ(a.parent, b.parent) << "node " << k;
    EXPECT_EQ(a.sink_index, b.sink_index) << "node " << k;
    EXPECT_EQ(a.kind, b.kind) << "node " << k;
    EXPECT_EQ(a.up_path, b.up_path) << "node " << k;
  }
  EXPECT_EQ(got.tree.all_edges(), want.tree.all_edges());
  EXPECT_EQ(bits(got.eval.connection_cost), bits(want.eval.connection_cost));
  EXPECT_EQ(bits(got.eval.weighted_delay), bits(want.eval.weighted_delay));
  EXPECT_EQ(bits(got.eval.objective), bits(want.eval.objective));
  EXPECT_EQ(bits(got.eval.total_delay_penalty),
            bits(want.eval.total_delay_penalty));
  EXPECT_EQ(got.eval.sink_delays, want.eval.sink_delays);
  EXPECT_EQ(got.eval.node_lambda, want.eval.node_lambda);
  EXPECT_EQ(got.eval.num_graph_edges, want.eval.num_graph_edges);
}

/// root -> Steiner a -> {Steiner b -> {sink 0 -> {sink 1, Steiner c ->
/// {sink 2, sink 3}}, sink 4}, sink 5}: a Steiner child of the root, a
/// Steiner under a Steiner, and a sink with both a sink and a Steiner
/// child, so every pinned/floating parent-child pairing occurs.
PlaneTopology mixed_topology(const GridInstance& gi) {
  PlaneTopology t;
  const auto add = [&](std::int32_t parent, std::int32_t sink) {
    const Point2 pos = sink >= 0
                           ? gi.plane_sinks[static_cast<std::size_t>(sink)].pos
                           : gi.root_xy;
    t.nodes.push_back(PlaneTopology::Node{pos, parent, sink});
    return static_cast<std::int32_t>(t.nodes.size() - 1);
  };
  add(-1, -1);
  const std::int32_t a = add(0, -1);
  const std::int32_t b = add(a, -1);
  const std::int32_t s0 = add(b, 0);
  add(s0, 1);
  const std::int32_t c = add(s0, -1);
  add(c, 2);
  add(c, 3);
  add(b, 4);
  add(a, 5);
  return t;
}

TEST_P(EmbedSeeds, BoundedDpMatchesFullPropagation) {
  const std::uint64_t seed = GetParam();
  for (const bool unit : {true, false}) {
    for (const double dbif : {0.0, 2.5}) {
      GridInstance gi = make_instance(seed * 131 + 5, 9, 9, 3, 6, dbif, unit);
      const ArcCostView plane(*gi.inst.graph, gi.cost, gi.delay);
      const std::string base = std::string(unit ? "unit" : "random") +
                               " metric, dbif " + std::to_string(dbif);

      std::vector<std::pair<std::string, PlaneTopology>> topos;
      topos.emplace_back("rsmt", rsmt_topology(gi.root_xy, gi.plane_sinks));
      ShallowLightParams sl;
      sl.dbif = dbif;
      topos.emplace_back(
          "shallow-light",
          shallow_light_topology(gi.root_xy, gi.plane_sinks, sl));
      PrimDijkstraParams pd;
      pd.dbif = dbif;
      topos.emplace_back(
          "prim-dijkstra",
          prim_dijkstra_topology(gi.root_xy, gi.plane_sinks, pd));
      topos.emplace_back("star", star_topology(gi.root_xy, gi.plane_sinks));
      topos.emplace_back("mixed", mixed_topology(gi));

      for (const bool with_plane : {false, true}) {
        gi.inst.arc_costs = with_plane ? &plane : nullptr;
        const std::string what =
            base + (with_plane ? ", arc plane" : ", per-edge");
        for (const auto& [name, topo] : topos) {
          expect_same_embedding(embed_topology(topo, gi.inst),
                                reference_embed(topo, gi.inst),
                                what + ", " + name);
        }
      }
    }
  }
}

TEST_P(EmbedSeeds, BoundedDpMatchesFullPropagationOnAllBinaryTopologies) {
  for (const bool unit : {true, false}) {
    for (const double dbif : {0.0, 3.0}) {
      GridInstance gi =
          make_instance(GetParam() * 37 + 11, 6, 6, 3, 4, dbif, unit);
      const ArcCostView plane(*gi.inst.graph, gi.cost, gi.delay);
      gi.inst.arc_costs = GetParam() % 2 == 0 ? &plane : nullptr;
      const std::vector<PlaneTopology> topos = enumerate_binary_topologies(4);
      for (std::size_t k = 0; k < topos.size(); ++k) {
        expect_same_embedding(
            embed_topology(topos[k], gi.inst),
            reference_embed(topos[k], gi.inst),
            std::string(unit ? "unit" : "random") + " metric, dbif " +
                std::to_string(dbif) + ", topology " + std::to_string(k));
      }
    }
  }
}

TEST(Embed, CancellationUnwindsBeforeAnyPropagation) {
  // The flag is polled up front and before every node's propagation,
  // bounded or full; a raised flag unwinds with SolveCancelled, a clear one
  // leaves the result untouched.
  const GridInstance gi = make_instance(9, 8, 8, 3, 6);
  const PlaneTopology topo = mixed_topology(gi);
  std::atomic<bool> cancel{false};
  SolveControls controls;
  controls.cancel = &cancel;
  expect_same_embedding(embed_topology(topo, gi.inst, &controls),
                        reference_embed(topo, gi.inst), "flag clear");
  cancel.store(true);
  EXPECT_THROW(embed_topology(topo, gi.inst, &controls), SolveCancelled);
}

TEST(Embed, ExpiredDeadlineUnwinds) {
  // The deadline is polled where the flag is; an expired one unwinds with
  // SolveDeadlineExceeded, a generous one leaves the result untouched.
  const GridInstance gi = make_instance(9, 8, 8, 3, 6);
  const PlaneTopology topo = mixed_topology(gi);
  SolveControls controls;
  controls.deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(10);
  expect_same_embedding(embed_topology(topo, gi.inst, &controls),
                        reference_embed(topo, gi.inst), "generous deadline");
  controls.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  EXPECT_THROW(embed_topology(topo, gi.inst, &controls),
               SolveDeadlineExceeded);
}

// ------------------------------------------------- node-parallel DP

/// root -> sink 0 -> sink 1 -> ...: one node per height, so every level is
/// a single-index batch.
PlaneTopology chain_topology(const GridInstance& gi) {
  PlaneTopology t;
  t.nodes.push_back(PlaneTopology::Node{gi.root_xy, -1, -1});
  for (std::size_t s = 0; s < gi.plane_sinks.size(); ++s) {
    t.nodes.push_back(PlaneTopology::Node{gi.plane_sinks[s].pos,
                                          static_cast<std::int32_t>(s),
                                          static_cast<std::int32_t>(s)});
  }
  return t;
}

/// Every sink plus `steiner` Steiner nodes, shuffled and each hung under a
/// uniformly drawn earlier node, then canonicalized (no Steiner leaves or
/// pass-through Steiner nodes remain): uneven heights, sinks with children,
/// Steiner nodes under Steiner nodes.
PlaneTopology random_topology(const GridInstance& gi, std::uint64_t seed,
                              std::size_t steiner) {
  Rng rng(seed);
  std::vector<std::int32_t> labels;  // sink index, or -1 for Steiner
  for (std::size_t s = 0; s < gi.plane_sinks.size(); ++s) {
    labels.push_back(static_cast<std::int32_t>(s));
  }
  labels.insert(labels.end(), steiner, -1);
  for (std::size_t k = labels.size(); k > 1; --k) {
    std::swap(labels[k - 1], labels[rng.uniform(k)]);
  }
  PlaneTopology t;
  t.nodes.push_back(PlaneTopology::Node{gi.root_xy, -1, -1});
  for (const std::int32_t label : labels) {
    const Point2 pos =
        label >= 0 ? gi.plane_sinks[static_cast<std::size_t>(label)].pos
                   : gi.root_xy;
    const auto parent = static_cast<std::int32_t>(rng.uniform(t.nodes.size()));
    t.nodes.push_back(PlaneTopology::Node{pos, parent, label});
  }
  t.canonicalize();
  t.validate(gi.plane_sinks.size());
  return t;
}

TEST(Embed, PooledDpIsBitIdenticalToSerialAtAnyLaneCount) {
  GridInstance gi = make_instance(77, 20, 20, 4, 24, /*dbif=*/1.5);
  const ArcCostView plane(*gi.inst.graph, gi.cost, gi.delay);
  gi.inst.arc_costs = &plane;
  std::vector<std::pair<std::string, PlaneTopology>> topos;
  topos.emplace_back("chain", chain_topology(gi));
  topos.emplace_back("star", star_topology(gi.root_xy, gi.plane_sinks));
  topos.emplace_back("rsmt", rsmt_topology(gi.root_xy, gi.plane_sinks));
  topos.emplace_back("prim-dijkstra",
                     prim_dijkstra_topology(gi.root_xy, gi.plane_sinks, {}));
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    topos.emplace_back("random " + std::to_string(seed),
                       random_topology(gi, seed, 12));
  }
  std::vector<EmbedResult> want;
  for (const auto& [name, topo] : topos) {
    want.push_back(embed_topology(topo, gi.inst));
  }

  for (const int lanes : {1, 2, 4}) {
    ThreadPool pool(lanes);
    SolveControls controls;
    controls.pool = &pool;
    const std::string at = std::to_string(lanes) + " lanes, ";
    // Called from outside the pool: each level is a top-level batch.
    for (std::size_t k = 0; k < topos.size(); ++k) {
      expect_same_embedding(embed_topology(topos[k].second, gi.inst,
                                           &controls),
                            want[k], at + "top level, " + topos[k].first);
    }
    // Called from inside one outer batch (the Router's per-net oracle):
    // each level is a nested batch that lanes done with their own
    // topology join.
    std::vector<EmbedResult> got(topos.size());
    pool.parallel_for(0, topos.size(), [&](std::size_t k) {
      got[k] = embed_topology(topos[k].second, gi.inst, &controls);
    });
    for (std::size_t k = 0; k < topos.size(); ++k) {
      expect_same_embedding(got[k], want[k], at + "nested, " + topos[k].first);
    }
  }
}

TEST(Embed, PooledDpUnwindsOnCancellationRaisedMidLevel) {
  // A star is a single level: every sink's propagation is one index of one
  // parallel_for. A second thread raises the flag at several offsets into
  // the call, most of them inside that level on an unloaded machine; the
  // level's remaining nodes are then abandoned and the call unwinds with
  // SolveCancelled. Whatever the scheduler does, each attempt must either
  // unwind that way or return the serial result (the flag came too late),
  // and with the flag cleared the same pool reproduces the serial result.
  // A flag raised before the call must unwind at its first poll.
  const GridInstance gi = make_instance(5, 40, 40, 4, 64);
  const PlaneTopology star = star_topology(gi.root_xy, gi.plane_sinks);
  const auto t0 = std::chrono::steady_clock::now();
  const EmbedResult want = embed_topology(star, gi.inst);
  const auto serial = std::chrono::steady_clock::now() - t0;

  ThreadPool pool(4);
  std::atomic<bool> cancel{true};
  SolveControls controls;
  controls.cancel = &cancel;
  controls.pool = &pool;
  EXPECT_THROW(embed_topology(star, gi.inst, &controls), SolveCancelled);

  for (const int tenths : {0, 1, 2, 5}) {
    const std::string at = "raised " + std::to_string(tenths) + "/10 in";
    cancel.store(false);
    std::thread raiser([&] {
      std::this_thread::sleep_for(serial * tenths / 10);
      cancel.store(true);
    });
    bool unwound = false;
    EmbedResult got;
    try {
      got = embed_topology(star, gi.inst, &controls);
    } catch (const SolveCancelled&) {
      unwound = true;
    }
    raiser.join();
    if (!unwound) expect_same_embedding(got, want, at + ", completed");
    cancel.store(false);
    expect_same_embedding(embed_topology(star, gi.inst, &controls), want,
                          at + ", then rerun");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EmbedSeeds,
                         ::testing::Range<std::uint64_t>(1, 7));

}  // namespace
}  // namespace cdst
