// Tests for the 3D routing grid, congestion pricing, future costs and
// routing windows.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/dijkstra.h"
#include "grid/cost_model.h"
#include "grid/future_cost.h"
#include "grid/routing_grid.h"
#include "grid/window.h"
#include "util/rng.h"
#include "util/sparse_map.h"

namespace cdst {
namespace {

RoutingGrid small_grid(int nx = 6, int ny = 5, int nz = 3) {
  return RoutingGrid(nx, ny, make_default_layer_stack(nz), ViaSpec{});
}

TEST(RoutingGrid, VertexRoundTrip) {
  const RoutingGrid g = small_grid();
  for (std::int32_t z = 0; z < g.nz(); ++z) {
    for (std::int32_t y = 0; y < g.ny(); ++y) {
      for (std::int32_t x = 0; x < g.nx(); ++x) {
        const VertexId v = g.vertex_at(x, y, z);
        const Point3 p = g.position(v);
        EXPECT_EQ(p.x, x);
        EXPECT_EQ(p.y, y);
        EXPECT_EQ(p.z, z);
      }
    }
  }
}

TEST(RoutingGrid, EdgeAndResourceCounts) {
  const int nx = 6, ny = 5, nz = 3;
  const RoutingGrid g = small_grid(nx, ny, nz);
  // Expected counts derived from the layer specs: one resource per gcell
  // boundary, one parallel edge per wire type on it, plus one via edge (and
  // resource) per gcell between adjacent layers.
  std::size_t exp_resources = 0, exp_edges = 0;
  for (const LayerSpec& l : g.layers()) {
    const std::size_t bounds = l.dir == LayerDir::kHorizontal
                                   ? static_cast<std::size_t>((nx - 1) * ny)
                                   : static_cast<std::size_t>(nx * (ny - 1));
    exp_resources += bounds;
    exp_edges += bounds * l.wire_types.size();
  }
  const std::size_t vias = static_cast<std::size_t>((nz - 1) * nx * ny);
  EXPECT_EQ(g.num_resources(), exp_resources + vias);
  EXPECT_EQ(g.graph().num_edges(), exp_edges + vias);
  EXPECT_EQ(g.graph().num_vertices(),
            static_cast<std::size_t>(nx * ny * nz));
}

TEST(RoutingGrid, PreferredDirectionRespected) {
  const RoutingGrid g = small_grid();
  const Graph& gg = g.graph();
  for (EdgeId e = 0; e < gg.num_edges(); ++e) {
    const auto& info = g.edge_info(e);
    const Point3 a = g.position(gg.tail(e));
    const Point3 b = g.position(gg.head(e));
    if (info.is_via) {
      EXPECT_EQ(a.x, b.x);
      EXPECT_EQ(a.y, b.y);
      EXPECT_EQ(std::abs(a.z - b.z), 1);
    } else if (g.layers()[info.layer].dir == LayerDir::kHorizontal) {
      EXPECT_EQ(std::abs(a.x - b.x), 1);
      EXPECT_EQ(a.y, b.y);
    } else {
      EXPECT_EQ(a.x, b.x);
      EXPECT_EQ(std::abs(a.y - b.y), 1);
    }
  }
}

TEST(CongestionCosts, PriceGrowsExponentially) {
  const RoutingGrid g = small_grid();
  CongestionParams params;
  params.price_at_full = 16.0;
  CongestionCosts costs(g, params);
  // Find a wire edge and saturate its resource.
  EdgeId wire = kInvalidEdge;
  for (EdgeId e = 0; e < g.graph().num_edges(); ++e) {
    if (!g.edge_info(e).is_via) {
      wire = e;
      break;
    }
  }
  ASSERT_NE(wire, kInvalidEdge);
  const double base = costs.edge_cost(wire);
  EXPECT_DOUBLE_EQ(base, g.edge_info(wire).unit_cost);

  const double cap = g.resource_capacity(g.edge_info(wire).resource);
  std::vector<EdgeId> once{wire};
  for (int i = 0; i < static_cast<int>(cap / g.edge_info(wire).width); ++i) {
    costs.add_usage(once, +1.0);
  }
  EXPECT_NEAR(costs.edge_cost(wire), base * 16.0, base * 16.0 * 0.1)
      << "price at ~100% utilization must be ~price_at_full x base";
  costs.add_usage(once, -1.0);
  EXPECT_LT(costs.edge_cost(wire), base * 16.0);
}

TEST(CongestionCosts, RipUpNeverGoesNegative) {
  const RoutingGrid g = small_grid();
  CongestionCosts costs(g);
  std::vector<EdgeId> e{0};
  costs.add_usage(e, -1.0);
  EXPECT_GE(costs.usage(g.edge_info(0).resource), 0.0);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Reference cost bound: the L1 + via formula from grid positions and the
/// grid's zero-congestion minima, raised by max |t[a] - t[b]| over the
/// landmark tables `fc` publishes.
double reference_cost_lb(const RoutingGrid& g, const FutureCostOracle& fc,
                         VertexId a, VertexId b) {
  const Point3 pa = g.position(a);
  const Point3 pb = g.position(b);
  double lb = static_cast<double>(l1_distance(pa, pb)) * g.min_unit_cost() +
              std::abs(pa.z - pb.z) * g.min_via_cost();
  for (std::size_t i = 0; i < fc.num_landmarks(); ++i) {
    const std::vector<double>& t = fc.landmark_tables()[i];
    lb = std::max(lb, std::abs(t[a] - t[b]));
  }
  return lb;
}

/// Reference delay bound: the L1 + via formula from grid positions.
double reference_delay_lb(const RoutingGrid& g, VertexId a, VertexId b) {
  const Point3 pa = g.position(a);
  const Point3 pb = g.position(b);
  return static_cast<double>(l1_distance(pa, pb)) * g.min_unit_delay() +
         std::abs(pa.z - pb.z) * g.min_via_delay();
}

TEST(FutureCost, BoundsAreAdmissible) {
  const RoutingGrid g = small_grid(7, 7, 4);
  const std::vector<double>& base = g.base_costs();
  const std::vector<double>& delays = g.edge_delays();
  for (const std::size_t landmarks : {std::size_t{0}, std::size_t{4}}) {
    const FutureCost fc(g, landmarks);
    ASSERT_EQ(fc.num_landmarks(), landmarks);
    Rng rng(99);
    for (int trial = 0; trial < 12; ++trial) {
      const auto s =
          static_cast<VertexId>(rng.uniform(g.graph().num_vertices()));
      const auto rc =
          dijkstra(g.graph(), {s}, [&](EdgeId e) { return base[e]; });
      const auto rd =
          dijkstra(g.graph(), {s}, [&](EdgeId e) { return delays[e]; });
      for (VertexId v = 0; v < g.graph().num_vertices(); ++v) {
        EXPECT_LE(fc.cost_lb(s, v), rc.dist[v] + 1e-9);
        EXPECT_LE(fc.delay_lb(s, v), rd.dist[v] + 1e-9);
        // The published bounds are exactly the reference formulas.
        ASSERT_EQ(bits(fc.cost_lb(s, v)), bits(reference_cost_lb(g, fc, s, v)))
            << "landmarks " << landmarks << " s " << s << " v " << v;
        ASSERT_EQ(bits(fc.delay_lb(s, v)), bits(reference_delay_lb(g, s, v)))
            << "landmarks " << landmarks << " s " << s << " v " << v;
      }
    }
  }
}

TEST(WindowFutureCost, BoundsMatchGridFutureCostOnMappedVertices) {
  const RoutingGrid g = small_grid(9, 8, 3);
  CongestionCosts costs(g);
  Rect box;  // clipped: extends past the grid's right and bottom edges
  box.expand(Point2{3, -2});
  box.expand(Point2{12, 5});
  const RoutingWindow w(g, costs, box);
  const WindowFutureCost wfc(w);
  const FutureCost fc(g);
  const VertexId n = w.graph().num_vertices();
  ASSERT_EQ(n, 6u * 6u * 3u);
  for (VertexId a = 0; a < n; ++a) {
    const VertexId ga = w.to_grid_vertex(a);
    EXPECT_EQ(wfc.xy(a), fc.xy(ga));
    for (VertexId b = 0; b < n; ++b) {
      const VertexId gb = w.to_grid_vertex(b);
      ASSERT_EQ(bits(wfc.cost_lb(a, b)), bits(fc.cost_lb(ga, gb)))
          << "window " << a << "-" << b;
      ASSERT_EQ(bits(wfc.delay_lb(a, b)), bits(fc.delay_lb(ga, gb)))
          << "window " << a << "-" << b;
    }
  }
}

TEST(Window, MapsVerticesAndEdgesBack) {
  const RoutingGrid g = small_grid(10, 10, 3);
  CongestionCosts costs(g);
  Rect box;
  box.expand(Point2{2, 3});
  box.expand(Point2{6, 7});
  const RoutingWindow w(g, costs, box);
  EXPECT_EQ(w.graph().num_vertices(), 5u * 5u * 3u);

  // Round-trip all window vertices.
  for (VertexId wv = 0; wv < w.graph().num_vertices(); ++wv) {
    const VertexId gv = w.to_grid_vertex(wv);
    EXPECT_EQ(w.from_grid_vertex(gv), wv);
    EXPECT_TRUE(box.contains(g.position(gv).xy()));
  }
  // Outside vertices are unmapped.
  EXPECT_EQ(w.from_grid_vertex(g.vertex_at(0, 0, 0)), kInvalidVertex);

  // Window edges correspond to grid edges with identical endpoints.
  for (EdgeId we = 0; we < w.graph().num_edges(); ++we) {
    const EdgeId ge = w.to_grid_edge(we);
    const VertexId wa = w.graph().tail(we), wb = w.graph().head(we);
    const VertexId ga = g.graph().tail(ge), gb = g.graph().head(ge);
    const bool match = (w.to_grid_vertex(wa) == ga &&
                        w.to_grid_vertex(wb) == gb) ||
                       (w.to_grid_vertex(wa) == gb &&
                        w.to_grid_vertex(wb) == ga);
    EXPECT_TRUE(match);
    EXPECT_DOUBLE_EQ(w.edge_delays()[we], g.edge_delays()[ge]);
    EXPECT_DOUBLE_EQ(w.edge_costs()[we], costs.edge_cost(ge));
  }
}

TEST(Window, ClipsToGrid) {
  const RoutingGrid g = small_grid(5, 5, 2);
  CongestionCosts costs(g);
  Rect box;
  box.expand(Point2{-10, -10});
  box.expand(Point2{100, 100});
  const RoutingWindow w(g, costs, box);
  EXPECT_EQ(w.graph().num_vertices(), g.graph().num_vertices());
  EXPECT_EQ(w.graph().num_edges(), g.graph().num_edges());
}

TEST(Window, PricesReflectCongestion) {
  const RoutingGrid g = small_grid(8, 8, 3);
  CongestionCosts costs(g);
  // Congest one edge heavily, then check the window sees the high price.
  EdgeId wire = kInvalidEdge;
  for (EdgeId e = 0; e < g.graph().num_edges(); ++e) {
    if (!g.edge_info(e).is_via) {
      wire = e;
      break;
    }
  }
  std::vector<EdgeId> once{wire};
  for (int i = 0; i < 40; ++i) costs.add_usage(once, +1.0);

  Rect box;
  box.expand(Point2{0, 0});
  box.expand(Point2{7, 7});
  const RoutingWindow w(g, costs, box);
  bool found_expensive = false;
  for (EdgeId we = 0; we < w.graph().num_edges(); ++we) {
    if (w.to_grid_edge(we) == wire) {
      EXPECT_GT(w.edge_costs()[we], 2.0 * g.edge_info(wire).unit_cost);
      found_expensive = true;
    }
  }
  EXPECT_TRUE(found_expensive);
}

// ------------------------------------------- stamped window vs. reference

/// The generic window build: a GraphBuilder sweep over the grid's arcs,
/// CSR finalization, then an ArcCostView gather. RoutingWindow stamps the
/// same subgraph in closed form; this is the reference it must reproduce
/// bit for bit.
struct ReferenceWindow {
  Graph graph;
  std::vector<VertexId> to_grid_vertex;
  std::vector<Point3> positions;
  std::vector<EdgeId> to_grid_edge;
  std::vector<double> costs;
  std::vector<double> delays;
  ArcCostView arc_costs;
};

std::unique_ptr<ReferenceWindow> reference_window(
    const RoutingGrid& grid, const CongestionCosts& costs, Rect box,
    const RoundPricing* pricing) {
  box.xlo = std::max(box.xlo, 0);
  box.ylo = std::max(box.ylo, 0);
  box.xhi = std::min(box.xhi, grid.nx() - 1);
  box.yhi = std::min(box.yhi, grid.ny() - 1);
  const auto wx = static_cast<std::int32_t>(box.width()) + 1;
  const auto wy = static_cast<std::int32_t>(box.height()) + 1;
  const std::size_t wn = static_cast<std::size_t>(wx) * wy * grid.nz();
  auto ref = std::make_unique<ReferenceWindow>();
  ref->to_grid_vertex.resize(wn);
  ref->positions.resize(wn);
  const auto wvertex = [&](std::int32_t x, std::int32_t y, std::int32_t z) {
    return static_cast<VertexId>(
        (static_cast<std::int64_t>(z) * wy + (y - box.ylo)) * wx +
        (x - box.xlo));
  };
  for (std::int32_t z = 0; z < grid.nz(); ++z) {
    for (std::int32_t y = box.ylo; y <= box.yhi; ++y) {
      for (std::int32_t x = box.xlo; x <= box.xhi; ++x) {
        ref->to_grid_vertex[wvertex(x, y, z)] = grid.vertex_at(x, y, z);
        ref->positions[wvertex(x, y, z)] = Point3{x, y, z};
      }
    }
  }
  // Each in-box grid edge once, from its lower endpoint, in grid arc order.
  GraphBuilder builder(wn);
  for (VertexId wv = 0; wv < wn; ++wv) {
    const VertexId gv = ref->to_grid_vertex[wv];
    for (const Graph::Arc& a : grid.graph().arcs(gv)) {
      if (a.to < gv) continue;
      const Point3 pu = grid.position(a.to);
      if (!box.contains(pu.xy())) continue;
      builder.add_edge(wv, wvertex(pu.x, pu.y, pu.z));
      ref->to_grid_edge.push_back(a.edge);
    }
  }
  ref->graph = Graph(builder);
  const std::size_t wm = ref->to_grid_edge.size();
  std::vector<std::uint8_t> layer_of(wm);
  for (std::size_t e = 0; e < wm; ++e) {
    const EdgeId ge = ref->to_grid_edge[e];
    double cost = costs.edge_cost(ge);
    if (pricing != nullptr) {
      const double* excluded =
          pricing->excluded_usage != nullptr
              ? pricing->excluded_usage->find(grid.edge_info(ge).resource)
              : nullptr;
      cost = excluded == nullptr ? pricing->edge_costs[ge]
                                 : costs.edge_cost_excluding(ge, *excluded);
    }
    ref->costs.push_back(cost);
    ref->delays.push_back(grid.edge_delays()[ge]);
    layer_of[e] = grid.edge_info(ge).layer;
  }
  ref->arc_costs.assign(ref->graph, ref->costs, ref->delays, layer_of);
  return ref;
}

/// Element-wise bit equality; `what` names the array in failure messages.
void expect_same_bits(std::span<const double> got,
                      std::span<const double> want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(bits(got[i]), bits(want[i])) << what << "[" << i << "]";
  }
}

void expect_matches_reference(const RoutingWindow& w,
                              const ReferenceWindow& ref) {
  const Graph& g = w.graph();
  const Graph& rg = ref.graph;
  ASSERT_EQ(g.num_vertices(), rg.num_vertices());
  ASSERT_EQ(g.num_edges(), rg.num_edges());
  ASSERT_EQ(g.num_arcs(), rg.num_arcs());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    ASSERT_EQ(g.tail(e), rg.tail(e)) << "edge " << e;
    ASSERT_EQ(g.head(e), rg.head(e)) << "edge " << e;
    ASSERT_EQ(w.to_grid_edge(e), ref.to_grid_edge[e]) << "edge " << e;
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(g.arc_begin(v), rg.arc_begin(v)) << "vertex " << v;
    ASSERT_EQ(g.arc_end(v), rg.arc_end(v)) << "vertex " << v;
    ASSERT_EQ(w.positions()[v], ref.positions[v]) << "vertex " << v;
    ASSERT_EQ(w.to_grid_vertex(v), ref.to_grid_vertex[v]) << "vertex " << v;
  }
  for (std::size_t a = 0; a < g.num_arcs(); ++a) {
    ASSERT_EQ(g.arc_heads()[a], rg.arc_heads()[a]) << "arc " << a;
    ASSERT_EQ(g.arc_edges()[a], rg.arc_edges()[a]) << "arc " << a;
  }
  expect_same_bits(w.edge_costs(), ref.costs, "edge_costs");
  expect_same_bits(w.edge_delays(), ref.delays, "edge_delays");
  const ArcCostView& v = w.arc_costs();
  const ArcCostView& rv = ref.arc_costs;
  ASSERT_EQ(v.graph(), &g);
  expect_same_bits(v.edge_cost(), ref.costs, "view edge_cost");
  expect_same_bits(v.edge_delay(), ref.delays, "view edge_delay");
  // The strips including their zero pad (what full-width loads may read).
  const std::size_t padded = g.num_arcs() + kRelaxStrip;
  expect_same_bits({v.arc_cost_data(), padded},
                   {rv.arc_cost_data(), padded}, "arc_cost");
  expect_same_bits({v.arc_delay_data(), padded},
                   {rv.arc_delay_data(), padded}, "arc_delay");
  for (std::size_t a = g.num_arcs(); a < padded; ++a) {
    ASSERT_EQ(bits(v.arc_cost_data()[a]), 0u);
    ASSERT_EQ(bits(v.arc_delay_data()[a]), 0u);
  }
  ASSERT_EQ(v.arc_layer().size(), rv.arc_layer().size());
  for (std::size_t a = 0; a < g.num_arcs(); ++a) {
    ASSERT_EQ(v.arc_layer()[a], rv.arc_layer()[a]) << "arc " << a;
  }
}

LayerSpec layer_spec(LayerDir dir, int wire_types) {
  LayerSpec l;
  l.name = dir == LayerDir::kHorizontal ? "H" : "V";
  l.dir = dir;
  l.capacity = 6.0;
  for (int k = 0; k < wire_types; ++k) {
    WireType wt;
    wt.name = l.name + std::to_string(k);
    wt.width = 1.0 + k;
    wt.unit_cost = 1.0 + 0.75 * k;
    wt.delay_per_gcell = 3.0 / (1.0 + k);
    l.wire_types.push_back(wt);
  }
  return l;
}

/// Grids covering the layout's cases: one and two wire types in both
/// directions, a single layer (no vias), and degenerate 1-wide extents.
std::vector<RoutingGrid> layout_grids() {
  const LayerDir H = LayerDir::kHorizontal, V = LayerDir::kVertical;
  const ViaSpec via{1.0, 1.5, 2.5};
  std::vector<RoutingGrid> grids;
  grids.emplace_back(9, 7, make_default_layer_stack(4), ViaSpec{});
  grids.emplace_back(
      8, 6,
      std::vector<LayerSpec>{layer_spec(V, 2), layer_spec(H, 1),
                             layer_spec(V, 1), layer_spec(H, 2),
                             layer_spec(H, 2)},
      via);
  grids.emplace_back(7, 5, std::vector<LayerSpec>{layer_spec(V, 2)}, via);
  grids.emplace_back(6, 4, std::vector<LayerSpec>{layer_spec(H, 1)}, via);
  grids.emplace_back(1, 5,
                     std::vector<LayerSpec>{layer_spec(H, 2), layer_spec(V, 1)},
                     via);
  grids.emplace_back(5, 1,
                     std::vector<LayerSpec>{layer_spec(H, 1), layer_spec(V, 2)},
                     via);
  return grids;
}

Rect rect(std::int32_t xlo, std::int32_t ylo, std::int32_t xhi,
          std::int32_t yhi) {
  Rect r;
  r.expand(Point2{xlo, ylo});
  r.expand(Point2{xhi, yhi});
  return r;
}

/// Random boxes, boxes clipped at each border, one-gcell-wide and -tall
/// boxes, a single gcell, and the whole grid (and beyond).
std::vector<Rect> layout_boxes(const RoutingGrid& g, Rng& rng) {
  const std::int32_t mx = g.nx() - 1, my = g.ny() - 1;
  const std::int32_t cx = mx / 2, cy = my / 2;
  std::vector<Rect> boxes{
      rect(-3, cy, cx, my),      rect(cx, -2, mx, cy),   // xlo, ylo borders
      rect(cx, 0, mx + 4, my),   rect(0, cy, cx, my + 5),  // xhi, yhi
      rect(-2, -2, mx + 2, my + 2),                        // beyond all four
      rect(cx, 0, cx, my),       rect(0, cy, mx, cy),      // wx == 1, wy == 1
      rect(cx, cy, cx, cy),      rect(0, 0, mx, my),       // 1x1, full grid
  };
  for (int i = 0; i < 6; ++i) {
    const auto x0 = static_cast<std::int32_t>(rng.uniform_int(-2, mx));
    const auto y0 = static_cast<std::int32_t>(rng.uniform_int(-2, my));
    const auto x1 = static_cast<std::int32_t>(rng.uniform_int(x0, mx + 2));
    const auto y1 = static_cast<std::int32_t>(rng.uniform_int(y0, my + 2));
    boxes.push_back(rect(x0, y0, std::max(x1, 0), std::max(y1, 0)));
  }
  return boxes;
}

TEST(RoutingGrid, ClosedFormEdgeIdsMatchBuild) {
  for (const RoutingGrid& g : layout_grids()) {
    const Graph& gg = g.graph();
    for (EdgeId e = 0; e < gg.num_edges(); ++e) {
      const RoutingGrid::EdgeInfo& info = g.edge_info(e);
      const Point3 a = g.position(gg.tail(e));
      ASSERT_LT(gg.tail(e), gg.head(e));
      if (info.is_via) {
        ASSERT_EQ(g.via_edge(a.x, a.y, a.z), e);
      } else {
        ASSERT_EQ(g.wire_edge(a.x, a.y, a.z, info.wire_type), e);
      }
    }
  }
}

TEST(Window, StampedWindowBitIdenticalToReferenceBuild) {
  Rng rng(2024);
  for (const RoutingGrid& g : layout_grids()) {
    SCOPED_TRACE(testing::Message()
                 << "grid " << g.nx() << "x" << g.ny() << "x" << g.nz());
    CongestionCosts costs(g);
    // Uneven usage, so prices differ edge to edge.
    std::vector<EdgeId> used;
    for (EdgeId e = 0; e < g.graph().num_edges(); ++e) {
      if (rng.uniform(3) == 0) used.push_back(e);
    }
    costs.add_usage(used, +1.0);
    const std::vector<double> snapshot = costs.edge_cost_vector();
    // Live prices move on after the snapshot, so the two modes differ.
    costs.add_usage(used, +1.0);
    SparseMap<double> excluded;
    for (std::size_t i = 0; i < used.size(); i += 2) {
      excluded[g.edge_info(used[i]).resource] += 1.0;
    }
    const RoundPricing frozen{snapshot, nullptr};
    const RoundPricing frozen_excluding{snapshot, &excluded};
    const RoundPricing* modes[] = {nullptr, &frozen, &frozen_excluding};

    for (const Rect& box : layout_boxes(g, rng)) {
      for (int m = 0; m < 3; ++m) {
        SCOPED_TRACE(testing::Message()
                     << "box [" << box.xlo << "," << box.xhi << "]x["
                     << box.ylo << "," << box.yhi << "] pricing mode " << m);
        const RoutingWindow w(g, costs, box, modes[m]);
        const auto ref = reference_window(g, costs, box, modes[m]);
        expect_matches_reference(w, *ref);
      }
    }
  }
}

/// Every lattice query against the reference build: each vertex's arcs
/// (head, window edge id, cost and delay bits, order), each edge's
/// endpoints and delay, and every vertex's first own edge.
void expect_lattice_matches_reference(const RoutingWindow& w,
                                      const ReferenceWindow& ref) {
  const WindowLattice& l = w.lattice();
  const Graph& rg = ref.graph;
  ASSERT_EQ(l.num_vertices(), rg.num_vertices());
  ASSERT_EQ(l.num_edges(), rg.num_edges());
  ASSERT_EQ(l.num_arcs(), rg.num_arcs());
  VertexId heads[kMaxLatticeArcs];
  EdgeId edges[kMaxLatticeArcs];
  double delays[kMaxLatticeArcs];
  for (VertexId v = 0; v < l.num_vertices(); ++v) {
    const std::uint32_t n = l.arcs(v, heads, edges, delays);
    ASSERT_EQ(n, rg.degree(v)) << "vertex " << v;
    for (std::uint32_t k = 0; k < n; ++k) {
      const std::size_t a = rg.arc_begin(v) + k;
      ASSERT_EQ(heads[k], rg.arc_heads()[a]) << "vertex " << v << " arc " << k;
      ASSERT_EQ(edges[k], rg.arc_edges()[a]) << "vertex " << v << " arc " << k;
      ASSERT_EQ(bits(w.edge_costs()[edges[k]]),
                bits(ref.arc_costs.arc_cost()[a]))
          << "vertex " << v << " arc " << k;
      ASSERT_EQ(bits(delays[k]), bits(ref.arc_costs.arc_delay()[a]))
          << "vertex " << v << " arc " << k;
    }
  }
  std::vector<EdgeId> first(l.num_vertices(), kInvalidEdge);
  for (EdgeId e = 0; e < l.num_edges(); ++e) {
    const WindowLattice::Edge d = l.edge(e);
    ASSERT_EQ(d.tail, rg.tail(e)) << "edge " << e;
    ASSERT_EQ(d.head, rg.head(e)) << "edge " << e;
    ASSERT_EQ(bits(l.delay(e)), bits(ref.delays[e])) << "edge " << e;
    const GraphView::Ends ends = GraphView(l).ends(e);
    ASSERT_EQ(ends.tail, rg.tail(e)) << "edge " << e;
    ASSERT_EQ(ends.head, rg.head(e)) << "edge " << e;
    if (first[d.tail] == kInvalidEdge) first[d.tail] = e;
  }
  for (VertexId v = 0; v < l.num_vertices(); ++v) {
    if (first[v] != kInvalidEdge) {
      ASSERT_EQ(l.first_edge(v), first[v]) << "vertex " << v;
    }
  }
}

TEST(Window, LatticeArcsMatchReferenceBuild) {
  Rng rng(2025);
  for (const RoutingGrid& g : layout_grids()) {
    SCOPED_TRACE(testing::Message()
                 << "grid " << g.nx() << "x" << g.ny() << "x" << g.nz());
    CongestionCosts costs(g);
    std::vector<EdgeId> used;
    for (EdgeId e = 0; e < g.graph().num_edges(); ++e) {
      if (rng.uniform(3) == 0) used.push_back(e);
    }
    costs.add_usage(used, +1.0);
    const std::vector<double> snapshot = costs.edge_cost_vector();
    costs.add_usage(used, +1.0);
    SparseMap<double> excluded;
    for (std::size_t i = 0; i < used.size(); i += 2) {
      excluded[g.edge_info(used[i]).resource] += 1.0;
    }
    const RoundPricing frozen{snapshot, nullptr};
    const RoundPricing frozen_excluding{snapshot, &excluded};
    const RoundPricing* modes[] = {nullptr, &frozen, &frozen_excluding};

    for (const Rect& box : layout_boxes(g, rng)) {
      for (int m = 0; m < 3; ++m) {
        SCOPED_TRACE(testing::Message()
                     << "box [" << box.xlo << "," << box.xhi << "]x["
                     << box.ylo << "," << box.yhi << "] pricing mode " << m);
        const RoutingWindow w(g, costs, box, modes[m]);
        const auto ref = reference_window(g, costs, box, modes[m]);
        expect_lattice_matches_reference(w, *ref);
        for (EdgeId e = 0; e < w.num_edges(); ++e) {
          ASSERT_EQ(w.to_grid_edge(e), ref->to_grid_edge[e]) << "edge " << e;
        }
      }
    }
  }
}

TEST(Window, CollectRouteUsageSumsWidthsPerResource) {
  const RoutingGrid g(6, 6, make_default_layer_stack(4), ViaSpec{});
  std::vector<EdgeId> route;
  SparseMap<double> want;
  for (EdgeId e = 0; e < g.graph().num_edges(); e += 7) {
    route.push_back(e);
    want[g.edge_info(e).resource] += g.edge_info(e).width;
  }
  SparseMap<double> got;
  got[12345] = 1.0;  // stale content is cleared
  collect_route_usage(g, route, got);
  EXPECT_EQ(got.size(), want.size());
  want.for_each([&](std::uint32_t r, double units) {
    const double* v = got.find(r);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(bits(*v), bits(units));
  });
}

TEST(RoutingGrid, RejectsMoreWireTypesThanALatticeStripHolds) {
  const auto grid_with = [](int wire_types) {
    return RoutingGrid(4, 4,
                       std::vector<LayerSpec>{
                           layer_spec(LayerDir::kHorizontal, wire_types),
                           layer_spec(LayerDir::kVertical, 1)},
                       ViaSpec{});
  };
  EXPECT_NO_THROW(grid_with(static_cast<int>(kMaxLatticeWireTypes)));
  EXPECT_THROW(grid_with(static_cast<int>(kMaxLatticeWireTypes) + 1),
               ContractViolation);
}

TEST(RoutingGrid, ResourceEdgesCoverEveryEdgeOnce) {
  for (const RoutingGrid& g : layout_grids()) {
    std::vector<int> seen(g.graph().num_edges(), 0);
    for (ResourceId r = 0; r < g.num_resources(); ++r) {
      const RoutingGrid::EdgeRange edges = g.resource_edges(r);
      ASSERT_GE(edges.count, 1u);
      for (std::uint32_t k = 0; k < edges.count; ++k) {
        ASSERT_EQ(g.edge_info(edges.first + k).resource, r);
        ++seen[edges.first + k];
      }
    }
    for (const int s : seen) ASSERT_EQ(s, 1);
  }
}

}  // namespace
}  // namespace cdst
