#include "grid/window.h"

#include <algorithm>
#include <mutex>
#include <utility>

namespace cdst {

void collect_route_usage(const RoutingGrid& grid,
                         std::span<const EdgeId> route,
                         SparseMap<double>& out) {
  out.clear();
  for (const EdgeId ge : route) {
    const RoutingGrid::EdgeInfo& info = grid.edge_info(ge);
    out[info.resource] += info.width;
  }
}

/// The stamped form, written once on first use (see graph()).
struct RoutingWindow::Stamp {
  std::once_flag once;
  Graph graph;
  std::vector<double> delays;
  ArcCostView arc_costs;
};

RoutingWindow::RoutingWindow(const RoutingGrid& grid,
                             const CongestionCosts& costs, Rect box,
                             const RoundPricing* pricing)
    : grid_(&grid), stamp_(std::make_unique<Stamp>()) {
  // Clip to the grid.
  box.xlo = std::max(box.xlo, 0);
  box.ylo = std::max(box.ylo, 0);
  box.xhi = std::min(box.xhi, grid.nx() - 1);
  box.yhi = std::min(box.yhi, grid.ny() - 1);
  CDST_CHECK_MSG(!box.empty(), "routing window does not intersect the grid");
  box_ = box;

  const std::int32_t nz = grid.nz();
  const std::vector<LayerSpec>& layers = grid.layers();
  std::vector<WindowLattice::LayerShape> shapes(static_cast<std::size_t>(nz));
  for (std::int32_t z = 0; z < nz; ++z) {
    const LayerSpec& layer = layers[static_cast<std::size_t>(z)];
    WindowLattice::LayerShape& shape = shapes[static_cast<std::size_t>(z)];
    shape.horizontal = layer.dir == LayerDir::kHorizontal;
    for (std::size_t k = 0; k < layer.wire_types.size(); ++k) {
      shape.wire_delays.push_back(grid.wire_delay(z, k));
    }
  }
  lattice_ = WindowLattice(static_cast<std::int32_t>(box.width()) + 1,
                           static_cast<std::int32_t>(box.height()) + 1,
                           shapes, grid.via_delay());

  // Vertex-order sweep: positions, and the price of every vertex's own
  // edges (wire types to the next gcell, then the via up) — edge-id order.
  positions_.resize(lattice_.num_vertices());
  costs_.resize(lattice_.num_edges());
  const auto sweep = [&](const auto& price) {
    Point3* pos = positions_.data();
    double* c = costs_.data();
    for (std::int32_t z = 0; z < nz; ++z) {
      const auto nw = static_cast<EdgeId>(lattice_.wires(z));
      const bool horizontal = shapes[static_cast<std::size_t>(z)].horizontal;
      const bool up = z + 1 < nz;
      for (std::int32_t y = box_.ylo; y <= box_.yhi; ++y) {
        for (std::int32_t x = box_.xlo; x <= box_.xhi; ++x) {
          *pos++ = Point3{x, y, z};
          if (horizontal ? x < box_.xhi : y < box_.yhi) {
            const EdgeId g0 = grid.wire_edge(x, y, z, 0);
            for (EdgeId k = 0; k < nw; ++k) *c++ = price(g0 + k);
          }
          if (up) *c++ = price(grid.via_edge(x, y, z));
        }
      }
    }
    CDST_ASSERT(c == costs_.data() + costs_.size());
  };
  if (pricing == nullptr) {
    sweep([&](EdgeId ge) { return costs.edge_cost(ge); });
    return;
  }
  // Frozen round snapshot: a gather instead of an exp() per edge.
  const double* snapshot = pricing->edge_costs.data();
  sweep([snapshot](EdgeId ge) { return snapshot[ge]; });
  if (pricing->excluded_usage == nullptr) return;

  // Only the net's own resources re-price, with its committed usage
  // excluded: patch their in-window edges after the sweep.
  const Graph& gg = grid.graph();
  pricing->excluded_usage->for_each([&](ResourceId r, double units) {
    const RoutingGrid::EdgeRange edges = grid.resource_edges(r);
    const Point3 a = grid.position(gg.tail(edges.first));
    const Point3 b = grid.position(gg.head(edges.first));
    if (!box_.contains(a.xy()) || !box_.contains(b.xy())) return;
    const VertexId wv = from_grid_vertex(gg.tail(edges.first));
    EdgeId we = lattice_.first_edge(wv);
    if (grid.edge_info(edges.first).is_via && lattice_.has_next(wv)) {
      we += lattice_.wires(a.z);
    }
    for (std::uint32_t k = 0; k < edges.count; ++k) {
      costs_[we + k] = costs.edge_cost_excluding(edges.first + k, units);
    }
  });
}

RoutingWindow::~RoutingWindow() = default;
RoutingWindow::RoutingWindow(RoutingWindow&&) noexcept = default;
RoutingWindow& RoutingWindow::operator=(RoutingWindow&&) noexcept = default;

const RoutingWindow::Stamp& RoutingWindow::stamped() const {
  std::call_once(stamp_->once, [this] {
    // Per vertex, its lattice arcs in order; an arc to a higher vertex is
    // one of the vertex's own edges, which also fixes the edge's endpoints
    // and delay. The priced per-arc strips are written alongside.
    Stamp& s = *stamp_;
    const std::size_t wn = lattice_.num_vertices();
    const std::size_t wm = lattice_.num_edges();
    const std::size_t na = lattice_.num_arcs();
    const auto plane = static_cast<VertexId>(lattice_.wx()) *
                       static_cast<VertexId>(lattice_.wy());
    Graph::Csr csr;
    csr.tails.resize(wm);
    csr.heads.resize(wm);
    csr.offsets.resize(wn + 1);
    csr.arc_heads.resize(na);
    csr.arc_edges.resize(na);
    s.delays.resize(wm);
    ArcCostView::Strips strips(na);
    VertexId heads[kMaxLatticeArcs];
    EdgeId edges[kMaxLatticeArcs];
    double delays[kMaxLatticeArcs];
    std::size_t a = 0;
    for (VertexId v = 0; v < wn; ++v) {
      csr.offsets[v] = a;
      const std::uint32_t z = v / plane;
      const std::uint32_t n = lattice_.arcs(v, heads, edges, delays);
      for (std::uint32_t k = 0; k < n; ++k, ++a) {
        csr.arc_heads[a] = heads[k];
        csr.arc_edges[a] = edges[k];
        strips.cost[a] = costs_[edges[k]];
        strips.delay[a] = delays[k];
        // The via below (arc 0 above the bottom layer) is a lower layer's.
        strips.layer[a] =
            static_cast<std::uint8_t>(k == 0 && z > 0 ? z - 1 : z);
        if (heads[k] > v) {
          csr.tails[edges[k]] = v;
          csr.heads[edges[k]] = heads[k];
          s.delays[edges[k]] = delays[k];
        }
      }
    }
    CDST_ASSERT(a == na);
    csr.offsets[wn] = a;
    s.graph = Graph(std::move(csr));
    // costs_ and the stamp's delays live exactly as long as the view (the
    // stamp is heap-held and vector buffers survive window moves), so the
    // view borrows them.
    s.arc_costs.adopt(s.graph, std::move(strips), costs_, s.delays);
  });
  return *stamp_;
}

const Graph& RoutingWindow::graph() const { return stamped().graph; }
const std::vector<double>& RoutingWindow::edge_delays() const {
  return stamped().delays;
}
const ArcCostView& RoutingWindow::arc_costs() const {
  return stamped().arc_costs;
}

EdgeId RoutingWindow::to_grid_edge(EdgeId we) const {
  const WindowLattice::Edge e = lattice_.edge(we);
  const Point3& p = positions_[e.tail];
  return e.is_via ? grid_->via_edge(p.x, p.y, p.z)
                  : grid_->wire_edge(p.x, p.y, p.z, e.wire);
}

VertexId RoutingWindow::from_grid_vertex(VertexId gv) const {
  const Point3 p = grid_->position(gv);
  if (!box_.contains(p.xy())) return kInvalidVertex;
  return static_cast<VertexId>(
      (static_cast<std::int64_t>(p.z) * lattice_.wy() + (p.y - box_.ylo)) *
          lattice_.wx() +
      (p.x - box_.xlo));
}

std::vector<EdgeId> RoutingWindow::to_grid_edges(
    const std::vector<EdgeId>& wes) const {
  std::vector<EdgeId> out;
  out.reserve(wes.size());
  for (const EdgeId we : wes) out.push_back(to_grid_edge(we));
  return out;
}

}  // namespace cdst
