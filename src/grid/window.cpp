#include "grid/window.h"

#include <algorithm>
#include <utility>

namespace cdst {

RoutingWindow::RoutingWindow(const RoutingGrid& grid,
                             const CongestionCosts& costs, Rect box,
                             const RoundPricing* pricing)
    : grid_(&grid) {
  // Clip to the grid.
  box.xlo = std::max(box.xlo, 0);
  box.ylo = std::max(box.ylo, 0);
  box.xhi = std::min(box.xhi, grid.nx() - 1);
  box.yhi = std::min(box.yhi, grid.ny() - 1);
  CDST_CHECK_MSG(!box.empty(), "routing window does not intersect the grid");
  box_ = box;
  wx_ = static_cast<std::int32_t>(box.width()) + 1;
  wy_ = static_cast<std::int32_t>(box.height()) + 1;

  const std::int32_t nz = grid.nz();
  const std::vector<LayerSpec>& layers = grid.layers();
  const auto plane = static_cast<VertexId>(wx_) * static_cast<VertexId>(wy_);
  const std::size_t wn = static_cast<std::size_t>(plane) * nz;
  std::size_t wm = 0;
  for (std::int32_t z = 0; z < nz; ++z) {
    const LayerSpec& layer = layers[static_cast<std::size_t>(z)];
    const std::size_t segments =
        layer.dir == LayerDir::kHorizontal
            ? static_cast<std::size_t>(wx_ - 1) * wy_
            : static_cast<std::size_t>(wx_) * (wy_ - 1);
    wm += segments * layer.wire_types.size() + (z + 1 < nz ? plane : 0);
  }

  const SparseMap<double>* excluded =
      pricing != nullptr ? pricing->excluded_usage : nullptr;
  const auto price = [&](EdgeId ge) {
    if (pricing == nullptr) return costs.edge_cost(ge);
    // Frozen round snapshot: a gather instead of an exp() per edge. Only
    // the net's own resources re-price, with its committed usage excluded.
    const double* ex =
        excluded != nullptr ? excluded->find(grid.edge_info(ge).resource)
                            : nullptr;
    return ex == nullptr ? pricing->edge_costs[ge]
                         : costs.edge_cost_excluding(ge, *ex);
  };

  // Vertex-order sweep: positions, and every vertex's own edges (tail =
  // that vertex) with their grid ids and priced attributes. first_up[v] is
  // the first edge with tail v; first_up[wn] = wm.
  Graph::Csr csr;
  csr.tails.resize(wm);
  csr.heads.resize(wm);
  to_grid_edge_.resize(wm);
  costs_.resize(wm);
  delays_.resize(wm);
  positions_.resize(wn);
  std::vector<EdgeId> first_up(wn + 1);
  const std::vector<double>& gd = grid.edge_delays();
  EdgeId e = 0;
  VertexId wv = 0;
  const auto stamp = [&](VertexId to, EdgeId ge) {
    csr.tails[e] = wv;
    csr.heads[e] = to;
    to_grid_edge_[e] = ge;
    costs_[e] = price(ge);
    delays_[e] = gd[ge];
    ++e;
  };
  for (std::int32_t z = 0; z < nz; ++z) {
    const LayerSpec& layer = layers[static_cast<std::size_t>(z)];
    const std::size_t nw = layer.wire_types.size();
    const bool horizontal = layer.dir == LayerDir::kHorizontal;
    const VertexId step = horizontal ? 1 : static_cast<VertexId>(wx_);
    const bool up = z + 1 < nz;
    for (std::int32_t y = box_.ylo; y <= box_.yhi; ++y) {
      for (std::int32_t x = box_.xlo; x <= box_.xhi; ++x) {
        positions_[wv] = Point3{x, y, z};
        first_up[wv] = e;
        if (horizontal ? x < box_.xhi : y < box_.yhi) {
          const EdgeId g0 = grid.wire_edge(x, y, z, 0);
          for (std::size_t k = 0; k < nw; ++k) {
            stamp(wv + step, g0 + static_cast<EdgeId>(k));
          }
        }
        if (up) stamp(wv + plane, grid.via_edge(x, y, z));
        ++wv;
      }
    }
  }
  CDST_ASSERT(e == wm);
  first_up[wn] = e;

  // CSR pass: per vertex, its arcs in edge-id order, with the priced
  // per-arc strips written alongside.
  const std::size_t na = 2 * wm;
  csr.offsets.resize(wn + 1);
  csr.arc_heads.resize(na);
  csr.arc_edges.resize(na);
  ArcCostView::Strips strips(na);
  std::size_t a = 0;
  const auto arc = [&](EdgeId edge, VertexId to, std::int32_t layer) {
    csr.arc_heads[a] = to;
    csr.arc_edges[a] = edge;
    strips.cost[a] = costs_[edge];
    strips.delay[a] = delays_[edge];
    strips.layer[a] = static_cast<std::uint8_t>(layer);
    ++a;
  };
  wv = 0;
  for (std::int32_t z = 0; z < nz; ++z) {
    const LayerSpec& layer = layers[static_cast<std::size_t>(z)];
    const auto nw = static_cast<EdgeId>(layer.wire_types.size());
    const bool horizontal = layer.dir == LayerDir::kHorizontal;
    const VertexId step = horizontal ? 1 : static_cast<VertexId>(wx_);
    const bool up = z + 1 < nz;
    for (std::int32_t j = 0; j < wy_; ++j) {
      for (std::int32_t i = 0; i < wx_; ++i) {
        csr.offsets[wv] = a;
        if (z > 0) {
          const VertexId below = wv - plane;
          arc(first_up[below + 1] - 1, below, z - 1);  // below's via up
        }
        if (horizontal ? i > 0 : j > 0) {
          const VertexId prev = wv - step;
          for (EdgeId k = 0; k < nw; ++k) arc(first_up[prev] + k, prev, z);
        }
        if (horizontal ? i + 1 < wx_ : j + 1 < wy_) {
          for (EdgeId k = 0; k < nw; ++k) arc(first_up[wv] + k, wv + step, z);
        }
        if (up) arc(first_up[wv + 1] - 1, wv + plane, z);
        ++wv;
      }
    }
  }
  CDST_ASSERT(a == na);
  csr.offsets[wn] = a;

  graph_ = Graph(std::move(csr));
  // costs_/delays_ are members with exactly the view's lifetime (and vector
  // buffers survive window moves), so the view borrows them.
  arc_costs_.adopt(graph_, std::move(strips), costs_, delays_);
}

VertexId RoutingWindow::from_grid_vertex(VertexId gv) const {
  const Point3 p = grid_->position(gv);
  if (!box_.contains(p.xy())) return kInvalidVertex;
  return static_cast<VertexId>(
      (static_cast<std::int64_t>(p.z) * wy_ + (p.y - box_.ylo)) * wx_ +
      (p.x - box_.xlo));
}

std::vector<EdgeId> RoutingWindow::to_grid_edges(
    const std::vector<EdgeId>& wes) const {
  std::vector<EdgeId> out;
  out.reserve(wes.size());
  for (const EdgeId we : wes) out.push_back(to_grid_edge_[we]);
  return out;
}

}  // namespace cdst
