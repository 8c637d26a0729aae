/// \file window.h
/// Routing windows: subgraphs of the routing grid restricted to a plane
/// rectangle (all layers), with id translation back to the full grid.
///
/// Global routers solve per-net Steiner problems inside the net's bounding
/// box inflated by a detour margin — both for speed and because optimal
/// detours rarely leave that region. All per-net oracles (cost-distance and
/// the embedded baselines) run on windows; usage is committed on grid edges.

#pragma once

#include <memory>
#include <vector>

#include "core/future_oracle.h"
#include "geom/rect.h"
#include "graph/arc_cost_view.h"
#include "grid/cost_model.h"
#include "grid/routing_grid.h"
#include "util/sparse_map.h"

namespace cdst {

/// Frozen pricing of one sharded router round (route/sharding.h): every net
/// of the round prices its window from the same per-grid-edge snapshot,
/// except for the resources its own committed route occupies, which are
/// re-priced with that usage excluded (the sharded equivalent of ripping the
/// net up before pricing). Both members are borrowed for the window build.
struct RoundPricing {
  std::span<const double> edge_costs;  ///< snapshot, grid-EdgeId indexed
  /// Resource -> capacity units of the net's own committed usage to exclude;
  /// null when the net has no committed route.
  const SparseMap<double>* excluded_usage{nullptr};
};

class RoutingWindow {
 public:
  /// Builds the subgraph of `grid` over gcells in `box` (clipped to the
  /// grid), all layers included, with current congestion prices as costs.
  /// `pricing` (optional) prices from a frozen round snapshot instead of the
  /// live CongestionCosts state — see RoundPricing.
  ///
  /// The subgraph is stamped in closed form from the box and the layer
  /// stack (RoutingGrid::wire_edge()/via_edge()), into exact-size arrays.
  /// Window vertices are numbered layer-major, then row-major within the
  /// box. Window edges are numbered by ascending tail (the lower endpoint);
  /// a vertex's own edges are its wire types' edges to the next gcell along
  /// the layer's direction, then its via up. The arcs of a vertex follow
  /// edge-id order: via below, wire types to the previous gcell, wire types
  /// to the next gcell, via above.
  RoutingWindow(const RoutingGrid& grid, const CongestionCosts& costs,
                Rect box, const RoundPricing* pricing = nullptr);

  const Graph& graph() const { return graph_; }
  const RoutingGrid& grid() const { return *grid_; }
  const Rect& box() const { return box_; }

  /// Congestion prices of window edges (the instance's c vector).
  const std::vector<double>& edge_costs() const { return costs_; }
  /// Static delays of window edges (the instance's d vector).
  const std::vector<double>& edge_delays() const { return delays_; }

  /// SoA plane of the window's priced attributes, keyed by window arc index
  /// (what the solver's blocked relax loop scans).
  const ArcCostView& arc_costs() const { return arc_costs_; }

  VertexId to_grid_vertex(VertexId wv) const {
    return grid_->vertex_at(positions_[wv]);
  }
  EdgeId to_grid_edge(EdgeId we) const { return to_grid_edge_[we]; }

  /// Dense per-window-vertex positions in grid coordinates (the SoA
  /// geometry plane behind WindowFutureCost's bounds).
  const std::vector<Point3>& positions() const { return positions_; }

  /// Window vertex for a grid vertex; kInvalidVertex if outside the box.
  VertexId from_grid_vertex(VertexId gv) const;

  /// Maps window-edge paths back to grid edges.
  std::vector<EdgeId> to_grid_edges(const std::vector<EdgeId>& wes) const;

 private:
  const RoutingGrid* grid_;
  Rect box_;
  Graph graph_;
  ArcCostView arc_costs_;
  std::vector<Point3> positions_;
  std::vector<EdgeId> to_grid_edge_;
  std::vector<double> costs_;
  std::vector<double> delays_;
  std::int32_t wx_{0}, wy_{0};  ///< window extent in gcells
};

/// FutureCostOracle over a routing window: the window's dense positions (in
/// grid coordinates) with the grid's unit minima; no landmarks, since windows
/// are rebuilt per net.
class WindowFutureCost final : public FutureCostOracle {
 public:
  explicit WindowFutureCost(const RoutingWindow& w) {
    positions_ = w.positions().data();
    min_unit_cost_ = w.grid().min_unit_cost();
    min_unit_delay_ = w.grid().min_unit_delay();
    min_via_cost_ = w.grid().min_via_cost();
    min_via_delay_ = w.grid().min_via_delay();
  }
};

}  // namespace cdst
