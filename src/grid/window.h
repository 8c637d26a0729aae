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
#include <span>
#include <vector>

#include "core/future_oracle.h"
#include "geom/rect.h"
#include "graph/arc_cost_view.h"
#include "graph/lattice.h"
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

/// The capacity units a committed route occupies, per resource: clears
/// `out`, then adds each edge's width to its resource in route order. This
/// is the excluded usage a RoundPricing carries for the route's net.
void collect_route_usage(const RoutingGrid& grid,
                         std::span<const EdgeId> route,
                         SparseMap<double>& out);

class RoutingWindow {
 public:
  /// Builds the subgraph of `grid` over gcells in `box` (clipped to the
  /// grid), all layers included, with current congestion prices as costs.
  /// `pricing` (optional) prices from a frozen round snapshot instead of the
  /// live CongestionCosts state — see RoundPricing.
  ///
  /// The window is a WindowLattice (graph/lattice.h): vertices layer-major,
  /// then row-major within the box; edges by ascending tail; the arcs of a
  /// vertex in edge-id order (via below, wire types to the previous gcell,
  /// wire types to the next gcell, via above). Construction prices every
  /// window edge once into edge_costs() and records positions; nothing else
  /// is materialized. Prices are fixed here: later changes to `costs` do
  /// not reach the window.
  RoutingWindow(const RoutingGrid& grid, const CongestionCosts& costs,
                Rect box, const RoundPricing* pricing = nullptr);
  ~RoutingWindow();
  RoutingWindow(RoutingWindow&&) noexcept;
  RoutingWindow& operator=(RoutingWindow&&) noexcept;

  /// The closed-form graph (what the cost-distance solver searches).
  const WindowLattice& lattice() const { return lattice_; }
  const RoutingGrid& grid() const { return *grid_; }
  const Rect& box() const { return box_; }
  std::size_t num_vertices() const { return lattice_.num_vertices(); }
  std::size_t num_edges() const { return lattice_.num_edges(); }

  /// Congestion prices of window edges (the instance's c vector).
  const std::vector<double>& edge_costs() const { return costs_; }

  /// The stamped form: the window as a CSR Graph, the per-edge delays and
  /// the SoA plane of priced per-arc attributes keyed by window arc index.
  /// Written out on the first call to any of the three (thread-safe), from
  /// the lattice and the prices fixed at construction. Only callers that
  /// need a CSR graph ask: the embedding DP of the L1/SL/PD baselines, and
  /// generic instance code (OracleInstance::instance()).
  const Graph& graph() const;
  /// Static delays of window edges (the instance's d vector).
  const std::vector<double>& edge_delays() const;
  const ArcCostView& arc_costs() const;

  VertexId to_grid_vertex(VertexId wv) const {
    return grid_->vertex_at(positions_[wv]);
  }
  EdgeId to_grid_edge(EdgeId we) const;

  /// Dense per-window-vertex positions in grid coordinates (the SoA
  /// geometry plane behind WindowFutureCost's bounds).
  const std::vector<Point3>& positions() const { return positions_; }

  /// Window vertex for a grid vertex; kInvalidVertex if outside the box.
  VertexId from_grid_vertex(VertexId gv) const;

  /// Maps window-edge paths back to grid edges.
  std::vector<EdgeId> to_grid_edges(const std::vector<EdgeId>& wes) const;

 private:
  struct Stamp;
  const Stamp& stamped() const;

  const RoutingGrid* grid_;
  Rect box_;
  WindowLattice lattice_;
  std::vector<Point3> positions_;
  std::vector<double> costs_;
  std::unique_ptr<Stamp> stamp_;  ///< the lazily stamped form
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
