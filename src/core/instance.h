/// \file instance.h
/// The cost-distance Steiner tree problem instance (paper Section I).
///
/// An instance couples a graph with two independent edge metrics — congestion
/// cost c and delay d — a root, weighted sinks, and the bifurcation penalty
/// parameters (dbif, eta). The objective is Eq. (1) with the delay model of
/// Eq. (3):
///
///   cost(T) = sum_{e in T} c(e) + sum_{t in S} w(t) * delay_T(r, t)
///   delay_T(r,t) = sum_{e=(u,v) on the r-t path} ( d(e) + lambda_v * dbif )

#pragma once

#include <algorithm>
#include <vector>

#include "graph/arc_cost_view.h"
#include "graph/graph.h"
#include "graph/lattice.h"
#include "util/assert.h"

namespace cdst {

struct Terminal {
  VertexId vertex{kInvalidVertex};
  double weight{0.0};  ///< delay weight w(t); criticality from Lagrangean relaxation
};

/// The graph comes in one of two forms. Generic instances set `graph`,
/// `cost`, `delay` (and optionally `arc_costs`). Routing-window instances
/// may instead set `lattice` and `cost`: the window's closed form
/// (graph/lattice.h), which the cost-distance solver relaxes in place with
/// delays read off the lattice; `graph`, `delay` and `arc_costs` then stay
/// null. Code that needs a CSR graph (the embedding DP, exact enumeration,
/// instance I/O) takes the generic form only.
struct CostDistanceInstance {
  const Graph* graph{nullptr};
  const std::vector<double>* cost{nullptr};   ///< c(e), congestion cost
  const std::vector<double>* delay{nullptr};  ///< d(e), linear delay
  /// Optional SoA arc plane of the same (cost, delay) attributes over the
  /// same graph. When set, the solver's relax loop scans it with the
  /// blocked, branch-light kernel; when null it gathers per-edge. Results
  /// are bit-identical either way. Windows provide this for free; standalone
  /// callers can build one with ArcCostView(graph, cost, delay).
  const ArcCostView* arc_costs{nullptr};
  /// Closed-form window graph, in place of graph/delay/arc_costs.
  const WindowLattice* lattice{nullptr};
  VertexId root{kInvalidVertex};
  std::vector<Terminal> sinks;
  double dbif{0.0};  ///< total bifurcation delay penalty per branching
  double eta{0.5};   ///< penalty split freedom, 0 <= eta <= 1/2

  std::size_t num_terminals() const { return sinks.size() + 1; }

  double total_sink_weight() const {
    double w = 0.0;
    for (const Terminal& t : sinks) w += t.weight;
    return w;
  }

  /// Edge endpoints of whichever graph form the instance carries.
  GraphView view() const {
    return lattice != nullptr ? GraphView(*lattice) : GraphView(*graph);
  }

  /// d(e) of either form.
  double edge_delay(EdgeId e) const {
    return lattice != nullptr ? lattice->delay(e) : (*delay)[e];
  }

  void validate() const {
    CDST_CHECK(cost != nullptr);
    if (lattice != nullptr) {
      CDST_CHECK_MSG(graph == nullptr && delay == nullptr &&
                         arc_costs == nullptr,
                     "a lattice instance carries no CSR graph");
      CDST_CHECK(cost->size() == lattice->num_edges());
    } else {
      CDST_CHECK(graph != nullptr && delay != nullptr);
      CDST_CHECK(cost->size() == graph->num_edges());
      CDST_CHECK(delay->size() == graph->num_edges());
      if (arc_costs != nullptr) {
        CDST_CHECK_MSG(arc_costs->graph() == graph,
                       "arc_costs plane built over a different graph");
        CDST_CHECK(arc_costs->edge_cost().size() == graph->num_edges());
      }
    }
    const std::size_t n = view().num_vertices();
    CDST_CHECK(root < n);
    CDST_CHECK_MSG(!sinks.empty(), "instance needs at least one sink");
    CDST_CHECK(eta >= 0.0 && eta <= 0.5);
    CDST_CHECK(dbif >= 0.0);
    for (const Terminal& t : sinks) {
      CDST_CHECK(t.vertex < n);
      CDST_CHECK(t.weight >= 0.0);
    }
  }
};

/// beta(w, w') — the minimum possible weighted delay penalty when merging two
/// components with delay weights w and w' (paper Section II): the heavier
/// side receives the small share eta, the lighter side (1 - eta).
inline double bifurcation_beta(double w1, double w2, double dbif, double eta) {
  return dbif * (eta * std::max(w1, w2) + (1.0 - eta) * std::min(w1, w2));
}

/// Optimal penalty share lambda_x for the branch with subtree weight wx when
/// the sibling subtree weighs wy (Eq. (2)).
inline double optimal_lambda(double wx, double wy, double eta) {
  if (wx > wy) return eta;
  if (wx < wy) return 1.0 - eta;
  return 0.5;
}

}  // namespace cdst
