/// \file future_oracle.h
/// Lower-bound plane consumed by the cost-distance solver's goal-oriented
/// search (Section III-C) and Steiner placement (III-D).
///
/// FutureCostOracle is one concrete type: a dense per-vertex position array,
/// the four per-unit minima the L1 bound formulas combine, and optionally ALT
/// landmark tables (graph/landmarks.h) that strengthen the cost side. The
/// solver evaluates every bound inline from this data — one position load
/// and a few multiply-adds, plus one dense table load per landmark. Vertex
/// ids are those of the *solver's* graph: the full routing grid or a routing
/// window. The grid oracles only fill the plane in (grid::FutureCost,
/// grid::WindowFutureCost); none carries a bound formula of its own.

#pragma once

#include <cstddef>
#include <vector>

#include "geom/point.h"
#include "graph/graph.h"

namespace cdst {

class FutureCostOracle {
 public:
  /// Plane position of a vertex (for L1 nearest-target bounds).
  Point2 xy(VertexId v) const { return positions_[v].xy(); }

  /// Admissible lower bound on the congestion cost of any a-b path: the
  /// geometric floor, raised by each landmark's triangle-inequality bound
  /// |t[a] - t[b]|.
  double cost_lb(VertexId a, VertexId b) const {
    const Point3& pa = positions_[a];
    const Point3& pb = positions_[b];
    double geo = static_cast<double>(l1_distance(pa, pb)) * min_unit_cost_ +
                 std::abs(pa.z - pb.z) * min_via_cost_;
    for (std::size_t i = 0; i < num_landmarks_; ++i) {
      const double d = landmark_tables_[i][a] - landmark_tables_[i][b];
      const double ad = d < 0 ? -d : d;
      if (ad > geo) geo = ad;
    }
    return geo;
  }

  /// Admissible lower bound on the delay of any a-b path.
  double delay_lb(VertexId a, VertexId b) const {
    const Point3& pa = positions_[a];
    const Point3& pb = positions_[b];
    return static_cast<double>(l1_distance(pa, pb)) * min_unit_delay_ +
           std::abs(pa.z - pb.z) * min_via_delay_;
  }

  /// Dense positions, indexed by solver VertexId.
  const Point3* positions() const { return positions_; }
  /// Cheapest congestion cost per plane unit (any layer/wire type).
  double min_unit_cost() const { return min_unit_cost_; }
  /// Fastest delay per plane unit (any layer/wire type).
  double min_unit_delay() const { return min_unit_delay_; }
  double min_via_cost() const { return min_via_cost_; }
  double min_via_delay() const { return min_via_delay_; }
  /// ALT landmark distance tables (dense per-vertex, one per landmark);
  /// null when num_landmarks() is 0.
  const std::vector<double>* landmark_tables() const {
    return landmark_tables_;
  }
  std::size_t num_landmarks() const { return num_landmarks_; }

 protected:
  FutureCostOracle() = default;

  const Point3* positions_{nullptr};
  double min_unit_cost_{0.0};
  double min_unit_delay_{0.0};
  double min_via_cost_{0.0};
  double min_via_delay_{0.0};
  const std::vector<double>* landmark_tables_{nullptr};  ///< borrowed
  std::size_t num_landmarks_{0};
};

}  // namespace cdst
