/// \file future_cost.h
/// Admissible lower bounds ("future costs") for goal-oriented path searches
/// (paper Section III-C).
///
/// Congestion cost between two grid vertices is lower-bounded by the L1
/// distance times the cheapest per-gcell unit cost plus the layer difference
/// times the via cost (both evaluated at zero congestion, hence admissible
/// for any price state), optionally strengthened by ALT landmarks on the
/// grid's base costs. Delay is bounded by "L1-distance and the fastest
/// layer and wire type combination for that distance".

#pragma once

#include <memory>

#include "core/future_oracle.h"
#include "graph/landmarks.h"
#include "grid/routing_grid.h"

namespace cdst {

/// Fills the bound plane from the full grid: the grid's dense positions and
/// zero-congestion unit minima, plus the landmark tables when requested.
class FutureCost : public FutureCostOracle {
 public:
  /// \param num_landmarks 0 disables the ALT component. Landmark tables are
  ///        built on the grid's base costs (admissible for any price state)
  ///        with the batched avoid-farthest greedy of graph/landmarks.h.
  /// \param pool optional worker pool, borrowed for construction only: the
  ///        per-round landmark Dijkstras build in parallel. Never changes
  ///        which landmarks are picked or any bound returned.
  explicit FutureCost(const RoutingGrid& grid, std::size_t num_landmarks = 0,
                      ThreadPool* pool = nullptr);

 private:
  std::unique_ptr<Landmarks> landmarks_;  ///< owns the published tables
};

}  // namespace cdst
