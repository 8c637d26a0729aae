#include "grid/future_cost.h"

namespace cdst {

FutureCost::FutureCost(const RoutingGrid& grid, std::size_t num_landmarks,
                       ThreadPool* pool) {
  positions_ = grid.positions().data();
  min_unit_cost_ = grid.min_unit_cost();
  min_unit_delay_ = grid.min_unit_delay();
  min_via_cost_ = grid.min_via_cost();
  min_via_delay_ = grid.min_via_delay();
  if (num_landmarks > 0) {
    // Batch of 4 per greedy round: enough table-build parallelism for the
    // shared pool while keeping the avoid-farthest selection quality. The
    // batch is a constant (never derived from the pool size) so landmark
    // picks are identical with any pool, including none. The length functor
    // rides the grid's SoA base-cost plane, so the k full-graph Dijkstras
    // relax over contiguous arc strips.
    landmarks_ = std::make_unique<Landmarks>(
        grid.graph(), ArrayLength(grid.arc_costs()), num_landmarks, pool,
        /*batch=*/4);
    landmark_tables_ = landmarks_->tables().data();
    num_landmarks_ = landmarks_->count();
  }
}

}  // namespace cdst
