// Traced replay of one Lagrangean router round through public calls.
//
// Given the committed state a Router held before round k (its checkpoint),
// the replay redoes what Router::run(1) does for that round, one layer call
// at a time, and times each call from outside:
//
//   timing.multiplier_update  compute_slacks + update_delay_weights (1/sqrt k)
//   grid.price_snapshot       CongestionCosts::fill_edge_costs (sharded)
//   grid.window_build         OracleInstance construction, per net
//   core.cd_solve             solve_cost_distance with a per-lane scratch
//   topology.build            prim_dijkstra_topology (PD oracle)
//   embed.dp                  embed_topology (PD oracle)
//   route.commit              net-order add_usage (and batch rip-up)
//
// Sharded rounds price every net against the round snapshot minus its own
// usage; batched rounds rip a batch up and price it live. The caller
// compares the replayed routes and delays with the Router's own round, so
// the layer numbers always describe the work the timed rounds did.

#pragma once

#include <cstddef>
#include <vector>

#include "api/cdst.h"
#include "trace.h"

namespace perfbench {

/// Layer counters and times accumulated over replayed rounds.
struct LayerStats {
  double window_s{0.0};
  std::vector<double> window_ms;
  std::size_t windows{0};
  std::size_t window_vertices{0};
  std::size_t window_arcs{0};
  double window_bytes{0.0};  ///< computed from window sizes, not measured
  double price_snapshot_s{0.0};

  double solve_s{0.0};
  std::vector<double> solve_ms;
  std::size_t merges{0};
  std::size_t labels_settled{0};
  std::size_t labels_relaxed{0};
  std::size_t completions_popped{0};
  std::size_t completions_stale{0};

  double topology_s{0.0};
  double embed_s{0.0};
  std::vector<double> embed_ms;
  std::size_t embed_nodes{0};

  double oracle_busy_s{0.0};  ///< sum of per-net oracle spans
  double commit_s{0.0};
  double multiplier_s{0.0};
  /// Batched rounds: per batch, 1 - oracle busy / (lanes * batch wall).
  std::vector<double> batch_idle_frac;

  void merge(const LayerStats& other);
};

struct ReplayResult {
  std::vector<std::vector<cdst::EdgeId>> routes;
  std::vector<double> sink_delays;
  double wall_s{0.0};
};

/// Replays round `round` (>= 1) of a CD or PD session from the state in
/// `before` (std::invalid_argument for other oracles). `pool` null runs
/// serially on the calling thread (lane 0). `round_offset` shifts the round
/// index the per-net seeds and the multiplier step are derived from; nonzero
/// values exist only to show that the identity check catches a replay that
/// did different work. `tracer` and `stats` may be null.
ReplayResult replay_round(const cdst::RoutingGrid& grid,
                          const cdst::Netlist& netlist,
                          const cdst::RouterOptions& options,
                          const cdst::RouterCheckpoint& before, int round,
                          int round_offset, cdst::ThreadPool* pool,
                          Tracer* tracer, LayerStats* stats);

/// Flattens checkpoint routes back to per-net edge lists.
std::vector<std::vector<cdst::EdgeId>> checkpoint_routes(
    const cdst::RouterCheckpoint& cp);

}  // namespace perfbench
