#include "replay.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <span>
#include <stdexcept>

#include "route/sharding.h"
#include "route/steiner_oracle.h"
#include "timing/slack.h"
#include "topology/prim_dijkstra.h"
#include "util/sparse_map.h"

namespace perfbench {

using namespace cdst;

void LayerStats::merge(const LayerStats& o) {
  window_s += o.window_s;
  window_ms.insert(window_ms.end(), o.window_ms.begin(), o.window_ms.end());
  windows += o.windows;
  window_vertices += o.window_vertices;
  window_arcs += o.window_arcs;
  window_bytes += o.window_bytes;
  price_snapshot_s += o.price_snapshot_s;
  solve_s += o.solve_s;
  solve_ms.insert(solve_ms.end(), o.solve_ms.begin(), o.solve_ms.end());
  merges += o.merges;
  labels_settled += o.labels_settled;
  labels_relaxed += o.labels_relaxed;
  completions_popped += o.completions_popped;
  completions_stale += o.completions_stale;
  topology_s += o.topology_s;
  embed_s += o.embed_s;
  embed_ms.insert(embed_ms.end(), o.embed_ms.begin(), o.embed_ms.end());
  embed_nodes += o.embed_nodes;
  oracle_busy_s += o.oracle_busy_s;
  commit_s += o.commit_s;
  multiplier_s += o.multiplier_s;
  batch_idle_frac.insert(batch_idle_frac.end(), o.batch_idle_frac.begin(),
                         o.batch_idle_frac.end());
}

std::vector<std::vector<EdgeId>> checkpoint_routes(const RouterCheckpoint& cp) {
  std::vector<std::vector<EdgeId>> routes;
  if (cp.route_offsets.empty()) return routes;
  routes.resize(cp.route_offsets.size() - 1);
  for (std::size_t i = 0; i + 1 < cp.route_offsets.size(); ++i) {
    routes[i].assign(cp.route_edges.begin() +
                         static_cast<std::ptrdiff_t>(cp.route_offsets[i]),
                     cp.route_edges.begin() +
                         static_cast<std::ptrdiff_t>(cp.route_offsets[i + 1]));
  }
  return routes;
}

namespace {

double ms_between(std::int64_t a_ns, std::int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) * 1e-6;
}

double s_between(std::int64_t a_ns, std::int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) * 1e-9;
}

/// Bytes of the arrays one RoutingWindow materializes, computed from its
/// sizes: per vertex the CSR offset, grid id and position; per arc the CSR
/// arc, SoA head/edge ids and the cost/delay/layer plane; per edge the
/// endpoints, grid id, cost and delay.
double window_bytes(const RoutingWindow& w) {
  const auto v = static_cast<double>(w.graph().num_vertices());
  const auto a = static_cast<double>(w.graph().num_arcs());
  const auto e = static_cast<double>(w.graph().num_edges());
  return v * (8 + 4 + 12) + a * (8 + 4 + 4 + 8 + 8 + 1) + e * (8 + 4 + 8 + 8);
}

/// The replay's clock: the tracer's when tracing, else a local epoch.
struct Stopwatch {
  Tracer* tracer;
  Clock::time_point epoch{Clock::now()};
  std::int64_t now() const {
    return tracer != nullptr
               ? tracer->now_ns()
               : std::chrono::duration_cast<std::chrono::nanoseconds>(
                     Clock::now() - epoch)
                     .count();
  }
};

}  // namespace

ReplayResult replay_round(const RoutingGrid& grid, const Netlist& netlist,
                          const RouterOptions& options,
                          const RouterCheckpoint& before, int round,
                          int round_offset, ThreadPool* pool,
                          Tracer* tracer, LayerStats* stats) {
  if (options.method != SteinerMethod::kCD &&
      options.method != SteinerMethod::kPD) {
    throw std::invalid_argument("replay_round: only the CD and PD oracles");
  }
  // The round index the seeds and the multiplier step are derived from.
  const int as_round = round + round_offset;
  const std::size_t num_nets = netlist.nets.size();
  const int lanes = pool != nullptr ? pool->concurrency() : 1;
  const Stopwatch clock{tracer};
  std::vector<LayerStats> lane_stats(static_cast<std::size_t>(lanes));
  LayerStats& main_stats = lane_stats[0];

  std::vector<std::size_t> sink_offset(num_nets + 1, 0);
  std::vector<double> rats;
  for (std::size_t i = 0; i < num_nets; ++i) {
    sink_offset[i + 1] = sink_offset[i] + netlist.nets[i].sinks.size();
    for (const SinkPin& s : netlist.nets[i].sinks) rats.push_back(s.rat);
  }

  // Committed state before the round; prices are a function of the routes
  // (the same rebuild Router::restore performs). Not part of any layer.
  ReplayResult result;
  result.routes = checkpoint_routes(before);
  result.sink_delays = before.sink_delays;
  std::vector<std::vector<EdgeId>>& routes = result.routes;
  CongestionCosts costs(grid, options.congestion);
  for (const std::vector<EdgeId>& r : routes) {
    if (!r.empty()) costs.add_usage(r, +1.0);
  }
  DenseStateBudget dense_budget(options.oracle.cd.dense_state_budget_bytes);
  std::vector<SolverScratch> scratch(static_cast<std::size_t>(lanes));
  const SolveControls controls{};

  const std::int64_t round_start = clock.now();
  ScopedSpan round_span(tracer, 0, "api.replay_round");

  // Lagrangean step at the round boundary.
  std::vector<double> weights = before.sink_weights;
  {
    ScopedSpan span(tracer, 0, "timing.multiplier_update", round_span.ref());
    const std::int64_t t0 = clock.now();
    if (as_round > 0 && before.weights_round != as_round) {
      const std::vector<double> slacks =
          compute_slacks(before.sink_delays, rats);
      update_delay_weights(slacks, options.weight_scale, options.weight_floor,
                           options.weight_ceiling, weights,
                           1.0 / std::sqrt(static_cast<double>(as_round)));
    }
    main_stats.multiplier_s += s_between(t0, clock.now());
  }

  std::vector<OracleOutcome> outcomes(num_nets);
  const auto route_net = [&](int lane, std::size_t i,
                             const RoundPricing* pricing, SpanRef parent) {
    LayerStats& ls = lane_stats[static_cast<std::size_t>(lane)];
    const Net& net = netlist.nets[i];
    const std::uint64_t id =
        static_cast<std::uint64_t>(round) * num_nets + i + 1;
    ScopedSpan net_span(tracer, lane, "route.net_oracle", parent, id);
    const std::int64_t n0 = clock.now();
    OracleParams p = options.oracle;
    p.seed = net_round_seed(options.seed, net.id, as_round);
    if (p.cd.shared_dense_budget == nullptr) {
      p.cd.shared_dense_budget = &dense_budget;
    }
    const std::span<const double> w(weights.data() + sink_offset[i],
                                     sink_offset[i + 1] - sink_offset[i]);

    std::int64_t t0 = clock.now();
    std::unique_ptr<OracleInstance> oi;
    {
      ScopedSpan span(tracer, lane, "grid.window_build", net_span.ref(), id);
      oi = std::make_unique<OracleInstance>(grid, costs, net, w, p, pricing);
    }
    double ms = ms_between(t0, clock.now());
    ls.window_s += ms * 1e-3;
    ls.window_ms.push_back(ms);
    ++ls.windows;
    ls.window_vertices += oi->window().graph().num_vertices();
    ls.window_arcs += oi->window().graph().num_arcs();
    ls.window_bytes += window_bytes(oi->window());

    OracleOutcome& out = outcomes[i];
    std::vector<EdgeId> window_edges;
    if (options.method == SteinerMethod::kCD) {
      SolverOptions opts = p.cd;
      opts.seed = p.seed;
      opts.future_cost = &oi->future_cost();
      t0 = clock.now();
      SolveResult r;
      {
        ScopedSpan span(tracer, lane, "core.cd_solve", net_span.ref(), id);
        r = solve_cost_distance(oi->instance(), opts,
                                &scratch[static_cast<std::size_t>(lane)],
                                &controls);
      }
      ms = ms_between(t0, clock.now());
      ls.solve_s += ms * 1e-3;
      ls.solve_ms.push_back(ms);
      ls.merges += r.stats.iterations;
      ls.labels_settled += r.stats.labels_settled;
      ls.labels_relaxed += r.stats.labels_relaxed;
      ls.completions_popped += r.stats.completions_popped;
      ls.completions_stale += r.stats.completions_stale;
      out.eval = r.eval;
      window_edges = r.tree.all_edges();
    } else {
      PrimDijkstraParams pd;
      pd.gamma = p.pd_gamma;
      pd.delay_per_unit = oi->delay_per_unit();
      pd.dbif = p.dbif;
      pd.eta = p.eta;
      t0 = clock.now();
      PlaneTopology topo;
      {
        ScopedSpan span(tracer, lane, "topology.build", net_span.ref(), id);
        topo = prim_dijkstra_topology(oi->root_xy(), oi->plane_sinks(), pd);
      }
      ls.topology_s += s_between(t0, clock.now());
      ls.embed_nodes += topo.num_nodes();
      t0 = clock.now();
      EmbedResult r;
      {
        ScopedSpan span(tracer, lane, "embed.dp", net_span.ref(), id);
        r = embed_topology(topo, oi->instance(), &controls);
      }
      ms = ms_between(t0, clock.now());
      ls.embed_s += ms * 1e-3;
      ls.embed_ms.push_back(ms);
      out.eval = r.eval;
      window_edges = r.tree.all_edges();
    }
    out.grid_edges = oi->window().to_grid_edges(window_edges);
    oi.reset();
    ls.oracle_busy_s += s_between(n0, clock.now());
  };

  // Routes nets [lo, hi) on every lane; each lane pulls the next net.
  const auto route_range = [&](std::size_t lo, std::size_t hi,
                               const std::vector<double>* snapshot) {
    std::atomic<std::size_t> next{lo};
    const auto lane_body = [&](std::size_t lane_index) {
      const int lane = static_cast<int>(lane_index);
      SparseMap<double> excluded;
      for (std::size_t i = next.fetch_add(1); i < hi; i = next.fetch_add(1)) {
        if (netlist.nets[i].sinks.empty()) continue;
        if (snapshot == nullptr) {
          route_net(lane, i, nullptr, round_span.ref());
          continue;
        }
        excluded.clear();
        for (const EdgeId ge : routes[i]) {
          const RoutingGrid::EdgeInfo& info = grid.edge_info(ge);
          excluded[info.resource] += info.width;
        }
        const RoundPricing pricing{*snapshot,
                                   routes[i].empty() ? nullptr : &excluded};
        route_net(lane, i, &pricing, round_span.ref());
      }
    };
    if (pool != nullptr) {
      pool->parallel_for(0, static_cast<std::size_t>(lanes), lane_body);
    } else {
      lane_body(0);
    }
  };

  const auto commit = [&](std::size_t i) {
    const Net& net = netlist.nets[i];
    if (net.sinks.empty()) return;
    OracleOutcome& out = outcomes[i];
    costs.add_usage(out.grid_edges, +1.0);
    routes[i] = std::move(out.grid_edges);
    for (std::size_t s = 0; s < net.sinks.size(); ++s) {
      result.sink_delays[sink_offset[i] + s] = out.eval.sink_delays[s];
    }
  };

  if (options.shards > 0) {
    std::vector<double> snapshot;
    {
      ScopedSpan span(tracer, 0, "grid.price_snapshot", round_span.ref());
      const std::int64_t t0 = clock.now();
      costs.fill_edge_costs(snapshot);
      main_stats.price_snapshot_s += s_between(t0, clock.now());
    }
    route_range(0, num_nets, &snapshot);
    ScopedSpan span(tracer, 0, "route.commit", round_span.ref());
    const std::int64_t t0 = clock.now();
    for (std::size_t i = 0; i < num_nets; ++i) {
      if (netlist.nets[i].sinks.empty()) continue;
      if (!routes[i].empty()) costs.add_usage(routes[i], -1.0);
      commit(i);
    }
    main_stats.commit_s += s_between(t0, clock.now());
  } else {
    const std::size_t batch =
        static_cast<std::size_t>(std::max(1, options.batch_size));
    for (std::size_t lo = 0; lo < num_nets; lo += batch) {
      const std::size_t hi = std::min(num_nets, lo + batch);
      std::int64_t t0 = clock.now();
      {
        ScopedSpan span(tracer, 0, "route.commit", round_span.ref());
        for (std::size_t i = lo; i < hi; ++i) {
          if (!routes[i].empty()) costs.add_usage(routes[i], -1.0);
        }
      }
      main_stats.commit_s += s_between(t0, clock.now());
      double busy_before = 0.0;
      for (const LayerStats& ls : lane_stats) busy_before += ls.oracle_busy_s;
      t0 = clock.now();
      route_range(lo, hi, nullptr);
      const double wall = s_between(t0, clock.now());
      double busy = -busy_before;
      for (const LayerStats& ls : lane_stats) busy += ls.oracle_busy_s;
      if (wall > 0.0) {
        main_stats.batch_idle_frac.push_back(1.0 - busy / (lanes * wall));
      }
      t0 = clock.now();
      {
        ScopedSpan span(tracer, 0, "route.commit", round_span.ref());
        for (std::size_t i = lo; i < hi; ++i) commit(i);
      }
      main_stats.commit_s += s_between(t0, clock.now());
    }
  }
  result.wall_s = s_between(round_start, clock.now());
  if (stats != nullptr) {
    for (const LayerStats& ls : lane_stats) stats->merge(ls);
  }
  return result;
}

}  // namespace perfbench
