// Tests for the timing-constrained global router substrate: netlist
// generation, per-net oracles, metrics, and the Lagrangean routing loop.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/router.h"
#include "route/metrics.h"
#include "route/netlist_gen.h"
#include "route/router.h"
#include "route/steiner_oracle.h"
#include "topology/prim_dijkstra.h"
#include "util/rng.h"

namespace cdst {
namespace {

ChipConfig tiny_chip() {
  ChipConfig c;
  c.name = "tiny";
  c.num_nets = 60;
  c.num_layers = 4;
  c.nx = c.ny = 20;
  c.capacity = 10.0;
  c.seed = 7;
  return c;
}

/// Routes `rounds` Lagrangean rounds on a fresh session and returns the
/// final state.
RouterResult route_rounds(const RoutingGrid& grid, const Netlist& nl,
                          const RouterOptions& opts, int rounds) {
  Router session(grid, nl, opts);
  const Status st = session.run(rounds);
  EXPECT_TRUE(st.ok()) << st.to_string();
  return std::move(session).take_result();
}

TEST(NetlistGen, PaperChipTableShape) {
  const auto chips = paper_chip_configs(0.01);
  ASSERT_EQ(chips.size(), 8u);
  EXPECT_EQ(chips[0].name, "c1");
  EXPECT_EQ(chips[7].name, "c8");
  // Layer counts straight from Table III.
  const int expected_layers[] = {8, 9, 7, 15, 9, 9, 15, 15};
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(chips[i].num_layers, expected_layers[i]);
  }
  // Scaled net counts keep the ordering of Table III.
  for (std::size_t i = 1; i < 8; ++i) {
    EXPECT_GE(chips[i].num_nets, chips[i - 1].num_nets * 99 / 100);
  }
}

TEST(NetlistGen, DeterministicAndInBounds) {
  const ChipConfig c = tiny_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist a = generate_netlist(c, grid);
  const Netlist b = generate_netlist(c, grid);
  ASSERT_EQ(a.nets.size(), c.num_nets);
  ASSERT_EQ(a.nets.size(), b.nets.size());
  for (std::size_t i = 0; i < a.nets.size(); ++i) {
    EXPECT_EQ(a.nets[i].source, b.nets[i].source);
    ASSERT_EQ(a.nets[i].sinks.size(), b.nets[i].sinks.size());
    EXPECT_GE(a.nets[i].sinks.size(), 1u);
    for (std::size_t s = 0; s < a.nets[i].sinks.size(); ++s) {
      const SinkPin& pin = a.nets[i].sinks[s];
      EXPECT_EQ(pin.pos, b.nets[i].sinks[s].pos);
      EXPECT_GE(pin.pos.x, 0);
      EXPECT_LT(pin.pos.x, c.nx);
      EXPECT_GE(pin.pos.y, 0);
      EXPECT_LT(pin.pos.y, c.ny);
      EXPECT_EQ(pin.pos.z, 0);
      EXPECT_GT(pin.rat, 0.0);
    }
  }
}

TEST(NetlistGen, SizeDistributionHasMultiSinkTail) {
  ChipConfig c = tiny_chip();
  c.num_nets = 4000;
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  std::size_t small = 0, large = 0;
  for (const Net& n : nl.nets) {
    if (n.sinks.size() <= 2) ++small;
    if (n.sinks.size() >= 15) ++large;
  }
  EXPECT_GT(small, nl.nets.size() / 2);
  EXPECT_GT(large, nl.nets.size() / 200);
  EXPECT_LT(large, nl.nets.size() / 5);
}

TEST(SteinerOracle, AllMethodsRouteAndCommitUsage) {
  const ChipConfig c = tiny_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  CongestionCosts costs(grid);

  // Pick a multi-sink net.
  const Net* net = nullptr;
  for (const Net& n : nl.nets) {
    if (n.sinks.size() >= 4) {
      net = &n;
      break;
    }
  }
  ASSERT_NE(net, nullptr);
  const std::vector<double> weights(net->sinks.size(), 0.01);

  OracleParams params;
  params.dbif = 2.0;
  for (const SteinerMethod m : all_methods()) {
    const OracleInstance oi(grid, costs, *net, weights, params);
    const OracleOutcome out = run_method(oi, m, params);
    EXPECT_FALSE(out.grid_edges.empty()) << method_name(m);
    EXPECT_EQ(out.eval.sink_delays.size(), net->sinks.size());
    for (const double d : out.eval.sink_delays) EXPECT_GE(d, 0.0);
    // Usage commit + rip-up must round-trip to zero.
    costs.add_usage(out.grid_edges, +1.0);
    costs.add_usage(out.grid_edges, -1.0);
  }
  for (ResourceId r = 0; r < costs.num_resources(); ++r) {
    EXPECT_DOUBLE_EQ(costs.usage(r), 0.0);
  }
}

TEST(SteinerOracle, EmbeddedMethodsHonorAnExpiredDeadline) {
  // L1/SL/PD poll the deadline where they poll cancellation: before the
  // plane topology is built and per embedding-DP node.
  const ChipConfig c = tiny_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  CongestionCosts costs(grid);
  const Net* net = nullptr;
  for (const Net& n : nl.nets) {
    if (n.sinks.size() >= 4) {
      net = &n;
      break;
    }
  }
  ASSERT_NE(net, nullptr);
  const std::vector<double> weights(net->sinks.size(), 0.01);
  const OracleParams params;
  const OracleInstance oi(grid, costs, *net, weights, params);
  SolveControls expired;
  expired.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  for (const SteinerMethod m :
       {SteinerMethod::kL1, SteinerMethod::kSL, SteinerMethod::kPD}) {
    EXPECT_THROW(run_method(oi, m, params, nullptr, &expired),
                 SolveDeadlineExceeded)
        << method_name(m);
  }
  PrimDijkstraParams pd;
  pd.delay_per_unit = oi.delay_per_unit();
  const PlaneTopology topo =
      prim_dijkstra_topology(oi.root_xy(), oi.plane_sinks(), pd);
  EXPECT_THROW(embed_topology(topo, oi.instance(), &expired),
               SolveDeadlineExceeded);
}

TEST(SteinerOracle, InstanceMapsPinsIntoWindow) {
  const ChipConfig c = tiny_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  CongestionCosts costs(grid);
  const Net& net = nl.nets[0];
  const std::vector<double> weights(net.sinks.size(), 1.0);
  OracleParams params;
  const OracleInstance oi(grid, costs, net, weights, params);
  EXPECT_EQ(oi.instance().sinks.size(), net.sinks.size());
  EXPECT_EQ(oi.window().to_grid_vertex(oi.instance().root),
            grid.vertex_at(net.source));
  for (std::size_t s = 0; s < net.sinks.size(); ++s) {
    EXPECT_EQ(oi.window().to_grid_vertex(oi.instance().sinks[s].vertex),
              grid.vertex_at(net.sinks[s].pos));
  }
}

// ------------------------------------------------- lattice vs stamped CSR

/// Bit-level equality of two solves: tree, every evaluation field, and the
/// search statistics.
void expect_bit_identical(const SolveResult& a, const SolveResult& b,
                          const std::string& what) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  ASSERT_EQ(a.tree.num_nodes(), b.tree.num_nodes()) << what;
  for (std::size_t i = 0; i < a.tree.num_nodes(); ++i) {
    ASSERT_EQ(a.tree.nodes[i].graph_vertex, b.tree.nodes[i].graph_vertex)
        << what;
    ASSERT_EQ(a.tree.nodes[i].parent, b.tree.nodes[i].parent) << what;
    ASSERT_EQ(a.tree.nodes[i].up_path, b.tree.nodes[i].up_path) << what;
  }
  EXPECT_EQ(bits(a.eval.objective), bits(b.eval.objective)) << what;
  EXPECT_EQ(bits(a.eval.connection_cost), bits(b.eval.connection_cost))
      << what;
  EXPECT_EQ(bits(a.eval.weighted_delay), bits(b.eval.weighted_delay)) << what;
  EXPECT_EQ(bits(a.eval.total_delay_penalty),
            bits(b.eval.total_delay_penalty))
      << what;
  ASSERT_EQ(a.eval.sink_delays.size(), b.eval.sink_delays.size()) << what;
  for (std::size_t s = 0; s < a.eval.sink_delays.size(); ++s) {
    EXPECT_EQ(bits(a.eval.sink_delays[s]), bits(b.eval.sink_delays[s]))
        << what << " sink " << s;
  }
  ASSERT_EQ(a.eval.node_lambda.size(), b.eval.node_lambda.size()) << what;
  for (std::size_t n = 0; n < a.eval.node_lambda.size(); ++n) {
    EXPECT_EQ(bits(a.eval.node_lambda[n]), bits(b.eval.node_lambda[n]))
        << what << " node " << n;
  }
  EXPECT_EQ(a.eval.num_graph_edges, b.eval.num_graph_edges) << what;
  EXPECT_EQ(a.stats.iterations, b.stats.iterations) << what;
  EXPECT_EQ(a.stats.labels_settled, b.stats.labels_settled) << what;
  EXPECT_EQ(a.stats.labels_relaxed, b.stats.labels_relaxed) << what;
  EXPECT_EQ(a.stats.completions_popped, b.stats.completions_popped) << what;
  EXPECT_EQ(a.stats.completions_stale, b.stats.completions_stale) << what;
}

/// The bench_router fixture (240 nets on 28 x 28 x 4) after one sharded
/// round: committed routes, the frozen price snapshot and the per-net
/// sink weights the next round prices against.
struct RoundFixture {
  ChipConfig config;
  RoutingGrid grid;
  Netlist netlist;
  RouterResult routed;
  std::unique_ptr<CongestionCosts> costs;
  std::vector<double> snapshot;
  std::vector<std::size_t> sink_offset;

  std::span<const double> weights(std::size_t i) const {
    return {routed.sink_weights.data() + sink_offset[i],
            netlist.nets[i].sinks.size()};
  }
};

const RoundFixture& round_fixture() {
  static const RoundFixture* f = [] {
    ChipConfig c;
    c.name = "bench";
    c.num_nets = 240;
    c.num_layers = 4;
    c.nx = c.ny = 28;
    c.capacity = 12.0;
    c.seed = 3;
    auto* out = new RoundFixture{c, make_chip_grid(c), {}, {}, {}, {}, {}};
    out->netlist = generate_netlist(c, out->grid);
    RouterOptions opts;
    opts.method = SteinerMethod::kCD;
    opts.threads = 4;
    opts.shards = 4;
    out->routed = route_rounds(out->grid, out->netlist, opts, 1);
    out->costs = std::make_unique<CongestionCosts>(out->grid, opts.congestion);
    for (const std::vector<EdgeId>& r : out->routed.routes) {
      if (!r.empty()) out->costs->add_usage(r, +1.0);
    }
    out->snapshot = out->costs->edge_cost_vector();
    out->sink_offset.assign(out->netlist.nets.size() + 1, 0);
    for (std::size_t i = 0; i < out->netlist.nets.size(); ++i) {
      out->sink_offset[i + 1] =
          out->sink_offset[i] + out->netlist.nets[i].sinks.size();
    }
    return out;
  }();
  return *f;
}

SolveResult solve_cd(const OracleInstance& oi, const CostDistanceInstance& inst,
                     const OracleParams& params, SolverScratch* scratch) {
  SolverOptions opts = params.cd;
  opts.seed = params.seed;
  opts.future_cost = &oi.future_cost();
  return solve_cost_distance(inst, opts, scratch);
}

TEST(SteinerOracle, LatticeSolveBitIdenticalToStampedCsr) {
  const RoundFixture& f = round_fixture();
  SparseMap<double> excluded;
  SolverScratch scratch;
  std::size_t solved = 0;
  for (const double dbif : {0.0, 1.5}) {
    for (const bool exclude : {false, true}) {
      OracleParams params;
      params.dbif = dbif;
      for (std::size_t i = 0; i < f.netlist.nets.size(); ++i) {
        const Net& net = f.netlist.nets[i];
        if (net.sinks.empty()) continue;
        collect_route_usage(f.grid, f.routed.routes[i], excluded);
        const RoundPricing pricing{
            f.snapshot,
            exclude && !f.routed.routes[i].empty() ? &excluded : nullptr};
        params.seed = 1000 + i;
        const OracleInstance oi(f.grid, *f.costs, net, f.weights(i), params,
                                &pricing);
        const std::string what = "net " + std::to_string(i) + " dbif " +
                                 std::to_string(dbif) +
                                 (exclude ? " excluding" : "");
        const SolveResult lattice =
            solve_cd(oi, oi.lattice_instance(), params, &scratch);
        const SolveResult stamped =
            solve_cd(oi, oi.instance(), params, nullptr);
        expect_bit_identical(lattice, stamped, what);
        // run_method takes the lattice path and maps the same edges back.
        const OracleOutcome out = run_method(oi, SteinerMethod::kCD, params);
        EXPECT_EQ(out.grid_edges,
                  oi.window().to_grid_edges(stamped.tree.all_edges()))
            << what;
        ++solved;
      }
    }
  }
  EXPECT_GT(solved, 4 * 200u);
}

TEST(SteinerOracle, LatticeSolveOnWidestLayersMatchesStampedCsr) {
  // Layers with the most wire types a lattice allows: a vertex then has
  // 2 * kMaxLatticeWireTypes + 2 arcs, two full relax strips.
  std::vector<LayerSpec> layers = make_default_layer_stack(3);
  for (LayerSpec& l : layers) {
    l.wire_types.resize(kMaxLatticeWireTypes, l.wire_types.front());
    for (std::size_t k = 0; k < l.wire_types.size(); ++k) {
      l.wire_types[k].unit_cost = 1.0 + 0.5 * static_cast<double>(k);
      l.wire_types[k].delay_per_gcell /= 1.0 + 0.4 * static_cast<double>(k);
    }
  }
  const RoutingGrid grid(14, 12, layers, ViaSpec{});
  CongestionCosts costs(grid);
  Rng rng(17);
  std::vector<EdgeId> used;
  for (EdgeId e = 0; e < grid.graph().num_edges(); ++e) {
    if (rng.uniform(4) == 0) used.push_back(e);
  }
  costs.add_usage(used, +1.0);
  OracleParams params;
  params.dbif = 1.5;
  for (int n = 0; n < 8; ++n) {
    Net net;
    net.id = static_cast<std::uint32_t>(n);
    const auto pin = [&] {
      return Point3{static_cast<std::int32_t>(rng.uniform(14)),
                    static_cast<std::int32_t>(rng.uniform(12)), 0};
    };
    net.source = pin();
    for (int s = 0; s < 2 + n; ++s) net.sinks.push_back(SinkPin{pin(), 1.0});
    const std::vector<double> weights(net.sinks.size(), 0.3 + 0.1 * n);
    params.seed = 50 + static_cast<std::uint64_t>(n);
    const OracleInstance oi(grid, costs, net, weights, params);
    expect_bit_identical(solve_cd(oi, oi.lattice_instance(), params, nullptr),
                         solve_cd(oi, oi.instance(), params, nullptr),
                         "net " + std::to_string(n));
  }
}

TEST(SteinerOracle, ScratchReuseAcrossWindowSizesMatchesFreshScratch) {
  // Windows in big -> small -> big order, so one scratch's dense search
  // state serves searches over fewer vertices than it holds and then grows
  // again; each solve must equal a solve on a fresh scratch.
  const RoundFixture& f = round_fixture();
  OracleParams params;
  params.dbif = 1.5;
  std::vector<std::pair<std::size_t, std::size_t>> by_size;  // (n, net)
  for (std::size_t i = 0; i < f.netlist.nets.size(); ++i) {
    if (f.netlist.nets[i].sinks.empty()) continue;
    const OracleInstance oi(f.grid, *f.costs, f.netlist.nets[i],
                            f.weights(i), params);
    by_size.emplace_back(oi.window().num_vertices(), i);
  }
  std::sort(by_size.begin(), by_size.end());
  ASSERT_GE(by_size.size(), 6u);
  std::vector<std::size_t> order;
  for (std::size_t k = 0; k < 3; ++k) {
    order.push_back(by_size[by_size.size() - 1 - k].second);  // big
    order.push_back(by_size[k].second);                        // small
  }
  order.push_back(by_size.back().second);  // big again
  ASSERT_LT(by_size.front().first * 4, by_size.back().first);

  SolverScratch reused;
  for (const std::size_t i : order) {
    const OracleInstance oi(f.grid, *f.costs, f.netlist.nets[i],
                            f.weights(i), params);
    SolverScratch fresh;
    expect_bit_identical(solve_cd(oi, oi.lattice_instance(), params, &reused),
                         solve_cd(oi, oi.lattice_instance(), params, &fresh),
                         "net " + std::to_string(i));
  }
}

TEST(SteinerOracle, PricesAreFixedAtConstruction) {
  // The Tables I/II harness builds instances, then moves the congestion
  // state, then solves: every method must see the construction-time prices,
  // including the stamped form a baseline writes out on first use.
  const RoundFixture& f = round_fixture();
  CongestionCosts costs(f.grid);
  for (const std::vector<EdgeId>& r : f.routed.routes) {
    if (!r.empty()) costs.add_usage(r, +1.0);
  }
  OracleParams params;
  params.dbif = 1.5;
  std::size_t checked = 0;
  for (std::size_t i = 0; i < f.netlist.nets.size() && checked < 12; ++i) {
    const Net& net = f.netlist.nets[i];
    if (net.sinks.size() < 3) continue;
    const OracleInstance before(f.grid, costs, net, f.weights(i), params);
    std::vector<OracleOutcome> want;
    for (const SteinerMethod m : all_methods()) {
      want.push_back(run_method(before, m, params));
    }
    const OracleInstance oi(f.grid, costs, net, f.weights(i), params);
    // Congest everything the earlier solves used, heavily.
    for (const OracleOutcome& o : want) costs.add_usage(o.grid_edges, +8.0);
    for (std::size_t k = 0; k < all_methods().size(); ++k) {
      const SteinerMethod m = all_methods()[k];
      const OracleOutcome got = run_method(oi, m, params);
      EXPECT_EQ(got.grid_edges, want[k].grid_edges)
          << method_name(m) << " net " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.eval.objective),
                std::bit_cast<std::uint64_t>(want[k].eval.objective))
          << method_name(m) << " net " << i;
    }
    // A window built now does see the new prices.
    const OracleInstance after(f.grid, costs, net, f.weights(i), params);
    EXPECT_NE(after.window().edge_costs(), oi.window().edge_costs());
    for (const OracleOutcome& o : want) costs.add_usage(o.grid_edges, -8.0);
    ++checked;
  }
  EXPECT_EQ(checked, 12u);
}

TEST(Metrics, AceOfUniformCongestion) {
  const RoutingGrid grid(8, 8, make_default_layer_stack(3), ViaSpec{});
  CongestionCosts costs(grid);
  // Push every wire resource to exactly half utilization.
  for (EdgeId e = 0; e < grid.graph().num_edges(); ++e) {
    const auto& info = grid.edge_info(e);
    if (info.is_via || info.wire_type != 0) continue;
    const double cap = grid.resource_capacity(info.resource);
    std::vector<EdgeId> one{e};
    const int steps = static_cast<int>(cap / (2.0 * info.width));
    for (int i = 0; i < steps; ++i) costs.add_usage(one, +1.0);
  }
  const CongestionReport rep = compute_ace(costs);
  // All wire utilizations are ~50% (rounded down by integral steps).
  EXPECT_GT(rep.ace4, 35.0);
  EXPECT_LE(rep.ace4, 51.0);
  EXPECT_EQ(rep.overfull_edges, 0u);
}

TEST(Metrics, WireStatsSeparateViasFromWires) {
  const RoutingGrid grid(5, 5, make_default_layer_stack(3), ViaSpec{});
  std::vector<EdgeId> edges;
  std::size_t exp_vias = 0, exp_wires = 0;
  for (EdgeId e = 0; e < grid.graph().num_edges() && edges.size() < 30; ++e) {
    edges.push_back(e);
    if (grid.edge_info(e).is_via) {
      ++exp_vias;
    } else {
      ++exp_wires;
    }
  }
  const WireStats s = compute_wire_stats(grid, {edges});
  EXPECT_EQ(s.num_vias, exp_vias);
  EXPECT_DOUBLE_EQ(s.wirelength_gcells, static_cast<double>(exp_wires));
}

TEST(Router, RoutesTinyChipWithEveryMethod) {
  const ChipConfig c = tiny_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  for (const SteinerMethod m : all_methods()) {
    RouterOptions opts;
    opts.method = m;
    const RouterResult r = route_rounds(grid, nl, opts, 2);
    EXPECT_EQ(r.nets_routed, nl.nets.size()) << method_name(m);
    EXPECT_EQ(r.routes.size(), nl.nets.size());
    EXPECT_GT(r.wires.wirelength_gcells, 0.0);
    EXPECT_GT(r.wires.num_vias, 0u);
    EXPECT_GT(r.congestion.ace4, 0.0);
    EXPECT_EQ(r.sink_delays.size(), nl.num_sinks());
    // Delays are zero only for sinks coincident with their source.
    std::size_t positive = 0;
    for (const double d : r.sink_delays) {
      EXPECT_GE(d, 0.0);
      if (d > 0.0) ++positive;
    }
    EXPECT_GT(positive, nl.num_sinks() / 2);
  }
}

TEST(Router, DeterministicGivenSeed) {
  const ChipConfig c = tiny_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  RouterOptions opts;
  opts.method = SteinerMethod::kCD;
  opts.seed = 5;
  const RouterResult a = route_rounds(grid, nl, opts, 2);
  const RouterResult b = route_rounds(grid, nl, opts, 2);
  EXPECT_DOUBLE_EQ(a.timing.worst_slack, b.timing.worst_slack);
  EXPECT_DOUBLE_EQ(a.timing.total_negative_slack,
                   b.timing.total_negative_slack);
  EXPECT_DOUBLE_EQ(a.wires.wirelength_gcells, b.wires.wirelength_gcells);
  EXPECT_EQ(a.wires.num_vias, b.wires.num_vias);
}

TEST(Router, RipUpAndRerouteImprovesTiming) {
  // More Lagrangean rounds must not leave TNS dramatically worse; typically
  // they improve it because weights steer critical nets to faster wires.
  ChipConfig c = tiny_chip();
  c.num_nets = 120;
  c.rat_tightness = 1.1;  // hard timing
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  RouterOptions opts;
  opts.method = SteinerMethod::kCD;
  const RouterResult r1 = route_rounds(grid, nl, opts, 1);
  const RouterResult r4 = route_rounds(grid, nl, opts, 4);
  // TNS is <= 0; "not worse" means closer to zero (small tolerance for the
  // congestion/timing trade-off the multipliers negotiate).
  EXPECT_GE(r4.timing.total_negative_slack,
            r1.timing.total_negative_slack * 1.05)
      << "Lagrangean rounds degraded timing (r1 TNS "
      << r1.timing.total_negative_slack << ", r4 TNS "
      << r4.timing.total_negative_slack << ")";
}

TEST(Router, ThreadedRoutingIsDeterministic) {
  const ChipConfig c = tiny_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  RouterOptions opts;
  opts.method = SteinerMethod::kCD;
  opts.threads = 4;
  opts.batch_size = 16;
  const RouterResult a = route_rounds(grid, nl, opts, 2);
  const RouterResult b = route_rounds(grid, nl, opts, 2);
  EXPECT_DOUBLE_EQ(a.timing.total_negative_slack,
                   b.timing.total_negative_slack);
  EXPECT_DOUBLE_EQ(a.wires.wirelength_gcells, b.wires.wirelength_gcells);
  EXPECT_EQ(a.wires.num_vias, b.wires.num_vias);
}

TEST(Router, ResultsAreThreadCountInvariant) {
  // RouterOptions::threads documents that results are deterministic and
  // independent of the thread count: the batch structure (not the worker
  // pool) defines which nets price against which snapshot. Routing the same
  // netlist with 1, 2 and 4 threads must produce bit-identical routes and
  // sink delays.
  const ChipConfig c = tiny_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  RouterOptions opts;
  opts.method = SteinerMethod::kCD;
  opts.batch_size = 16;
  opts.threads = 1;
  const RouterResult one = route_rounds(grid, nl, opts, 2);
  opts.threads = 4;
  const RouterResult four = route_rounds(grid, nl, opts, 2);
  opts.threads = 2;
  const RouterResult two = route_rounds(grid, nl, opts, 2);

  for (const RouterResult* other : {&four, &two}) {
    ASSERT_EQ(one.routes.size(), other->routes.size());
    for (std::size_t i = 0; i < one.routes.size(); ++i) {
      EXPECT_EQ(one.routes[i], other->routes[i]) << "net " << i;
    }
    ASSERT_EQ(one.sink_delays.size(), other->sink_delays.size());
    for (std::size_t s = 0; s < one.sink_delays.size(); ++s) {
      EXPECT_DOUBLE_EQ(one.sink_delays[s], other->sink_delays[s])
          << "sink " << s;
    }
  }
}

TEST(Router, EmbeddedMethodsAreThreadCountInvariant) {
  // The L1/SL/PD oracles fan their embedding DP out over the router's pool
  // (nested inside the batch or shard lanes): that may not change a bit of
  // the result, batched or sharded.
  const ChipConfig c = tiny_chip();
  const RoutingGrid grid = make_chip_grid(c);
  const Netlist nl = generate_netlist(c, grid);
  for (const SteinerMethod m :
       {SteinerMethod::kL1, SteinerMethod::kSL, SteinerMethod::kPD}) {
    for (const int shards : {0, 4}) {
      RouterOptions opts;
      opts.method = m;
      opts.batch_size = 16;
      opts.shards = shards;
      opts.threads = 1;
      const RouterResult one = route_rounds(grid, nl, opts, 2);
      for (const int threads : {2, 4}) {
        SCOPED_TRACE(std::string(method_name(m)) + ", shards " +
                     std::to_string(shards) + ", threads " +
                     std::to_string(threads));
        opts.threads = threads;
        const RouterResult other = route_rounds(grid, nl, opts, 2);
        EXPECT_EQ(one.routes, other.routes);
        EXPECT_EQ(one.sink_delays, other.sink_delays);
        EXPECT_EQ(one.sink_weights, other.sink_weights);
      }
    }
  }
}

}  // namespace
}  // namespace cdst
