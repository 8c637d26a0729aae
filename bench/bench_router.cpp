// Microbenchmark for the router's round disciplines: the legacy batched
// rip-up & re-route loop (shards = 0) against spatially sharded rounds
// (shards >= 1, route/sharding.h), plus the L1/SL/PD baselines' embedding
// DP in batched rounds, the DP of the largest net alone, serial and on a
// pool (BM_Embed_Heavy), the per-net window build and stamp a baseline net
// pays (BM_Router_Window), and the per-net CD oracle, window plus lattice
// solve (BM_Router_CdOracle).
// Sharded rounds freeze the price plane
// once per round — windows gather prices instead of exponentiating per
// edge — and fan shards out across the worker pool, so they win twice:
// less work per net even single-threaded, and chunk-parallel scaling with
// the shard count on multi-core hosts. Before the timed rows run, main()
// verifies that sharded results are bit-identical at 1 and 4 shards (the
// documented shard-count invariance).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/cdst.h"
#include "dist/transport.h"
#include "route/netlist_gen.h"
#include "route/steiner_oracle.h"
#include "topology/prim_dijkstra.h"
#include "util/sparse_map.h"

#if defined(CDST_SHARD_WORKER_PATH)
#include "dist/subprocess_transport.h"
#endif

namespace {

using namespace cdst;

struct Fixture {
  ChipConfig config;
  RoutingGrid grid;
  Netlist netlist;
};

const Fixture& fixture() {
  static const Fixture* f = [] {
    ChipConfig c;
    c.name = "bench";
    c.num_nets = 240;
    c.num_layers = 4;
    c.nx = c.ny = 28;
    c.capacity = 12.0;
    c.seed = 3;
    auto* out = new Fixture{c, make_chip_grid(c), {}};
    out->netlist = generate_netlist(c, out->grid);
    return out;
  }();
  return *f;
}

RouterOptions options_for(int shards) {
  RouterOptions opts;
  opts.method = SteinerMethod::kCD;
  opts.threads = 4;
  opts.shards = shards;
  return opts;
}

RouterResult route_rounds(int shards, int rounds) {
  const Fixture& f = fixture();
  Router session(f.grid, f.netlist, options_for(shards));
  const Status st = session.run(rounds);
  if (!st.ok()) {
    std::fprintf(stderr, "bench_router: run failed: %s\n",
                 st.to_string().c_str());
    std::abort();
  }
  return std::move(session).take_result();
}

/// arg 0: the legacy batched discipline; arg >= 1: sharded rounds with that
/// many grid tiles. All rows run 2 Lagrangean rounds on a 4-worker pool.
void BM_Router_Sharded(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  const Fixture& f = fixture();
  const RouterOptions opts = options_for(shards);
  for (auto _ : state) {
    Router session(f.grid, f.netlist, opts);
    benchmark::DoNotOptimize(session.run(2));
    benchmark::DoNotOptimize(session.result());
  }
  state.SetLabel(shards == 0 ? "batched" : "sharded");
}
BENCHMARK(BM_Router_Sharded)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// The embedding-DP layer: the baselines' oracle (a plane topology embedded
/// optimally by embed/embedder) inside batched rounds (shards = 0), the
/// discipline the Table IV harness runs them in. arg 0: L1, 1: SL, 2: PD.
/// Same fixture, pool and round count as BM_Router_Sharded, so the rows
/// compare against its CD rows directly.
void BM_Router_Embedded(benchmark::State& state) {
  constexpr SteinerMethod kMethods[] = {SteinerMethod::kL1, SteinerMethod::kSL,
                                        SteinerMethod::kPD};
  const SteinerMethod method = kMethods[state.range(0)];
  const Fixture& f = fixture();
  RouterOptions opts = options_for(/*shards=*/0);
  opts.method = method;
  for (auto _ : state) {
    Router session(f.grid, f.netlist, opts);
    benchmark::DoNotOptimize(session.run(2));
    benchmark::DoNotOptimize(session.result());
  }
  state.SetLabel(method_name(method));
}
BENCHMARK(BM_Router_Embedded)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

/// The layer the nested pool speeds up: the embedding DP of the fixture's
/// largest net (largest window, then most sinks) under its PD
/// topology, on a fresh price plane with the session's initial
/// multipliers. arg 1: serial (no pool); arg 4: each height level fanned
/// out on a 4-lane pool. The instance and topology are built untimed.
void BM_Embed_Heavy(benchmark::State& state) {
  const int lanes = static_cast<int>(state.range(0));
  const Fixture& f = fixture();
  const RouterOptions opts = options_for(/*shards=*/0);
  const RouterResult initial = Router(f.grid, f.netlist, opts).result();
  const CongestionCosts costs(f.grid, opts.congestion);
  const auto oracle = [&](std::size_t i, std::size_t offset) {
    const Net& net = f.netlist.nets[i];
    return OracleInstance(
        f.grid, costs, net,
        std::span<const double>(initial.sink_weights.data() + offset,
                                net.sinks.size()),
        opts.oracle);
  };
  std::size_t heavy = 0;
  std::size_t heavy_offset = 0;
  std::pair<std::size_t, std::size_t> heavy_size{0, 0};
  for (std::size_t i = 0, offset = 0; i < f.netlist.nets.size(); ++i) {
    const std::size_t sinks = f.netlist.nets[i].sinks.size();
    if (sinks > 0) {
      const std::pair<std::size_t, std::size_t> size(
          oracle(i, offset).window().num_vertices(), sinks);
      if (size > heavy_size) {
        heavy = i;
        heavy_offset = offset;
        heavy_size = size;
      }
    }
    offset += sinks;
  }
  const Net& net = f.netlist.nets[heavy];
  const OracleInstance oi = oracle(heavy, heavy_offset);
  PrimDijkstraParams pd;
  pd.gamma = opts.oracle.pd_gamma;
  pd.delay_per_unit = oi.delay_per_unit();
  pd.dbif = opts.oracle.dbif;
  pd.eta = opts.oracle.eta;
  const PlaneTopology topo =
      prim_dijkstra_topology(oi.root_xy(), oi.plane_sinks(), pd);

  std::unique_ptr<ThreadPool> pool;
  SolveControls controls;
  if (lanes > 1) {
    pool = std::make_unique<ThreadPool>(lanes);
    controls.pool = pool.get();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(embed_topology(topo, oi.instance(), &controls));
  }
  state.counters["sinks"] = static_cast<double>(net.sinks.size());
  state.counters["window_vertices"] =
      static_cast<double>(oi.window().num_vertices());
  state.SetLabel(lanes > 1 ? "pooled" : "serial");
}
BENCHMARK(BM_Embed_Heavy)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

/// The state after one sharded round of the BM_Router_Sharded fixture: the
/// frozen price snapshot, each net's own committed usage, and the sink
/// weights the next round prices against. Built untimed.
struct RoundSnapshot {
  RouterOptions opts{options_for(4)};
  RouterResult routed;
  std::unique_ptr<CongestionCosts> costs;
  std::vector<double> snapshot;
  std::vector<SparseMap<double>> excluded;
  std::vector<std::size_t> sink_offset;

  RoundSnapshot() {
    const Fixture& f = fixture();
    routed = route_rounds(/*shards=*/4, /*rounds=*/1);
    costs = std::make_unique<CongestionCosts>(f.grid, opts.congestion);
    for (const std::vector<EdgeId>& r : routed.routes) {
      if (!r.empty()) costs->add_usage(r, +1.0);
    }
    snapshot = costs->edge_cost_vector();
    const std::size_t num_nets = f.netlist.nets.size();
    excluded.resize(num_nets);
    sink_offset.assign(num_nets + 1, 0);
    for (std::size_t i = 0; i < num_nets; ++i) {
      collect_route_usage(f.grid, routed.routes[i], excluded[i]);
      sink_offset[i + 1] = sink_offset[i] + f.netlist.nets[i].sinks.size();
    }
  }

  /// Net i's oracle instance, priced as the next sharded round prices it.
  OracleInstance oracle(std::size_t i) const {
    const Fixture& f = fixture();
    const RoundPricing pricing{
        snapshot, routed.routes[i].empty() ? nullptr : &excluded[i]};
    return OracleInstance(
        f.grid, *costs, f.netlist.nets[i],
        std::span<const double>(routed.sink_weights.data() + sink_offset[i],
                                f.netlist.nets[i].sinks.size()),
        opts.oracle, &pricing);
  }
};

/// The window layer of a baseline (L1/SL/PD) net: builds the routing window
/// (through OracleInstance, the unit a router round builds per net) of
/// every net of the BM_Router_Sharded fixture, priced from the frozen
/// snapshot of the state after one sharded round, each net's own committed
/// usage excluded, and stamps its CSR form and arc plane (what the
/// embedding DP reads). Single-threaded.
void BM_Router_Window(benchmark::State& state) {
  const Fixture& f = fixture();
  const RoundSnapshot round;
  std::size_t windows = 0, arcs = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < f.netlist.nets.size(); ++i) {
      if (f.netlist.nets[i].sinks.empty()) continue;
      const OracleInstance oi = round.oracle(i);
      benchmark::DoNotOptimize(oi.window().arc_costs().arc_cost_data());
      benchmark::ClobberMemory();
      ++windows;
      arcs += oi.window().graph().num_arcs();
    }
  }
  state.counters["windows"] = benchmark::Counter(
      static_cast<double>(windows), benchmark::Counter::kIsRate);
  state.counters["arcs_per_window"] =
      windows == 0 ? 0.0
                   : static_cast<double>(arcs) / static_cast<double>(windows);
}
BENCHMARK(BM_Router_Window)->Unit(benchmark::kMillisecond);

/// The per-net CD oracle of a sharded round: for every net of the same
/// fixture and snapshot as BM_Router_Window, the window build plus the
/// cost-distance solve on its lattice (run_method), one recycled scratch.
/// Single-threaded.
void BM_Router_CdOracle(benchmark::State& state) {
  const Fixture& f = fixture();
  const RoundSnapshot round;
  SolverScratch scratch;
  std::size_t nets = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < f.netlist.nets.size(); ++i) {
      if (f.netlist.nets[i].sinks.empty()) continue;
      const OracleInstance oi = round.oracle(i);
      benchmark::DoNotOptimize(
          run_method(oi, SteinerMethod::kCD, round.opts.oracle, &scratch));
      ++nets;
    }
  }
  state.counters["nets"] = benchmark::Counter(static_cast<double>(nets),
                                              benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Router_CdOracle)->Unit(benchmark::kMillisecond);

/// Sharded rounds across the transport tiers (dist/transport.h): arg 0 runs
/// the rounds directly, 1 through the InProcessTransport serialization
/// loopback (the wire tax: encode + parse every boundary, zero IO), 2
/// through SubprocessTransport's worker pool (the wire tax plus pipe
/// framing and real process hops). Transports are constructed outside the
/// timed loop — the rows measure steady-state rounds, not worker spawns.
void BM_Router_Transport(benchmark::State& state) {
  const int tier = static_cast<int>(state.range(0));
  const Fixture& f = fixture();
  RouterOptions opts = options_for(4);

  dist::InProcessTransport in_process;
#if defined(CDST_SHARD_WORKER_PATH)
  dist::SubprocessTransportOptions sopts;
  sopts.worker_path = CDST_SHARD_WORKER_PATH;
  sopts.workers = 4;
  dist::SubprocessTransport subprocess(sopts);
#endif
  if (tier == 1) {
    opts.transport = &in_process;
  } else if (tier == 2) {
#if defined(CDST_SHARD_WORKER_PATH)
    opts.transport = &subprocess;
#else
    state.SkipWithError("cdst_shard_worker not built on this platform");
    return;
#endif
  }

  for (auto _ : state) {
    Router session(f.grid, f.netlist, opts);
    benchmark::DoNotOptimize(session.run(2));
    benchmark::DoNotOptimize(session.result());
  }
  state.SetLabel(tier == 0   ? "direct"
                 : tier == 1 ? "in-process-transport"
                             : "subprocess-transport");
}
BENCHMARK(BM_Router_Transport)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

bool verify_shard_count_invariance() {
  const RouterResult one = route_rounds(/*shards=*/1, /*rounds=*/2);
  const RouterResult four = route_rounds(/*shards=*/4, /*rounds=*/2);
  if (one.routes != four.routes || one.sink_delays != four.sink_delays) {
    std::fprintf(stderr,
                 "bench_router: sharded results are NOT bit-identical "
                 "between 1 and 4 shards\n");
    return false;
  }
  std::fprintf(stderr,
               "bench_router: verified bit-identical routes at 1 and 4 "
               "shards (%zu nets)\n",
               one.routes.size());
  return true;
}

}  // namespace

// Emits machine-readable results to BENCH_router.json by default (CI diffs
// it against the previous main-branch artifact alongside BENCH_cd_scaling);
// an explicit --benchmark_out= flag takes precedence.
int main(int argc, char** argv) {
  if (!verify_shard_count_invariance()) return 1;
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).starts_with("--benchmark_out=")) {
      has_out = true;
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_router.json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int ac = static_cast<int>(args.size());
  benchmark::Initialize(&ac, args.data());
  if (benchmark::ReportUnrecognizedArguments(ac, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
