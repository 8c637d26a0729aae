// serve_mixed: one 4-lane Engine behind one deficit-WRR EngineServer, in a
// closed loop pumped by one thread.
//
//   3 router tenants  CD oracle on c1..c3 (scale 0.002), shards = 2, dbif > 0;
//                     c1 has weight 2. Each keeps one round outstanding
//                     until it has routed kRouterRounds rounds.
//   2 solver tenants  each keeps one job outstanding until it has solved
//                     kJobsPerSolver jobs, drawn from a pool of full-grid
//                     instances (48x48x5, 48 sinks, dbif > 0) solved with a
//                     landmark (ALT) FutureCost.
//
// The budgets are balanced so that router and solver slices interleave for
// the whole drain: a solver job's latency is one scheduling cycle, mostly
// the routers' parallel rounds, instead of a solver-only tail at the end.
//
// Untraced runs repeat set-up + drain until the time budget is spent and
// report medians; the served results of every repetition must equal the
// first, and the first must be bit-identical to serial Router / CdSolver
// references computed after the timed repetitions. Traced runs drain once
// with every EngineServer::step() timed and classified by tenant kind, then
// solve the same jobs serially for the core-layer numbers.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "common.h"
#include "grid/future_cost.h"
#include "serve/serve.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace cdst;

constexpr int kRouterRounds = 12;
constexpr std::size_t kJobsPerSolver = 12;
constexpr std::size_t kSolverTenants = 2;
constexpr std::size_t kInstancePool = 8;
constexpr std::size_t kInstanceSinks = 48;
constexpr int kInstanceSide = 48;
constexpr int kInstanceLayers = 5;
constexpr std::size_t kLandmarks = 8;

struct RouterTenant {
  ChipConfig config;
  RoutingGrid grid;
  Netlist netlist;
  RouterOptions options;
  int weight{1};
};

/// One standalone full-grid instance; owns what the instance points into.
struct Instance {
  std::vector<double> cost;
  std::vector<double> delay;
  ArcCostView plane;
  CostDistanceInstance inst;
};

/// Everything a repetition sets up (the Engine and server live beside it).
struct World {
  std::vector<std::unique_ptr<RouterTenant>> routers;
  std::unique_ptr<RoutingGrid> grid;
  std::unique_ptr<FutureCost> future_cost;
  std::vector<std::unique_ptr<Instance>> instances;
  SolverOptions solver_options;
};

std::unique_ptr<World> make_world(std::uint64_t seed, Engine& engine) {
  auto world = std::make_unique<World>();
  const std::vector<ChipConfig> chips = paper_chip_configs(0.002);
  for (std::size_t c = 0; c < 3; ++c) {
    RoutingGrid grid = make_chip_grid(chips[c]);
    auto t = std::make_unique<RouterTenant>(
        RouterTenant{chips[c], std::move(grid), {}, {}, c == 0 ? 2 : 1});
    t->netlist = generate_netlist(t->config, t->grid);
    perturb_netlist(t->netlist, t->grid, seed);
    t->options.method = SteinerMethod::kCD;
    t->options.shards = 2;
    t->options.oracle.dbif = chip_dbif(chips[c]);
    t->options.seed = seed;
    world->routers.push_back(std::move(t));
  }

  ChipConfig grid_config;
  grid_config.nx = grid_config.ny = kInstanceSide;
  grid_config.num_layers = kInstanceLayers;
  world->grid = std::make_unique<RoutingGrid>(make_chip_grid(grid_config));
  world->future_cost = std::make_unique<FutureCost>(
      *world->grid, kLandmarks, &engine.thread_pool());
  world->solver_options.future_cost = world->future_cost.get();
  world->solver_options.seed = seed;

  // Base instances come from fixed seeds; the workload seed perturbs every
  // edge price by up to +-10% and moves every terminal by up to kPinJitter
  // gcells, as perturb_netlist does for the chips.
  const RoutingGrid& g = *world->grid;
  const double dbif = chip_dbif(grid_config);
  for (std::size_t k = 0; k < kInstancePool; ++k) {
    Rng base(1000 + k);
    Rng jitter(mix_seed(k + 1, seed));
    auto in = std::make_unique<Instance>();
    in->cost.resize(g.graph().num_edges());
    in->delay = g.edge_delays();
    for (std::size_t e = 0; e < in->cost.size(); ++e) {
      in->cost[e] = g.base_costs()[e] * (1.0 + 3.0 * base.uniform_double()) *
                    jitter.uniform_double(0.9, 1.1);
    }
    in->plane.assign(g.graph(), in->cost, in->delay);
    in->inst.graph = &g.graph();
    in->inst.cost = &in->cost;
    in->inst.delay = &in->delay;
    in->inst.arc_costs = &in->plane;
    in->inst.dbif = dbif;
    in->inst.eta = 0.25;
    std::vector<VertexId> used;
    const auto coord = [](Rng& rng, std::int64_t c) {
      return static_cast<std::int32_t>(std::clamp<std::int64_t>(
          c + rng.uniform_int(-kPinJitter, kPinJitter), 0,
          kInstanceSide - 1));
    };
    const auto pick = [&] {
      for (;;) {
        const std::int64_t x = base.uniform_int(0, kInstanceSide - 1);
        const std::int64_t y = base.uniform_int(0, kInstanceSide - 1);
        const VertexId v =
            g.vertex_at(coord(jitter, x), coord(jitter, y), 0);
        if (std::find(used.begin(), used.end(), v) == used.end()) {
          used.push_back(v);
          return v;
        }
      }
    };
    in->inst.root = pick();
    for (std::size_t s = 0; s < kInstanceSinks; ++s) {
      in->inst.sinks.push_back(
          Terminal{pick(), 0.1 + base.uniform_double()});
    }
    world->instances.push_back(std::move(in));
  }
  return world;
}

/// The instance a solver tenant's j-th job solves.
const CostDistanceInstance& job_instance(const World& w, std::size_t tenant,
                                         std::size_t j) {
  return w.instances[(tenant * 3 + j) % w.instances.size()]->inst;
}

bool same_solve(const SolveResult& a, const SolveResult& b) {
  return a.tree.all_edges() == b.tree.all_edges() &&
         a.eval.objective == b.eval.objective &&
         a.eval.sink_delays == b.eval.sink_delays;
}

/// What one drain of the closed loop produced.
struct Drain {
  double makespan_s{0.0};
  std::vector<double> solve_ms;
  std::vector<double> round_ms;
  std::vector<double> router_slice_ms;
  std::vector<double> solver_slice_ms;
  std::vector<double> step_ms;
  double cpu_util{0.0};
  std::vector<RouterResult> router_results;
  std::vector<std::vector<SolveResult>> solver_results;
  serve::ServeStats stats;
};

/// Opens every tenant on `server` and pumps until all are drained. With
/// `tracer` set, each step() is timed, classified and recorded as a span.
Drain drain(World& world, Engine& engine, serve::EngineServer& server,
            RunResult& out, Tracer* tracer) {
  Drain d;
  std::vector<serve::SessionId> routers;
  std::vector<serve::SessionId> solvers;
  for (const auto& t : world.routers) {
    serve::TenantOptions tenant;
    tenant.name = t->config.name;
    tenant.weight = t->weight;
    StatusOr<serve::SessionId> id =
        server.open_router_session(t->grid, t->netlist, t->options, tenant);
    out.check(id.ok());
    if (!id.ok()) return d;
    routers.push_back(id.value());
  }
  for (std::size_t s = 0; s < kSolverTenants; ++s) {
    serve::TenantOptions tenant;
    tenant.name = "solver" + std::to_string(s);
    StatusOr<serve::SessionId> id =
        server.open_solver_session(world.solver_options, tenant);
    out.check(id.ok());
    if (!id.ok()) return d;
    solvers.push_back(id.value());
  }

  const double cpu0 = process_cpu_s();
  const Clock::time_point start = Clock::now();
  std::vector<int> rounds_done(routers.size(), 0);
  std::vector<Clock::time_point> round_submitted(routers.size(), start);
  std::vector<std::size_t> jobs_done(solvers.size(), 0);
  std::vector<Clock::time_point> job_submitted(solvers.size(), start);
  d.solver_results.resize(solvers.size());

  const auto submit_job = [&](std::size_t s) {
    CdSolver::Job job;
    job.instance = &job_instance(world, s, jobs_done[s]);
    out.check(server.submit_job(solvers[s], job).ok());
    job_submitted[s] = Clock::now();
  };
  for (std::size_t t = 0; t < routers.size(); ++t) {
    out.check(server.submit_rounds(routers[t], 1).ok());
    round_submitted[t] = Clock::now();
  }
  for (std::size_t s = 0; s < solvers.size(); ++s) submit_job(s);

  for (;;) {
    std::vector<std::size_t> slices_before;
    if (tracer != nullptr) {
      for (const serve::TenantSnapshot& snap : server.stats().tenants) {
        slices_before.push_back(snap.slices_run);
      }
    }
    const std::int64_t t0 = tracer != nullptr ? tracer->now_ns() : 0;
    if (!server.step()) break;
    const Clock::time_point now = Clock::now();
    const serve::ServeStats stats = server.stats();
    if (tracer != nullptr) {
      const std::int64_t t1 = tracer->now_ns();
      const double ms = static_cast<double>(t1 - t0) * 1e-6;
      d.step_ms.push_back(ms);
      for (std::size_t k = 0; k < stats.tenants.size(); ++k) {
        if (stats.tenants[k].slices_run == slices_before[k]) continue;
        const bool router = stats.tenants[k].kind == serve::SessionKind::kRouter;
        (router ? d.router_slice_ms : d.solver_slice_ms).push_back(ms);
        tracer->record(0, router ? "serve.router_slice" : "serve.solver_slice",
                       t0, t1);
      }
    }
    for (std::size_t s = 0; s < solvers.size(); ++s) {
      while (server.results_ready(solvers[s]) > 0) {
        StatusOr<SolveResult> r = server.pop_result(solvers[s]);
        out.check(r.ok());
        if (!r.ok()) return d;
        d.solve_ms.push_back(
            std::chrono::duration<double, std::milli>(now - job_submitted[s])
                .count());
        d.solver_results[s].push_back(std::move(r).value());
        if (++jobs_done[s] < kJobsPerSolver) submit_job(s);
      }
    }
    for (std::size_t t = 0; t < routers.size(); ++t) {
      for (const serve::TenantSnapshot& snap : stats.tenants) {
        if (snap.id != routers[t] || snap.rounds_completed <= rounds_done[t]) {
          continue;
        }
        out.check(snap.last_status == StatusCode::kOk);
        d.round_ms.push_back(
            std::chrono::duration<double, std::milli>(now -
                                                      round_submitted[t])
                .count());
        if (++rounds_done[t] < kRouterRounds) {
          out.check(server.submit_rounds(routers[t], 1).ok());
          round_submitted[t] = Clock::now();
        }
      }
    }
  }
  d.makespan_s = seconds_since(start);
  d.cpu_util = (process_cpu_s() - cpu0) /
               (d.makespan_s * engine.thread_pool().concurrency());
  for (std::size_t t = 0; t < routers.size(); ++t) {
    out.check(rounds_done[t] == kRouterRounds &&
              server.session_status(routers[t]).ok());
  }
  for (std::size_t s = 0; s < solvers.size(); ++s) {
    out.check(jobs_done[s] == kJobsPerSolver);
  }
  d.stats = server.stats();
  for (std::size_t t = 0; t < routers.size(); ++t) {
    StatusOr<RouterResult> r = server.result(routers[t]);
    out.check(r.ok());
    if (!r.ok()) return d;
    check_routes(world.routers[t]->grid, world.routers[t]->netlist, r.value(),
                 out);
    d.router_results.push_back(std::move(r).value());
  }
  return d;
}

/// Serial references: each router tenant as a plain Router session, each
/// solver job through a pool-less CdSolver. Counts one check per tenant and
/// per job.
void check_against_serial(const World& world, const Drain& d,
                          RunResult& out) {
  for (std::size_t t = 0; t < world.routers.size(); ++t) {
    const RouterTenant& rt = *world.routers[t];
    RouterOptions opts = rt.options;
    opts.threads = 1;
    Router serial(rt.grid, rt.netlist, opts);
    out.check(serial.run(kRouterRounds).ok());
    const RouterResult want = serial.result();
    out.check(t < d.router_results.size() &&
              d.router_results[t].routes == want.routes &&
              d.router_results[t].sink_delays == want.sink_delays);
  }
  CdSolver solver(world.solver_options);
  for (std::size_t s = 0; s < kSolverTenants; ++s) {
    for (std::size_t j = 0; j < kJobsPerSolver; ++j) {
      const StatusOr<SolveResult> want =
          solver.solve(job_instance(world, s, j));
      out.check(want.ok() && j < d.solver_results[s].size() &&
                same_solve(d.solver_results[s][j], want.value()));
    }
  }
}

std::size_t router_nets(const World& w) {
  std::size_t n = 0;
  for (const auto& t : w.routers) n += t->netlist.nets.size();
  return n;
}

int timed_run(const Args& args, RunResult& out) {
  const int lanes = bench_lanes();
  // Five drains hold 120 job latencies, so >= 12 lie beyond p90.
  constexpr int kMinReps = 5;
  constexpr int kExtraSetups = 25;
  std::vector<double> setup_s;
  std::vector<double> makespan_s;
  std::vector<double> solve_ms;
  std::vector<double> round_ms;
  double rss_mb = 0.0;
  Drain first;
  std::unique_ptr<World> first_world;
  const Clock::time_point start = Clock::now();
  // Set-up is short against a repetition, so time it more often.
  for (int i = 0; i < kExtraSetups; ++i) {
    const Clock::time_point t0 = Clock::now();
    auto engine = std::make_unique<Engine>(EngineOptions{lanes});
    std::unique_ptr<World> world = make_world(args.seed, *engine);
    auto server = std::make_unique<serve::EngineServer>(*engine);
    setup_s.push_back(seconds_since(t0));
  }
  for (int rep = 0; rep < kMinReps || seconds_since(start) < args.seconds;
       ++rep) {
    const Clock::time_point t0 = Clock::now();
    auto engine = std::make_unique<Engine>(EngineOptions{lanes});
    std::unique_ptr<World> world = make_world(args.seed, *engine);
    auto server = std::make_unique<serve::EngineServer>(*engine);
    setup_s.push_back(seconds_since(t0));

    Drain d = drain(*world, *engine, *server, out, nullptr);
    makespan_s.push_back(d.makespan_s);
    solve_ms.insert(solve_ms.end(), d.solve_ms.begin(), d.solve_ms.end());
    round_ms.insert(round_ms.end(), d.round_ms.begin(), d.round_ms.end());
    if (rep == 0) {
      rss_mb = peak_rss_mb();
      Quality q;
      for (const RouterResult& r : d.router_results) q.add(r);
      q.report(out);
      first = std::move(d);
      first_world = std::move(world);
      continue;
    }
    // Repetitions serve the same inputs: results must not drift.
    bool same = d.router_results.size() == first.router_results.size();
    for (std::size_t t = 0; same && t < d.router_results.size(); ++t) {
      same = d.router_results[t].routes == first.router_results[t].routes &&
             d.router_results[t].sink_delays ==
                 first.router_results[t].sink_delays;
    }
    for (std::size_t s = 0; same && s < d.solver_results.size(); ++s) {
      for (std::size_t j = 0; same && j < d.solver_results[s].size(); ++j) {
        same = same_solve(d.solver_results[s][j], first.solver_results[s][j]);
      }
    }
    out.check(same);
  }
  out.set("setup_s", median(setup_s), "s");
  out.set("run_s", median(makespan_s), "s");
  out.set("round_ms_p50", median(round_ms), "ms");
  out.set("request_ms_p50", median(solve_ms), "ms");
  out.set("request_ms_p90", quantile(solve_ms, 0.9), "ms");
  out.set("peak_rss_mb", rss_mb, "MB");
  std::printf("# run_s samples:");
  for (const double v : makespan_s) std::printf(" %.4f", v);
  std::printf("\n");
  check_against_serial(*first_world, first, out);
  std::printf("# serve_mixed: 3 router tenants (%zu nets, %d rounds each), "
              "%zu solver tenants x %zu jobs (%dx%dx%d grid, %zu sinks), "
              "%zu repetitions, %zu solve and %zu round samples\n",
              router_nets(*first_world), kRouterRounds, kSolverTenants,
              kJobsPerSolver, kInstanceSide, kInstanceSide, kInstanceLayers,
              kInstanceSinks, makespan_s.size(), solve_ms.size(),
              round_ms.size());
  return 0;
}

int traced_run(const Args& args, RunResult& out) {
  const int lanes = bench_lanes();
  Engine engine(EngineOptions{lanes});
  std::unique_ptr<World> world = make_world(args.seed, engine);
  serve::EngineServer server(engine);
  Tracer tracer(1);
  const Drain d = drain(*world, engine, server, out, &tracer);

  // Serial solves of the same jobs: the core-layer numbers, the slice
  // overhead base and the serve-vs-serial check of the solver tenants.
  CdSolver solver(world->solver_options);
  std::vector<double> solve_ms;
  SolveStats totals;
  std::size_t vertices = 0;
  for (std::size_t s = 0; s < kSolverTenants; ++s) {
    for (std::size_t j = 0; j < kJobsPerSolver; ++j) {
      const CostDistanceInstance& inst = job_instance(*world, s, j);
      const std::int64_t t0 = tracer.now_ns();
      const SpanRef ref = tracer.open(0, "core.cd_solve");
      const StatusOr<SolveResult> r = solver.solve(inst);
      tracer.close(ref);
      solve_ms.push_back(static_cast<double>(tracer.now_ns() - t0) * 1e-6);
      out.check(r.ok() && j < d.solver_results[s].size() &&
                same_solve(d.solver_results[s][j], r.value()));
      if (!r.ok()) continue;
      totals.iterations += r.value().stats.iterations;
      totals.labels_settled += r.value().stats.labels_settled;
      totals.labels_relaxed += r.value().stats.labels_relaxed;
      totals.completions_popped += r.value().stats.completions_popped;
      totals.completions_stale += r.value().stats.completions_stale;
      vertices += inst.graph->num_vertices();
    }
  }

  out.set("core.cd_solve_s", sum(solve_ms) * 1e-3, "s");
  out.set("core.cd_solve_ms_p50", median(solve_ms), "ms");
  out.set("core.cd_solve_ms_p99", quantile(solve_ms, 0.99), "ms");
  out.set("core.merges", static_cast<double>(totals.iterations), "count");
  out.set("core.labels_settled", static_cast<double>(totals.labels_settled),
          "count");
  out.set("core.labels_relaxed", static_cast<double>(totals.labels_relaxed),
          "count");
  out.set("core.completions_popped",
          static_cast<double>(totals.completions_popped), "count");
  out.set("core.completions_stale",
          static_cast<double>(totals.completions_stale), "count");
  out.set("core.completion_useful_ratio",
          totals.completions_popped > 0
              ? static_cast<double>(totals.iterations) /
                    static_cast<double>(totals.completions_popped)
              : 0.0,
          "ratio");
  out.set("core.settled_per_window_vertex",
          vertices > 0 ? static_cast<double>(totals.labels_settled) /
                             static_cast<double>(vertices)
                       : 0.0,
          "ratio");
  out.set("serve.router_slice_ms_p50", median(d.router_slice_ms), "ms");
  out.set("serve.solver_slice_ms_p50", median(d.solver_slice_ms), "ms");
  out.set("serve.step_ms_p90", quantile(d.step_ms, 0.9), "ms");
  out.set("serve.solver_slice_overhead_ms",
          solve_ms.empty()
              ? 0.0
              : (sum(d.solver_slice_ms) - sum(solve_ms)) /
                    static_cast<double>(solve_ms.size()),
          "ms");
  out.set("serve.slices_total", static_cast<double>(d.stats.slices_total),
          "count");
  out.set("serve.admission_rejects",
          static_cast<double>(d.stats.rejected_total), "count");
  out.set("serve.budget_peak_mb",
          static_cast<double>(d.stats.budget_peak_bytes) / (1024.0 * 1024.0),
          "MB");
  out.set("util.pool_cpu_util", d.cpu_util, "ratio");

  const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".trace.json";
  if (tracer.write_chrome_json(path, host_fingerprint_json())) {
    std::printf("# trace: %s\n", path.c_str());
  }
  return 0;
}

}  // namespace

int run_serve_workload(const Args& args, RunResult& out) {
  return args.trace ? traced_run(args, out) : timed_run(args, out);
}

}  // namespace perfbench
