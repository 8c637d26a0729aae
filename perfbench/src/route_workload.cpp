// route_cd and route_pd: one Router session per repetition on one scaled
// paper chip, a fixed number of Lagrangean rounds, quality from result().
//
//   route_cd  CD oracle, sharded rounds (4 shards, stealing), dbif > 0
//   route_pd  PD oracle, batched rounds, dbif = 0, on a smaller chip
//
// Untraced runs repeat set-up + rounds until the time budget is spent and
// report medians. Traced runs route once untraced (reference walls), once
// with a timestamping EventSink (checkpointing every round barrier), then
// replay rounds >= 1 through the public layer calls (replay.h), on the
// same lane count and once more serially.

#include <cstdio>
#include <memory>

#include "common.h"
#include "replay.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace cdst;

struct RouteSpec {
  double scale;
  std::size_t chip;  ///< index into paper_chip_configs (5 = c6)
  SteinerMethod method;
  int shards;
  bool dbif;
  int rounds;
};

RouteSpec route_spec(const std::string& workload) {
  if (workload == "route_cd") {
    return {0.002, 5, SteinerMethod::kCD, 4, true, 4};
  }
  return {0.001, 5, SteinerMethod::kPD, 0, false, 3};
}

/// Everything a repetition sets up: the chip and its router options.
struct Chip {
  ChipConfig config;
  RoutingGrid grid;
  Netlist netlist;
  RouterOptions options;
};

std::unique_ptr<Chip> make_chip(const RouteSpec& spec, std::uint64_t seed,
                                int lanes) {
  const ChipConfig config = paper_chip_configs(spec.scale)[spec.chip];
  RoutingGrid grid = make_chip_grid(config);
  auto chip = std::make_unique<Chip>(Chip{config, std::move(grid), {}, {}});
  chip->netlist = generate_netlist(chip->config, chip->grid);
  perturb_netlist(chip->netlist, chip->grid, seed);
  RouterOptions& o = chip->options;
  o.method = spec.method;
  o.shards = spec.shards;
  o.shard_stealing = true;
  o.oracle.dbif = spec.dbif ? chip_dbif(config) : 0.0;
  o.seed = seed;
  o.threads = lanes;
  return chip;
}

/// Timestamps of shard completions and batch boundaries, per round.
class TimestampSink final : public EventSink {
 public:
  explicit TimestampSink(const Tracer& tracer) : tracer_(tracer) {}

  void begin_round(int round) {
    round_ = round;
    shards_.emplace_back();
    batches_.emplace_back(1, tracer_.now_ns());
  }
  void on_router_shard(const RouterShardEvent& e) override {
    if (e.round == round_) shards_.back().push_back(tracer_.now_ns());
  }
  void on_router_round(const RouterRoundEvent& e) override {
    if (e.round == round_ && !e.round_complete && !e.cancelled) {
      batches_.back().push_back(tracer_.now_ns());
    }
  }

  /// Last-minus-first shard completion per round, ms.
  std::vector<double> shard_spreads_ms() const {
    std::vector<double> out;
    for (const auto& ts : shards_) {
      if (ts.size() >= 2) {
        out.push_back(static_cast<double>(ts.back() - ts.front()) * 1e-6);
      }
    }
    return out;
  }
  /// Wall of every batch (boundary to boundary, the first from round
  /// start), ms.
  std::vector<double> batch_walls_ms() const {
    std::vector<double> out;
    for (const auto& ts : batches_) {
      for (std::size_t i = 1; i < ts.size(); ++i) {
        out.push_back(static_cast<double>(ts[i] - ts[i - 1]) * 1e-6);
      }
    }
    return out;
  }

 private:
  const Tracer& tracer_;
  int round_{-1};
  std::vector<std::vector<std::int64_t>> shards_;
  std::vector<std::vector<std::int64_t>> batches_;
};

bool same_round(const ReplayResult& replay, const RouterCheckpoint& after) {
  return replay.routes == checkpoint_routes(after) &&
         replay.sink_delays == after.sink_delays;
}

int timed_run(const Args& args, const RouteSpec& spec, RunResult& out) {
  const int lanes = bench_lanes();
  constexpr int kMinReps = 3;
  constexpr int kExtraSetups = 25;
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<double> round_ms;
  double rss_mb = 0.0;
  RouterResult first;
  const Clock::time_point start = Clock::now();
  // Set-up is short against a repetition, so time it more often.
  for (int i = 0; i < kExtraSetups; ++i) {
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Chip> chip = make_chip(spec, args.seed, lanes);
    Router router(chip->grid, chip->netlist, chip->options);
    setup_s.push_back(seconds_since(t0));
  }
  for (int rep = 0; rep < kMinReps || seconds_since(start) < args.seconds;
       ++rep) {
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Chip> chip = make_chip(spec, args.seed, lanes);
    Router router(chip->grid, chip->netlist, chip->options);
    setup_s.push_back(seconds_since(t0));

    const Clock::time_point t1 = Clock::now();
    for (int r = 0; r < spec.rounds; ++r) {
      const Clock::time_point tr = Clock::now();
      out.check(router.run(1).ok());
      round_ms.push_back(seconds_since(tr) * 1e3);
    }
    run_s.push_back(seconds_since(t1));

    RouterResult result = router.result();
    check_routes(chip->grid, chip->netlist, result, out);
    if (rep == 0) {
      rss_mb = peak_rss_mb();
      Quality q;
      q.add(result);
      q.report(out);
      first = std::move(result);
    } else {
      // Repetitions route the same inputs: results must not drift.
      out.check(result.routes == first.routes &&
                result.sink_delays == first.sink_delays);
    }
  }
  out.set("setup_s", median(setup_s), "s");
  out.set("run_s", median(run_s), "s");
  out.set("round_ms_p50", median(round_ms), "ms");
  out.set("request_ms_p50", median(round_ms), "ms");
  out.set("request_ms_p90", quantile(round_ms, 0.9), "ms");
  out.set("peak_rss_mb", rss_mb, "MB");
  std::printf("# run_s samples:");
  for (const double v : run_s) std::printf(" %.4f", v);
  std::printf("\n");
  std::printf("# %s: %zu nets, %zu sinks, grid %dx%dx%d, %d rounds x %zu "
              "repetitions\n",
              args.workload.c_str(), first.routes.size(),
              first.sink_delays.size(),
              paper_chip_configs(spec.scale)[spec.chip].nx,
              paper_chip_configs(spec.scale)[spec.chip].ny,
              paper_chip_configs(spec.scale)[spec.chip].num_layers,
              spec.rounds, run_s.size());
  return 0;
}

int traced_run(const Args& args, const RouteSpec& spec, RunResult& out) {
  const int lanes = bench_lanes();
  std::unique_ptr<Chip> chip = make_chip(spec, args.seed, lanes);

  // Untraced reference rounds (and the process CPU they burn).
  std::vector<double> untraced_s;
  double cpu_util = 0.0;
  {
    Router router(chip->grid, chip->netlist, chip->options);
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    for (int r = 0; r < spec.rounds; ++r) {
      const Clock::time_point tr = Clock::now();
      out.check(router.run(1).ok());
      untraced_s.push_back(seconds_since(tr));
    }
    cpu_util = (process_cpu_s() - cpu0) / (seconds_since(t0) * lanes);
  }

  // Warm-up: the same rounds with a timestamping sink, checkpointing the
  // committed state at every round barrier.
  Tracer tracer(lanes);
  TimestampSink sink(tracer);
  RunControl control;
  control.events = &sink;
  std::vector<RouterCheckpoint> barriers;
  std::vector<double> traced_s;
  double result_s = 0.0;
  {
    Router router(chip->grid, chip->netlist, chip->options);
    barriers.push_back(router.checkpoint());
    for (int r = 0; r < spec.rounds; ++r) {
      sink.begin_round(r);
      ScopedSpan span(&tracer, 0, "api.router_run");
      const Clock::time_point tr = Clock::now();
      out.check(router.run(1, control).ok());
      traced_s.push_back(seconds_since(tr));
      barriers.push_back(router.checkpoint());
    }
    const Clock::time_point t0 = Clock::now();
    const RouterResult result = router.result();
    result_s = seconds_since(t0);
    check_routes(chip->grid, chip->netlist, result, out);
  }

  // Replay rounds >= 1 on the pool; the last one also serially.
  ThreadPool pool(lanes);
  LayerStats stats;
  double replay_s = 0.0;
  double untraced_replayed_s = 0.0;
  bool identical = true;
  for (int k = 1; k < spec.rounds; ++k) {
    const ReplayResult rr =
        replay_round(chip->grid, chip->netlist, chip->options, barriers[k], k,
                     args.replay_round_offset, &pool, &tracer, &stats);
    identical = identical && same_round(rr, barriers[k + 1]);
    replay_s += rr.wall_s;
    untraced_replayed_s += untraced_s[static_cast<std::size_t>(k)];
  }
  const int last = spec.rounds - 1;
  const ReplayResult serial =
      replay_round(chip->grid, chip->netlist, chip->options, barriers[last],
                   last, args.replay_round_offset, nullptr, nullptr, nullptr);
  identical = identical && same_round(serial, barriers[last + 1]);
  out.check(identical);
  if (!identical) {
    std::fprintf(stderr,
                 "perfbench: replayed rounds differ from the Router's own "
                 "rounds; layer numbers would describe different work\n");
  }

  out.set("grid.window_build_s", stats.window_s, "s");
  out.set("grid.window_build_ms_p50", median(stats.window_ms), "ms");
  out.set("grid.window_build_ms_p99", quantile(stats.window_ms, 0.99), "ms");
  out.set("grid.windows", static_cast<double>(stats.windows), "count");
  out.set("grid.window_vertices", static_cast<double>(stats.window_vertices),
          "count");
  out.set("grid.window_arcs", static_cast<double>(stats.window_arcs),
          "count");
  out.set("grid.window_bytes_computed", stats.window_bytes, "bytes");
  out.set("grid.price_snapshot_s", stats.price_snapshot_s, "s");
  out.set("core.cd_solve_s", stats.solve_s, "s");
  out.set("core.cd_solve_ms_p50", median(stats.solve_ms), "ms");
  out.set("core.cd_solve_ms_p99", quantile(stats.solve_ms, 0.99), "ms");
  out.set("core.merges", static_cast<double>(stats.merges), "count");
  out.set("core.labels_settled", static_cast<double>(stats.labels_settled),
          "count");
  out.set("core.labels_relaxed", static_cast<double>(stats.labels_relaxed),
          "count");
  out.set("core.completions_popped",
          static_cast<double>(stats.completions_popped), "count");
  out.set("core.completions_stale",
          static_cast<double>(stats.completions_stale), "count");
  out.set("core.completion_useful_ratio",
          stats.completions_popped > 0
              ? static_cast<double>(stats.merges) /
                    static_cast<double>(stats.completions_popped)
              : 0.0,
          "ratio");
  out.set("core.settled_per_window_vertex",
          stats.solve_ms.empty() || stats.window_vertices == 0
              ? 0.0
              : static_cast<double>(stats.labels_settled) /
                    static_cast<double>(stats.window_vertices),
          "ratio");
  out.set("topology.build_s", stats.topology_s, "s");
  out.set("embed.dp_s", stats.embed_s, "s");
  out.set("embed.dp_ms_p99", quantile(stats.embed_ms, 0.99), "ms");
  out.set("embed.nodes", static_cast<double>(stats.embed_nodes), "count");
  out.set("route.oracle_busy_s", stats.oracle_busy_s, "s");
  out.set("route.shard_finish_spread_ms", median(sink.shard_spreads_ms()),
          "ms");
  out.set("route.batch_wall_ms_p50",
          spec.shards > 0 ? 0.0 : median(sink.batch_walls_ms()), "ms");
  out.set("route.batch_idle_frac", median(stats.batch_idle_frac), "ratio");
  out.set("route.commit_s", stats.commit_s, "s");
  out.set("timing.multiplier_update_s", stats.multiplier_s, "s");
  out.set("api.round_wall_s", median(traced_s), "s");
  out.set("api.trace_overhead_frac",
          untraced_replayed_s > 0.0 ? replay_s / untraced_replayed_s - 1.0
                                    : 0.0,
          "ratio");
  out.set("api.parallel_efficiency",
          serial.wall_s /
              (lanes * untraced_s[static_cast<std::size_t>(last)]),
          "ratio");
  out.set("api.result_s", result_s, "s");
  out.set("util.pool_cpu_util", cpu_util, "ratio");

  const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".trace.json";
  if (tracer.write_chrome_json(path, host_fingerprint_json())) {
    std::printf("# trace: %s\n", path.c_str());
  }
  return 0;
}

}  // namespace

int run_route_workload(const Args& args, RunResult& out) {
  const RouteSpec spec = route_spec(args.workload);
  return args.trace ? traced_run(args, spec, out) : timed_run(args, spec, out);
}

}  // namespace perfbench
