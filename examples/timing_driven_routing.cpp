// Full timing-constrained global routing on a small synthetic chip,
// comparing the cost-distance oracle against the Prim-Dijkstra baseline —
// a miniature of the paper's Table IV/V experiment — driven through the
// session API: one Router per method on a shared ThreadPool, observed
// through a typed EventSink (batch boundaries while a round runs, round
// barriers with congestion stats).
//
//   ./examples/timing_driven_routing [--nets N] [--iterations K] [--threads T]

#include <cstdio>

#include "api/cdst.h"
#include "io/table.h"
#include "route/netlist_gen.h"
#include "timing/repeater_chain.h"
#include "util/args.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace cdst;

int main(int argc, char** argv) {
  ArgParser args("timing_driven_routing",
                 "CD vs PD inside the Lagrangean global router");
  args.add_option("nets", "400", "number of nets");
  args.add_option("iterations", "3", "rip-up & re-route rounds");
  args.add_option("threads", "2", "worker threads (results are invariant)");
  args.add_flag("dbif", true, "enable bifurcation penalties");
  args.add_flag("progress", false, "print per-round batch progress");
  args.parse(argc, argv);

  ChipConfig chip;
  chip.name = "mini";
  chip.num_nets = static_cast<std::size_t>(args.get_int("nets"));
  chip.num_layers = 7;
  chip.nx = chip.ny = 40;
  chip.capacity = 13.0;
  chip.rat_tightness = 1.3;
  chip.seed = 11;

  const RoutingGrid grid = make_chip_grid(chip);
  const Netlist netlist = generate_netlist(chip, grid);

  double dbif = 0.0;
  if (args.get_bool("dbif")) {
    std::vector<LayerSpec> layers = make_default_layer_stack(chip.num_layers);
    apply_linear_delay_model(layers, BufferSpec{});
    dbif = compute_dbif(layers, BufferSpec{});
  }
  std::printf("chip %s: %zu nets, %d layers, grid %dx%d, dbif %.3f ps\n\n",
              chip.name.c_str(), netlist.nets.size(), chip.num_layers,
              chip.nx, chip.ny, dbif);

  // One worker pool shared by both router sessions (and any other engine
  // object); per-net batches fan out onto it deterministically.
  ThreadPool pool(std::max(1, static_cast<int>(args.get_int("threads"))));

  // Typed event observer: batch progress lines while a round runs, and a
  // summary with congestion stats at every round barrier.
  struct RoundPrinter final : EventSink {
    void on_router_round(const RouterRoundEvent& e) override {
      if (e.round_complete) {
        std::fprintf(stderr,
                     "  [route] round %d/%d done: ACE4 %.2f%%, max util "
                     "%.1f%%, %zu overfull edges\n",
                     e.round + 1, e.target_round, e.ace4, e.max_utilization,
                     e.overfull_edges);
      } else {
        std::fprintf(stderr, "  [route] round %d/%d: %zu/%zu nets\n",
                     e.round + 1, e.target_round, e.nets_done, e.nets_total);
      }
    }
  } sink;
  RunControl control;
  if (args.get_bool("progress")) control.events = &sink;

  TextTable table({"Run", "WS [ps]", "TNS [ps]", "ACE4 [%]", "WL [gcells]",
                   "Vias", "Walltime"});
  for (const SteinerMethod m :
       {SteinerMethod::kPD, SteinerMethod::kCD}) {
    RouterOptions opts;
    opts.method = m;
    opts.oracle.dbif = dbif;
    Router session(grid, netlist, opts, &pool);
    const Status status =
        session.run(static_cast<int>(args.get_int("iterations")), control);
    if (!status.ok()) {
      std::fprintf(stderr, "routing failed: %s\n",
                   status.to_string().c_str());
      return 1;
    }
    const RouterResult r = session.result();
    table.add_row({method_name(m), fmt_double(r.timing.worst_slack, 1),
                   fmt_double(r.timing.total_negative_slack, 0),
                   fmt_double(r.congestion.ace4, 2),
                   fmt_double(r.wires.wirelength_gcells, 0),
                   fmt_count(static_cast<long long>(r.wires.num_vias)),
                   format_hms(r.walltime_s)});
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf(
      "\nExpected shape (paper Tables IV/V): CD wins timing (WS/TNS), ACE4\n"
      "and vias; PD wins wirelength slightly.\n");
  return 0;
}
