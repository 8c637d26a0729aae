/// \file global_routing_common.h
/// Shared harness for Tables IV and V: full timing-constrained global
/// routing on the eight (scaled) evaluation chips, one run per Steiner
/// oracle, reporting WS / TNS / ACE4 / wirelength / vias / walltime, then
/// whether each of the paper's qualitative claims holds on the totals.
///
/// All runs share one ThreadPool through the Router sessions; per-net
/// batches fan out onto it. Results are thread-count invariant, so
/// --threads only changes walltime.

#pragma once

#include <cstdio>

#include "api/cdst.h"
#include "bench_common.h"
#include "io/table.h"
#include "util/args.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace cdst::bench {

inline int run_global_routing_table(const char* table_name, bool with_dbif,
                                    int argc, const char* const* argv) {
  ArgParser args(table_name,
                 std::string("timing-constrained global routing results, ") +
                     (with_dbif ? "dbif > 0" : "dbif = 0"));
  args.add_option("scale", "0.001", "chip net-count scale vs Table III");
  args.add_option("chips", "8", "number of paper chips to route");
  args.add_option("iterations", "5", "rip-up & re-route rounds");
  args.add_option("threads", "4", "shared pool workers (results invariant)");
  args.add_option("seed", "1", "random seed");
  args.parse(argc, argv);

  const auto num_chips =
      static_cast<std::size_t>(std::min<std::int64_t>(8, args.get_int("chips")));
  std::vector<ChipConfig> chips = paper_chip_configs(args.get_double("scale"));
  chips.resize(num_chips);

  std::printf("%s — timing-constrained global routing, %s "
              "(paper: Table %s; chips scaled by %.4g)\n\n",
              table_name, with_dbif ? "dbif > 0" : "dbif = 0",
              with_dbif ? "V" : "IV", args.get_double("scale"));

  ThreadPool pool(std::max(1, static_cast<int>(args.get_int("threads"))));

  TextTable table({"Chip", "Run", "WS [ps]", "TNS [ps]", "ACE4 [%]",
                   "WL [gcells]", "Vias", "Walltime"});
  struct Totals {
    double ws{0.0}, tns{0.0}, ace4{0.0}, wl{0.0}, secs{0.0};
    long long vias{0};
  };
  std::array<Totals, 4> totals{};

  for (const ChipConfig& chip : chips) {
    const RoutingGrid grid = make_chip_grid(chip);
    const Netlist netlist = generate_netlist(chip, grid);
    const double dbif = with_dbif ? chip_dbif(chip) : 0.0;
    for (std::size_t m = 0; m < 4; ++m) {
      RouterOptions opts;
      opts.method = all_methods()[m];
      opts.oracle.dbif = dbif;
      opts.seed = static_cast<std::uint64_t>(args.get_int("seed"));
      Router session(grid, netlist, opts, &pool);
      const Status status =
          session.run(static_cast<int>(args.get_int("iterations")));
      if (!status.ok()) {
        std::fprintf(stderr, "%s/%s failed: %s\n", chip.name.c_str(),
                     method_name(opts.method), status.to_string().c_str());
        return 1;
      }
      const RouterResult r = session.result();
      table.add_row(
          {chip.name, method_name(opts.method),
           fmt_double(r.timing.worst_slack, 0),
           fmt_count(static_cast<long long>(r.timing.total_negative_slack)),
           fmt_double(r.congestion.ace4, 2),
           fmt_double(r.wires.wirelength_gcells, 0),
           fmt_count(static_cast<long long>(r.wires.num_vias)),
           format_hms(r.walltime_s)});
      totals[m].ws += r.timing.worst_slack;
      totals[m].tns += r.timing.total_negative_slack;
      totals[m].ace4 += r.congestion.ace4 / static_cast<double>(num_chips);
      totals[m].wl += r.wires.wirelength_gcells;
      totals[m].vias += static_cast<long long>(r.wires.num_vias);
      totals[m].secs += r.walltime_s;
    }
    table.add_separator();
  }
  for (std::size_t m = 0; m < 4; ++m) {
    table.add_row({"all", method_name(all_methods()[m]),
                   fmt_double(totals[m].ws, 0),
                   fmt_count(static_cast<long long>(totals[m].tns)),
                   fmt_double(totals[m].ace4, 2), fmt_double(totals[m].wl, 0),
                   fmt_count(totals[m].vias), format_hms(totals[m].secs)});
  }
  std::fputs(table.to_string().c_str(), stdout);

  // The paper's qualitative claims, checked against the totals above. Each
  // compares the subject with its strongest rival on one metric (ties hold).
  // Print only: the exit code does not depend on the verdicts.
  enum class Metric { kWs, kTns, kAce4, kVias };
  const auto value = [&](std::size_t m, Metric k) {
    switch (k) {
      case Metric::kWs: return totals[m].ws;
      case Metric::kTns: return totals[m].tns;
      case Metric::kAce4: return totals[m].ace4;
      case Metric::kVias: return static_cast<double>(totals[m].vias);
    }
    return 0.0;
  };
  // Same rounding as the table's "all" rows.
  const auto show = [](Metric k, double v) {
    if (k == Metric::kTns || k == Metric::kVias) {
      return fmt_count(static_cast<long long>(v));
    }
    return fmt_double(v, k == Metric::kAce4 ? 2 : 0);
  };
  struct Claim {
    const char* text;
    std::size_t subject;  ///< index into all_methods()
    Metric metric;
    bool highest;  ///< the subject must be highest (else lowest)
  };
  constexpr std::size_t kL1 = 0, kCD = 3;
  const Claim claims[] = {
      {"CD best WS", kCD, Metric::kWs, true},
      {"CD best TNS", kCD, Metric::kTns, true},
      {"CD lowest ACE4", kCD, Metric::kAce4, false},
      {"CD lowest vias", kCD, Metric::kVias, false},
      {"L1 worst timing (WS)", kL1, Metric::kWs, false},
      {"L1 worst timing (TNS)", kL1, Metric::kTns, false},
  };
  std::printf("\npaper claims on the totals:\n");
  for (const Claim& c : claims) {
    const auto beats = [&](double a, double b) {
      return c.highest ? a > b : a < b;
    };
    std::size_t rival = c.subject == 0 ? 1 : 0;
    for (std::size_t m = 0; m < 4; ++m) {
      if (m != c.subject && beats(value(m, c.metric), value(rival, c.metric))) {
        rival = m;
      }
    }
    const double mine = value(c.subject, c.metric);
    const double theirs = value(rival, c.metric);
    std::printf("  %-22s %-13s (%s %s vs %s %s)\n", c.text,
                beats(theirs, mine) ? "does not hold" : "holds",
                method_name(all_methods()[c.subject]),
                show(c.metric, mine).c_str(),
                method_name(all_methods()[rival]),
                show(c.metric, theirs).c_str());
  }
  return 0;
}

}  // namespace cdst::bench
