// Shared pieces of the perfbench workloads: the command line, the result
// line, sample statistics, process counters, the per-net output checks and
// the host fingerprint.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/cdst.h"
#include "route/netlist_gen.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// Added to the round index a replayed round derives its per-net seeds
  /// and multiplier step from. Nonzero only to show that the traced run's
  /// replay identity check fires.
  int replay_round_offset{0};
  /// Directory for the Chrome trace files of traced runs.
  std::string trace_dir{".bench_build/traces"};
};

/// One printed metric.
struct Metric {
  double value{0.0};
  std::string unit;
};

/// What a workload run hands back to main(): the contract's result line.
struct RunResult {
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records one checked operation; a failed one also marks the run wrong.
  void check(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
    }
  }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Pool lanes of every workload: the host's cores, at most four.
int bench_lanes();

/// Nearest-rank-interpolated quantile (q in [0, 1]) of unsorted samples;
/// 0 for an empty sample.
double quantile(std::vector<double> samples, double q);
double median(const std::vector<double>& samples);
double sum(const std::vector<double>& samples);

/// Peak resident set of the process so far, in MB (getrusage).
double peak_rss_mb();
/// User + system CPU seconds of the process so far (getrusage).
double process_cpu_s();

/// Generator seed of input `index` perturbed by workload seed `seed`.
std::uint64_t mix_seed(std::uint64_t index, std::uint64_t seed);

/// Maximum pin move, in gcells, of a seed's placement perturbation.
inline constexpr std::int32_t kPinJitter = 2;

/// Applies workload seed `seed` to a paper chip's netlist (generated from
/// the chip's own fixed seed): every pin moves by up to kPinJitter gcells
/// in x and y, and every sink's RAT is rescaled so that its tightness
/// against the ideal source-sink delay is kept. Seeds thus vary the
/// placement while the chip keeps its size, net-size mix and congestion
/// regime.
void perturb_netlist(cdst::Netlist& netlist, const cdst::RoutingGrid& grid,
                     std::uint64_t seed);

/// dbif of a chip's layer stack from the repeater-chain model (paper
/// Section I). Mirrors bench/bench_common.h on purpose: the benchmark keeps
/// its own copy so an edit to the table harnesses cannot change it.
double chip_dbif(const cdst::ChipConfig& chip);

/// Output check of one routed net: every edge id is in range, the edges
/// form one connected set that contains the source and every sink, and
/// every sink delay is finite.
bool net_route_ok(const cdst::RoutingGrid& grid, const cdst::Net& net,
                  const std::vector<cdst::EdgeId>& route,
                  const double* sink_delays);

/// Runs net_route_ok over a whole result, recording one check per net.
void check_routes(const cdst::RoutingGrid& grid, const cdst::Netlist& netlist,
                  const cdst::RouterResult& result, RunResult& out);

/// Quality columns of Tables IV/V, accumulated over one or more results.
struct Quality {
  double neg_ws_ps{0.0};
  double neg_tns_ps{0.0};
  double ace4_sum{0.0};
  double wirelength{0.0};
  double vias{0.0};
  int results{0};

  void add(const cdst::RouterResult& r);
  void report(RunResult& out) const;
};

/// One-line JSON description of the host and build that produced a result.
std::string host_fingerprint_json();

/// Per-layer metric names in output order; main() fills the unset ones of a
/// traced run with 0 (the layer does not execute in that workload).
const std::vector<std::pair<std::string, std::string>>& layer_metric_units();

int run_route_workload(const Args& args, RunResult& out);
int run_serve_workload(const Args& args, RunResult& out);

}  // namespace perfbench
