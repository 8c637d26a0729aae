#include "common.h"

#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <sstream>
#include <thread>

#include "timing/repeater_chain.h"
#include "util/disjoint_set.h"
#include "util/rng.h"
#include "util/simd.h"

namespace perfbench {

using namespace cdst;

int bench_lanes() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double median(const std::vector<double>& samples) {
  return quantile(samples, 0.5);
}

double sum(const std::vector<double>& samples) {
  return std::accumulate(samples.begin(), samples.end(), 0.0);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

std::uint64_t mix_seed(std::uint64_t index, std::uint64_t seed) {
  return index * 1000003ull + seed * 0x9e3779b97f4a7c15ull + 1;
}

void perturb_netlist(Netlist& netlist, const RoutingGrid& grid,
                     std::uint64_t seed) {
  Rng rng(mix_seed(0, seed));
  const auto jitter = [&](Point3 p) {
    p.x = std::clamp<std::int32_t>(
        p.x + static_cast<std::int32_t>(rng.uniform_int(-kPinJitter,
                                                        kPinJitter)),
        0, grid.nx() - 1);
    p.y = std::clamp<std::int32_t>(
        p.y + static_cast<std::int32_t>(rng.uniform_int(-kPinJitter,
                                                        kPinJitter)),
        0, grid.ny() - 1);
    return p;
  };
  // The ideal delay the generator scales RATs from (route/netlist_gen.cpp).
  const auto ideal = [&](const Point3& a, const Point3& b) {
    return grid.min_unit_delay() * static_cast<double>(l1_distance(a, b)) +
           2.0 * grid.min_via_delay() * static_cast<double>(grid.nz() - 1);
  };
  constexpr double kRatFloor = 6.0;
  for (Net& net : netlist.nets) {
    const Point3 old_source = net.source;
    net.source = jitter(net.source);
    for (SinkPin& s : net.sinks) {
      const double before = ideal(old_source, s.pos);
      s.pos = jitter(s.pos);
      s.rat = (s.rat - kRatFloor) * ideal(net.source, s.pos) / before +
              kRatFloor;
    }
  }
}

double chip_dbif(const ChipConfig& chip) {
  std::vector<LayerSpec> layers = make_default_layer_stack(chip.num_layers);
  apply_linear_delay_model(layers, BufferSpec{});
  return compute_dbif(layers, BufferSpec{});
}

bool net_route_ok(const RoutingGrid& grid, const Net& net,
                  const std::vector<EdgeId>& route,
                  const double* sink_delays) {
  for (std::size_t s = 0; s < net.sinks.size(); ++s) {
    if (!std::isfinite(sink_delays[s])) return false;
  }
  const Graph& g = grid.graph();
  const VertexId source = grid.vertex_at(net.source);
  if (route.empty()) {
    // Only a net whose sinks all sit on the source vertex needs no wire.
    return std::all_of(net.sinks.begin(), net.sinks.end(),
                       [&](const SinkPin& s) {
                         return grid.vertex_at(s.pos) == source;
                       });
  }
  // Union-find over the route's own vertices (compacted ids).
  std::vector<VertexId> verts;
  verts.reserve(route.size() * 2);
  for (const EdgeId e : route) {
    if (e >= g.num_edges()) return false;
    verts.push_back(g.tail(e));
    verts.push_back(g.head(e));
  }
  std::sort(verts.begin(), verts.end());
  verts.erase(std::unique(verts.begin(), verts.end()), verts.end());
  constexpr std::uint32_t kAbsent = 0xffffffffu;
  const auto index = [&](VertexId v) -> std::uint32_t {
    const auto it = std::lower_bound(verts.begin(), verts.end(), v);
    return it != verts.end() && *it == v
               ? static_cast<std::uint32_t>(it - verts.begin())
               : kAbsent;
  };
  DisjointSet ds(verts.size());
  for (const EdgeId e : route) ds.unite(index(g.tail(e)), index(g.head(e)));
  const std::uint32_t root = index(source);
  if (root == kAbsent) return false;
  const std::uint32_t rep = ds.find(root);
  for (std::uint32_t v = 0; v < verts.size(); ++v) {
    if (ds.find(v) != rep) return false;  // a piece detached from the tree
  }
  return std::all_of(net.sinks.begin(), net.sinks.end(),
                     [&](const SinkPin& s) {
                       return index(grid.vertex_at(s.pos)) != kAbsent;
                     });
}

void check_routes(const RoutingGrid& grid, const Netlist& netlist,
                  const RouterResult& result, RunResult& out) {
  out.check(result.routes.size() == netlist.nets.size() &&
            result.sink_delays.size() == netlist.num_sinks());
  if (result.routes.size() != netlist.nets.size() ||
      result.sink_delays.size() != netlist.num_sinks()) {
    return;
  }
  std::size_t offset = 0;
  for (std::size_t i = 0; i < netlist.nets.size(); ++i) {
    const Net& net = netlist.nets[i];
    out.check(net_route_ok(grid, net, result.routes[i],
                           result.sink_delays.data() + offset));
    offset += net.sinks.size();
  }
}

void Quality::add(const RouterResult& r) {
  neg_ws_ps += -r.timing.worst_slack;
  neg_tns_ps += -r.timing.total_negative_slack;
  ace4_sum += r.congestion.ace4;
  wirelength += r.wires.wirelength_gcells;
  vias += static_cast<double>(r.wires.num_vias);
  ++results;
}

void Quality::report(RunResult& out) const {
  // WS is one sink's slack: its spread across seeds is too wide to gate, so
  // it is printed with the sizes instead of as a metric.
  std::printf("# quality: neg_ws_ps %.6g over %d routed chip(s)\n", neg_ws_ps,
              results);
  out.set("neg_tns_ps", neg_tns_ps, "ps");
  out.set("ace4_pct", results > 0 ? ace4_sum / results : 0.0, "%");
  out.set("wirelength_gcells", wirelength, "gcells");
  out.set("vias", vias, "count");
}

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    char brand[49] = {};
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      unsigned r[4];
      __get_cpuid(0x80000002u + leaf, &r[0], &r[1], &r[2], &r[3]);
      std::memcpy(brand + leaf * 16, r, sizeof(r));
    }
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    return s;
  }
#endif
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

}  // namespace

std::string host_fingerprint_json() {
#if defined(CDST_SIMD_AVX2)
  const char* vec4d = "avx2";
#else
  const char* vec4d = "scalar";
#endif
  bool host_avx2 = false;
#if defined(__x86_64__) || defined(__i386__)
  host_avx2 = __builtin_cpu_supports("avx2");
#endif
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"lanes\": " << bench_lanes() << ", \"cpu\": \""
     << json_escape(cpu_model()) << "\", \"host_avx2\": "
     << (host_avx2 ? "true" : "false") << ", \"compiler\": \""
     << json_escape(PERFBENCH_COMPILER) << "\", \"build_type\": \""
     << json_escape(PERFBENCH_BUILD_TYPE) << "\", \"cxx_flags\": \""
     << json_escape(PERFBENCH_CXX_FLAGS) << "\", \"vec4d\": \"" << vec4d
     << "\"}";
  return os.str();
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"grid.window_build_s", "s"},
      {"grid.window_build_ms_p50", "ms"},
      {"grid.window_build_ms_p99", "ms"},
      {"grid.windows", "count"},
      {"grid.window_vertices", "count"},
      {"grid.window_arcs", "count"},
      {"grid.window_bytes_computed", "bytes"},
      {"grid.price_snapshot_s", "s"},
      {"core.cd_solve_s", "s"},
      {"core.cd_solve_ms_p50", "ms"},
      {"core.cd_solve_ms_p99", "ms"},
      {"core.merges", "count"},
      {"core.labels_settled", "count"},
      {"core.labels_relaxed", "count"},
      {"core.completions_popped", "count"},
      {"core.completions_stale", "count"},
      {"core.completion_useful_ratio", "ratio"},
      {"core.settled_per_window_vertex", "ratio"},
      {"topology.build_s", "s"},
      {"embed.dp_s", "s"},
      {"embed.dp_ms_p99", "ms"},
      {"embed.nodes", "count"},
      {"route.oracle_busy_s", "s"},
      {"route.shard_finish_spread_ms", "ms"},
      {"route.batch_wall_ms_p50", "ms"},
      {"route.batch_idle_frac", "ratio"},
      {"route.commit_s", "s"},
      {"timing.multiplier_update_s", "s"},
      {"api.round_wall_s", "s"},
      {"api.trace_overhead_frac", "ratio"},
      {"api.parallel_efficiency", "ratio"},
      {"api.result_s", "s"},
      {"util.pool_cpu_util", "ratio"},
      {"serve.router_slice_ms_p50", "ms"},
      {"serve.solver_slice_ms_p50", "ms"},
      {"serve.step_ms_p90", "ms"},
      {"serve.solver_slice_overhead_ms", "ms"},
      {"serve.slices_total", "count"},
      {"serve.admission_rejects", "count"},
      {"serve.budget_peak_mb", "MB"},
  };
  return names;
}

}  // namespace perfbench
