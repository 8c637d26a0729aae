// perfbench: runs one named workload with a seed for a time budget, checks
// its outputs and prints the result as the last line of stdout:
//
//   perfbench --workload route_cd --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
// of a separate traced replay (and writes a Chrome trace file). Lines
// before the result start with '#' and carry the host fingerprint and the
// workload's sizes.

#include <cstdio>
#include <exception>
#include <string>

#include "common.h"

namespace {

using perfbench::Args;
using perfbench::RunResult;

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--replay-round-offset") {
      args.replay_round_offset = std::stoi(value);
    } else if (key == "--trace-dir") {
      args.trace_dir = value;
    } else {
      return false;
    }
  }
  return !args.workload.empty();
}

void print_result(const RunResult& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    if (!parse(argc, argv, args)) {
      std::fprintf(stderr,
                   "usage: perfbench --workload route_cd|route_pd|serve_mixed "
                   "--seed N --seconds S --trace 0|1\n");
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: bad argument: %s\n", e.what());
    return 2;
  }
  std::printf("# host %s\n", perfbench::host_fingerprint_json().c_str());

  RunResult result;
  int rc = 0;
  try {
    if (args.workload == "route_cd" || args.workload == "route_pd") {
      rc = perfbench::run_route_workload(args, result);
    } else if (args.workload == "serve_mixed") {
      rc = perfbench::run_serve_workload(args, result);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (rc != 0) return rc;
  if (args.trace) {
    // Layers a workload does not execute report 0.
    for (const auto& [name, unit] : perfbench::layer_metric_units()) {
      if (result.metrics.count(name) == 0) result.set(name, 0.0, unit);
    }
  }
  print_result(result);
  std::fflush(stdout);
  return 0;
}
