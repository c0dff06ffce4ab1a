// perfbench — the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload <table1_generate|coverage_sweep|matrix_store>
//             [--seed <n>] [--seconds <s>] [--trace <0|1>]
//
// Run it from the root of a checkout: job stores go to a scratch directory
// under .bench_build/perfbench/work, removed at exit, and the traced run
// leaves its span dump beside it.  Prints a host line, then as its last line
// one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones.  Exits 0 only when every operation and check succeeded.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <filesystem>
#include <iostream>
#include <limits>
#include <string>
#include <thread>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using perfbench::Outcome;
using perfbench::RunConfig;

/// CPUs this process may run on (the container's share, not the host's).
std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<std::size_t>(count);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

bool release_build() {
#ifdef NDEBUG
  return std::string(PERFBENCH_BUILD_TYPE) == "Release";
#else
  return false;
#endif
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload "
               "<table1_generate|coverage_sweep|matrix_store> [--seed <n>] "
               "[--seconds <s>] [--trace <0|1>]\n";
  return 2;
}

void print_result(const Outcome& outcome) {
  const std::size_t failed = outcome.ledger.failed();
  std::cout.precision(std::numeric_limits<double>::max_digits10);
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << outcome.ledger.attempted()
            << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : outcome.metrics) {
    std::cout << (first ? "" : ", ") << "\"" << name
              << "\": {\"value\": " << metric.value << ", \"unit\": \""
              << metric.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        config.workload = value;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        config.trace = value == "1";
      } else {
        return usage("unknown option " + arg);
      }
    } catch (const std::exception&) {
      return usage("bad value '" + value + "' for " + arg);
    }
  }
  if (!(config.seconds > 0)) return usage("--seconds must be positive");

  Outcome (*run)(const RunConfig&) = nullptr;
  if (config.workload == "table1_generate") {
    run = perfbench::run_table1_generate;
  } else if (config.workload == "coverage_sweep") {
    run = perfbench::run_coverage_sweep;
  } else if (config.workload == "matrix_store") {
    run = perfbench::run_matrix_store;
  } else {
    return usage("unknown workload '" + config.workload + "'");
  }

  config.nproc = available_cpus();
  std::cout << "host: {\"nproc\": " << config.nproc << ", \"build_type\": \""
            << PERFBENCH_BUILD_TYPE << "\", \"compiler\": \""
            << PERFBENCH_COMPILER << "\", \"workload\": \"" << config.workload
            << "\", \"seed\": " << config.seed
            << ", \"trace\": " << (config.trace ? 1 : 0) << "}\n";
  if (!release_build()) {
    // Timings of unoptimized or assert-enabled builds are not comparable
    // with anything; refuse rather than print them.
    std::cerr << "perfbench: refusing to run a non-Release build ("
              << PERFBENCH_BUILD_TYPE << ")\n";
    return 3;
  }

  const std::string run_dir = ".bench_build/perfbench/work/" +
                              config.workload + "-" +
                              std::to_string(::getpid());
  config.work_dir = run_dir;
  config.trace_path = run_dir + ".trace.json";
  std::error_code error;
  std::filesystem::create_directories(run_dir, error);
  if (error) {
    std::cerr << "perfbench: cannot create " << run_dir << ": "
              << error.message() << "\n";
    return 1;
  }

  Outcome outcome;
  try {
    outcome = run(config);
  } catch (const std::exception& e) {
    outcome.ledger.op(false, std::string("workload aborted: ") + e.what());
  }
  std::filesystem::remove_all(run_dir, error);

  for (const auto& [name, metric] : outcome.metrics) {
    outcome.ledger.check(std::isfinite(metric.value),
                         "metric " + name + " is not finite");
  }
  print_result(outcome);
  return outcome.ledger.failed() == 0 ? 0 : 1;
}
