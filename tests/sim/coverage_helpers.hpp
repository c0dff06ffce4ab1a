// Test helpers around evaluate_coverage: the per-instance reference it is
// checked against, and a workload slow enough to cancel mid-evaluation.
#pragma once

#include <cstddef>

#include "fp/fault_list.hpp"
#include "march/march_test.hpp"
#include "sim/coverage.hpp"
#include "sim/simulator.hpp"

namespace mtg {

/// The coverage report by brute force: instantiate_all() and simulate every
/// sampled instance on the simulator's engine, aggregating in instance
/// order (counts, first escaping instance).  evaluate_coverage simulates
/// one instance per behaviour class and must reproduce this byte for byte.
CoverageReport evaluate_coverage_per_instance(
    const FaultSimulator& simulator, const MarchTest& test,
    const FaultList& list, std::size_t max_instances_per_fault);

/// A (test, list) pair whose evaluation takes hundreds of milliseconds on
/// the packed engine at any memory size: Fault List #1 repeated 16 times
/// against a test of ten ⇕ elements (2048 scenarios per fault).
MarchTest slow_coverage_test();
FaultList slow_coverage_list();

}  // namespace mtg
