// Test helpers around evaluate_coverage: the per-instance reference it is
// checked against, and a workload slow enough to cancel mid-evaluation.
// Also the per-candidate reference of the greedy gain scan, and every
// scenario's verdict on the packed engine and on the scalar machine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fp/fault_list.hpp"
#include "march/march_test.hpp"
#include "sim/coverage.hpp"
#include "sim/fault_instance.hpp"
#include "sim/packed_engine.hpp"
#include "sim/simulator.hpp"

namespace mtg {

/// The coverage report by brute force: instantiate_all() and simulate every
/// sampled instance — on the packed engine (detects), or with
/// `scalar` on the scalar reference machine (detects_scalar) — aggregating
/// in instance order (counts, first escaping instance).  evaluate_coverage
/// simulates one instance per behaviour class and must reproduce this byte
/// for byte.
CoverageReport evaluate_coverage_per_instance(
    const FaultSimulator& simulator, const MarchTest& test,
    const FaultList& list, std::size_t max_instances_per_fault,
    bool scalar = false);

/// The behaviour classes of one decoder fault by walking decoder_sample()
/// address by address: a class per value of bit `bit`, in order of first
/// sampled address, each represented by that address and weighted by the
/// sampled addresses it holds.  behaviour_classes() counts the whole address
/// set in closed form and must reproduce this walk exactly.
std::vector<BehaviourClass> decoder_classes_by_walk(const DecoderFault& fault,
                                                    std::size_t n,
                                                    std::size_t cap,
                                                    std::size_t fault_index);

/// One weight-1 behaviour class per instance: a PrefixEngine or minimizer
/// input that simulates the per-instance set itself, uncollapsed.
std::vector<BehaviourClass> instance_classes(
    const std::vector<FaultInstance>& instances);

/// Greedy gains by brute force: every instance (uncollapsed) is simulated
/// through `prefix` one scenario block at a time; each block is then copied
/// and run through each candidate with run_element (⇕ read as ⇑), counting
/// the scenarios it newly detects.  No collapsing, no batching, no pruning:
/// PrefixEngine::gain_scan must reproduce these gains for every candidate
/// that can win or tie the greedy selection.
std::vector<std::size_t> reference_gains(
    const std::vector<FaultInstance>& instances, const MarchTest& prefix,
    const std::vector<MarchElement>& candidates);

/// True when `test` detects every instance in `instances` on the packed
/// engine: a loop over detects() sharing one compiled test.
bool detects_every(const FaultSimulator& simulator, const MarchTest& test,
                   const std::vector<FaultInstance>& instances);

/// Every scenario's detected bit on the packed engine: per 64-lane block,
/// the `detected` word after power_on_block and every element's
/// run_element, with no early exit.  Scenario sc = power_on · 2^⇕ + mask
/// is bit (sc mod 64) of word (sc div 64).
std::vector<std::uint64_t> packed_detected_words(const MarchTest& test,
                                                 const PackedFaultSim& sim);

/// The same words from the scalar machine: a scenario's bit is set iff
/// run_scenario detects the instance in it.
std::vector<std::uint64_t> scalar_detected_words(
    const FaultSimulator& simulator, const MarchTest& test,
    const FaultInstance& instance);

/// A (test, list) pair whose evaluation takes hundreds of milliseconds on
/// the packed engine at any memory size: Fault List #1 repeated 16 times
/// against a test of ten ⇕ elements (2048 scenarios per fault).
MarchTest slow_coverage_test();
FaultList slow_coverage_list();

}  // namespace mtg
