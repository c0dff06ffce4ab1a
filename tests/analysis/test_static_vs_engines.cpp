// The soundness lock at catalog scale: every definite static verdict must
// agree with the packed engine (whose equality with the scalar engine is
// locked by the differential fuzz harness), and a sampled subset is checked
// against the scalar reference directly.  Random-test coverage of the same
// contract lives in tests/sim/test_differential_fuzz.cpp (three-way
// static == packed == scalar per fuzzed instance).
#include <gtest/gtest.h>

#include "analysis/static_analyzer.hpp"
#include "march/catalog.hpp"
#include "sim/coverage.hpp"
#include "sim/simulator.hpp"

namespace mtg {
namespace {

/// Fault lists that exercise every analyzer branch: simple single/two-cell,
/// linked 1-3 cell, retention and all four decoder classes.
std::vector<FaultList> lock_lists() {
  return {fault_list_2(), standard_simple_static_faults(),
          retention_fault_list(), decoder_fault_list(4)};
}

class StaticVsEngines : public ::testing::TestWithParam<MarchTest> {};

TEST_P(StaticVsEngines, DefiniteVerdictsMatchPackedCoverage) {
  const MarchTest& test = GetParam();
  SimulatorOptions sim_options;
  sim_options.memory_size = 6;
  const FaultSimulator simulator(sim_options);

  for (const FaultList& list : lock_lists()) {
    const CoverageReport report =
        evaluate_coverage(simulator, test, list, /*max_instances_per_fault=*/0);
    const StaticCoverage statics =
        analyze_coverage(test, list, sim_options.memory_size);
    ASSERT_EQ(report.entries.size(), statics.entries.size());
    for (std::size_t i = 0; i < statics.entries.size(); ++i) {
      const StaticCoverageEntry& entry = statics.entries[i];
      if (entry.verdict == StaticVerdict::Unknown) continue;
      const bool statically_covered =
          entry.verdict == StaticVerdict::Detected;
      EXPECT_EQ(statically_covered, report.entries[i].covered)
          << "list '" << list.name << "', fault '" << entry.fault_name
          << "' (#" << i << "): static verdict " << to_string(entry.verdict)
          << " vs packed coverage, test " << test.to_string()
          << (entry.witness.has_value()
                  ? "\n  witness: " + entry.witness->to_string()
                  : "\n  reason: " + entry.reason);
    }
  }
}

TEST_P(StaticVsEngines, SampledVerdictsMatchScalarEngine) {
  const MarchTest& test = GetParam();
  SimulatorOptions sim_options;
  sim_options.memory_size = 4;
  const FaultSimulator simulator(sim_options);

  // Instance-level spot check against the scalar engine: every 7th instance
  // of fault list 2 plus all decoder instances (the branches the packed
  // check above reaches only via fault-level aggregation).
  FaultList list = fault_list_2();
  for (const DecoderFault& fault : decoder_fault_list(4).decoder) {
    list.decoder.push_back(fault);
  }
  const std::vector<FaultInstance> instances =
      instantiate_all(list, sim_options.memory_size,
                      /*max_instances_per_fault=*/0);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    if (i % 7 != 0 && instances[i].decoders.empty()) continue;
    const StaticResult result = analyze_instance(test, instances[i]);
    if (!result.definite()) continue;
    const bool expected = simulator.detects_scalar(test, instances[i]);
    EXPECT_EQ(result.verdict == StaticVerdict::Detected, expected)
        << "instance '" << instances[i].description << "' (#" << i
        << "): static verdict " << to_string(result.verdict)
        << " vs scalar engine, test " << test.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, StaticVsEngines, ::testing::ValuesIn(all_catalog_tests()),
    [](const ::testing::TestParamInfo<MarchTest>& param_info) {
      std::string name = param_info.param.name();
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace mtg
