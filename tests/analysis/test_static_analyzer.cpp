// Unit tests for the symbolic march analyzer: known verdicts on classic
// tests, definiteness (the analyzer must not hide behind Unknown on the
// catalog), analytic instance counts, and witness-explanation round-trips —
// every Detected witness replays on the scalar simulator to the exact
// failing read it names.
#include <gtest/gtest.h>

#include "analysis/static_analyzer.hpp"
#include "march/catalog.hpp"
#include "march/parser.hpp"
#include "sim/simulator.hpp"

namespace mtg {
namespace {


TEST(StaticAnalyzer, MarchSsDetectsEverySimpleStaticFault) {
  const MarchTest test = march_ss();
  const StaticCoverage coverage =
      analyze_coverage(test, standard_simple_static_faults(), 6);
  EXPECT_EQ(coverage.unknown, 0u);
  EXPECT_EQ(coverage.not_detected, 0u);
  EXPECT_EQ(coverage.detected, coverage.entries.size());
  for (const StaticCoverageEntry& entry : coverage.entries) {
    ASSERT_TRUE(entry.witness.has_value()) << entry.fault_name;
    EXPECT_FALSE(entry.witness->to_string().empty());
  }
}

TEST(StaticAnalyzer, MarchSlDetectsFaultListOne) {
  const StaticCoverage coverage =
      analyze_coverage(march_sl(), fault_list_1(), 6);
  EXPECT_EQ(coverage.unknown, 0u);
  EXPECT_EQ(coverage.not_detected, 0u);
}

TEST(StaticAnalyzer, MatsPlusMissesCoupledFaults) {
  // MATS+ targets address faults and unlinked SAFs/TFs; the coupled-fault
  // part of the simple static list escapes it.
  const StaticCoverage coverage =
      analyze_coverage(mats_plus(), standard_simple_static_faults(), 6);
  EXPECT_EQ(coverage.unknown, 0u);
  EXPECT_GT(coverage.not_detected, 0u);
  EXPECT_GT(coverage.detected, 0u);
  for (const StaticCoverageEntry& entry : coverage.entries) {
    if (entry.verdict == StaticVerdict::NotDetected) {
      EXPECT_NE(entry.reason.find("escapes"), std::string::npos)
          << entry.fault_name << ": " << entry.reason;
    }
  }
}

TEST(StaticAnalyzer, RetentionFaultsNeedAWaitOp) {
  const SimpleFault drf0 = retention_fault_list().simple.front();
  ASSERT_TRUE(drf0.fp.is_retention());
  const StaticResult without_wait = analyze_fault(march_ss(), drf0, 6);
  EXPECT_EQ(without_wait.verdict, StaticVerdict::NotDetected);
  const StaticResult with_wait = analyze_fault(march_g(), drf0, 6);
  EXPECT_EQ(with_wait.verdict, StaticVerdict::Detected);
}

TEST(StaticAnalyzer, DecoderVerdictsDependOnMemorySize) {
  DecoderFault fault;
  fault.cls = DecoderFaultClass::NoAccess;
  fault.bit = 3;  // 2^3 = 8: no instances below nine cells
  const StaticResult small = analyze_fault(march_ss(), fault, 8);
  EXPECT_EQ(small.verdict, StaticVerdict::NotDetected);
  EXPECT_NE(small.reason.find("no instances"), std::string::npos);
  const StaticResult large = analyze_fault(march_ss(), fault, 9);
  EXPECT_EQ(large.verdict, StaticVerdict::Detected);
}

TEST(StaticAnalyzer, ZeroInstanceFaultsReportNotDetected) {
  // Mirrors evaluate_coverage: a fault with no instances counts uncovered.
  const SimpleFault three_cell = SimpleFault::single(
      FaultPrimitive::single(Bit::Zero, SenseOp::None, Bit::One));
  const StaticResult result = analyze_fault(march_ss(), three_cell, 0);
  EXPECT_EQ(result.verdict, StaticVerdict::NotDetected);
}

TEST(StaticAnalyzer, InstanceCountsMatchEnumeration) {
  // analyze_coverage counts instances analytically with kept_layouts and
  // decoder_address_count; both must equal the uncapped enumeration.
  const FaultList list = fault_list_1();
  for (std::size_t n : {3u, 4u, 6u, 9u}) {
    std::size_t index = 0;
    for (const SimpleFault& fault : list.simple) {
      EXPECT_EQ(
          kept_layouts(n, static_cast<std::size_t>(fault.num_cells()), 0),
          instantiate(fault, n, index++, 0).size())
          << fault.name << " n=" << n;
    }
    for (const LinkedFault& fault : list.linked) {
      EXPECT_EQ(
          kept_layouts(n, static_cast<std::size_t>(fault.num_cells()), 0),
          instantiate(fault, n, index++, 0).size())
          << fault.name() << " n=" << n;
    }
  }
  for (const DecoderFault& fault : decoder_fault_list(5).decoder) {
    for (std::size_t n : {3u, 4u, 6u, 9u, 17u, 32u}) {
      EXPECT_EQ(decoder_address_count(fault, n),
                instantiate(fault, n, 0, 0).size())
          << fault.name() << " n=" << n;
    }
  }
}

TEST(StaticAnalyzer, HugeMemoryCountsAreAnalytic) {
  // 2^40 cells: enumeration is impossible, the analytic count is instant.
  const std::size_t n = std::size_t{1} << 40;
  const SimpleFault single = standard_simple_static_faults().simple.front();
  EXPECT_EQ(kept_layouts(n, static_cast<std::size_t>(single.num_cells()), 0),
            static_cast<std::uint64_t>(n));
  DecoderFault decoder;
  decoder.cls = DecoderFaultClass::WrongCell;
  decoder.bit = 10;
  EXPECT_EQ(decoder_address_count(decoder, n), n);
}

/// Replays a Detected witness on the scalar simulator: the scenario it
/// names must produce its failing read at the exact element, operation and
/// cell (witness slots are ranks among the instance's involved cells).
void expect_witness_replays(const MarchTest& test, const FaultInstance& inst,
                            const StaticWitness& witness,
                            const std::string& label) {
  std::vector<std::size_t> cells;
  for (const BoundFp& bound : inst.fps) {
    cells.push_back(bound.a_cell);
    cells.push_back(bound.v_cell);
  }
  for (const BoundDecoder& bound : inst.decoders) {
    cells.push_back(bound.a_cell);
    cells.push_back(bound.v_cell);
  }
  std::sort(cells.begin(), cells.end());
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  ASSERT_LT(witness.observe_slot, cells.size()) << label;

  SimulatorOptions options;
  options.memory_size = 6;
  const FaultSimulator simulator(options);
  const auto event =
      simulator.run_scenario(test, inst, witness.power_on, witness.any_mask);
  ASSERT_TRUE(event.has_value()) << label << ": witness scenario escaped\n  "
                                 << witness.to_string();
  EXPECT_EQ(event->element_index, witness.observe_element) << label;
  EXPECT_EQ(event->op_index, witness.observe_op) << label;
  EXPECT_EQ(event->address, cells[witness.observe_slot]) << label;
  EXPECT_EQ(event->expected, witness.expected) << label;
  EXPECT_EQ(event->observed, witness.observed) << label;
}

TEST(StaticAnalyzer, WitnessesReplayOnTheScalarSimulator) {
  const std::vector<MarchTest> tests = {march_ss(), march_sl(), march_g(),
                                        mats_plus(), march_abl()};
  FaultList list = fault_list_2();
  for (const SimpleFault& fault : retention_fault_list().simple) {
    list.simple.push_back(fault);
  }
  for (const DecoderFault& fault : decoder_fault_list(2).decoder) {
    list.decoder.push_back(fault);
  }
  for (const MarchTest& test : tests) {
    const std::vector<FaultInstance> instances = instantiate_all(list, 6, 0);
    for (std::size_t i = 0; i < instances.size(); i += 5) {
      const StaticResult result = analyze_instance(test, instances[i]);
      if (result.verdict != StaticVerdict::Detected) continue;
      ASSERT_TRUE(result.witness.has_value());
      expect_witness_replays(test, instances[i], *result.witness,
                             test.name() + " / " + instances[i].description);
    }
  }
}

TEST(StaticAnalyzer, WitnessExplanationNamesTheSensitizer) {
  // Some op-sensitized fault on March SS must produce an explanation that
  // names the firing FP next to the sensitizing and observing op pair.
  bool found = false;
  for (const SimpleFault& fault : standard_simple_static_faults().simple) {
    const StaticResult result = analyze_fault(march_ss(), fault, 6);
    ASSERT_EQ(result.verdict, StaticVerdict::Detected) << fault.name;
    ASSERT_TRUE(result.witness.has_value());
    if (!result.witness->has_sense || result.witness->sense_at_power_on) {
      continue;
    }
    const std::string text = result.witness->to_string();
    EXPECT_NE(text.find("sensitized by"), std::string::npos) << text;
    EXPECT_NE(text.find(fault.fp.notation()), std::string::npos) << text;
    EXPECT_NE(text.find("element #"), std::string::npos) << text;
    EXPECT_NE(text.find("reads"), std::string::npos) << text;
    found = true;
  }
  EXPECT_TRUE(found);
}

TEST(StaticAnalyzer, UnknownOnOversizedInstances) {
  // Five involved cells exceed the abstract domain: verdict must fall back.
  FaultInstance inst;
  const FaultPrimitive cf = standard_simple_static_faults().simple.back().fp;
  inst.fps.push_back(BoundFp(cf, 0, 4));
  inst.fps.push_back(BoundFp(cf, 1, 3));
  inst.fps.push_back(BoundFp(cf, 2, 4));
  inst.description = "five-cell stress";
  const StaticResult result = analyze_instance(march_ss(), inst);
  EXPECT_EQ(result.verdict, StaticVerdict::Unknown);
  EXPECT_FALSE(result.reason.empty());
}

TEST(StaticAnalyzer, FourBoundFpsAreTheDomainLimit) {
  // Four FPs (4 armed bits + 8 cell bits: at most 4096 configurations) are
  // analyzed definitely and agree with the scalar machine; a fifth FP on
  // the same two cells is outside the abstract domain.
  FaultInstance inst;
  inst.fps.push_back(
      BoundFp(FaultPrimitive::cfds(Bit::Zero, SenseOp::W1, Bit::Zero), 0, 1));
  inst.fps.push_back(
      BoundFp(FaultPrimitive::cfds(Bit::One, SenseOp::W0, Bit::One), 1, 0));
  inst.fps.push_back(BoundFp::at(FaultPrimitive::sf(Bit::One), 0));
  inst.fps.push_back(BoundFp::at(FaultPrimitive::irf(Bit::Zero), 1));
  inst.description = "four-FP stress";
  const FaultSimulator simulator(SimulatorOptions{4});
  for (const MarchTest& test : all_catalog_tests()) {
    const StaticResult result = analyze_instance(test, inst);
    ASSERT_TRUE(result.definite()) << test.name() << ": " << result.reason;
    EXPECT_EQ(result.verdict == StaticVerdict::Detected,
              simulator.detects_scalar(test, inst))
        << test.name();
  }
  inst.fps.push_back(BoundFp::at(FaultPrimitive::wdf(Bit::Zero), 0));
  const StaticResult result = analyze_instance(march_ss(), inst);
  EXPECT_EQ(result.verdict, StaticVerdict::Unknown);
  EXPECT_NE(result.reason.find("too many bound fault primitives"),
            std::string::npos)
      << result.reason;
}

TEST(StaticAnalyzer, SummaryLineIsStable) {
  const StaticCoverage coverage =
      analyze_coverage(mats_plus(), fault_list_2(), 6);
  const std::string summary = coverage.summary();
  EXPECT_NE(summary.find("static: "), std::string::npos);
  EXPECT_NE(summary.find("of " + std::to_string(coverage.entries.size()) +
                         " faults"),
            std::string::npos);
}

}  // namespace
}  // namespace mtg
