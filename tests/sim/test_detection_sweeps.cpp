// Parameterized detection sweeps: exhaustive fault × test matrices pinning
// down the detection capability of the library's published tests.
#include <gtest/gtest.h>

#include "fp/fault_list.hpp"
#include "march/catalog.hpp"
#include "sim/coverage.hpp"

namespace mtg {
namespace {

std::string sanitize(std::string name) {
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

// --- every simple static fault is covered by March SS and March SL ---------

class SimpleFaultSweep : public ::testing::TestWithParam<SimpleFault> {};

TEST_P(SimpleFaultSweep, CoveredByMarchSs) {
  const FaultSimulator simulator(SimulatorOptions{5});
  const SimpleFault& fault = GetParam();
  for (const FaultInstance& inst : instantiate(fault, 5, 0)) {
    EXPECT_TRUE(simulator.detects(march_ss(), inst)) << inst.description;
  }
}

TEST_P(SimpleFaultSweep, CoveredByMarchSl) {
  const FaultSimulator simulator(SimulatorOptions{5});
  const SimpleFault& fault = GetParam();
  for (const FaultInstance& inst : instantiate(fault, 5, 0)) {
    EXPECT_TRUE(simulator.detects(march_sl(), inst)) << inst.description;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSimpleStaticFaults, SimpleFaultSweep,
    ::testing::ValuesIn(standard_simple_static_faults().simple),
    [](const ::testing::TestParamInfo<SimpleFault>& param_info) {
      return sanitize(param_info.param.name) + "_" + std::to_string(param_info.index);
    });

// --- every single-cell linked fault is covered by the linked-fault tests ---

class SingleCellLinkedSweep : public ::testing::TestWithParam<LinkedFault> {};

TEST_P(SingleCellLinkedSweep, CoveredByAbl1AndLf1AndSl) {
  const FaultSimulator simulator(SimulatorOptions{5});
  for (const MarchTest& test : {march_abl1(), march_lf1(), march_sl()}) {
    for (const FaultInstance& inst : instantiate(GetParam(), 5, 0)) {
      EXPECT_TRUE(simulator.detects(test, inst))
          << test.name() << " vs " << inst.description;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FaultListTwo, SingleCellLinkedSweep,
    ::testing::ValuesIn(enumerate_single_cell_linked_faults()),
    [](const ::testing::TestParamInfo<LinkedFault>& param_info) {
      return sanitize(param_info.param.name()) + "_" + std::to_string(param_info.index);
    });

// --- no catalog test ever raises a false alarm ------------------------------

class FalseAlarmSweep : public ::testing::TestWithParam<MarchTest> {};

TEST_P(FalseAlarmSweep, FaultFreeMemoryPasses) {
  // A march test must pass on a fault-free memory for every power-on value
  // and every ⇕ order assignment (otherwise it rejects good parts).
  const FaultSimulator simulator(SimulatorOptions{6});
  FaultInstance none;
  none.description = "fault-free";
  EXPECT_FALSE(simulator.detects(GetParam(), none));
  const std::size_t combos = std::size_t{1}
                             << FaultSimulator::any_order_count(GetParam());
  for (const Bit power_on : {Bit::Zero, Bit::One}) {
    for (std::size_t mask = 0; mask < combos; ++mask) {
      EXPECT_FALSE(simulator.run_scenario(GetParam(), none, power_on, mask))
          << "power-on " << power_on << ", mask " << mask;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCatalogTests, FalseAlarmSweep,
    ::testing::ValuesIn(all_catalog_tests()),
    [](const ::testing::TestParamInfo<MarchTest>& param_info) {
      return sanitize(param_info.param.name());
    });

// --- detection is layout-symmetric ------------------------------------------

class LayoutSymmetrySweep : public ::testing::TestWithParam<LinkedFault> {};

TEST_P(LayoutSymmetrySweep, SlCoversEveryAddressAssignment) {
  // March SL applies its elements in both orders, so coverage must not
  // depend on where the fault's cells sit in the address space.
  const FaultSimulator simulator(SimulatorOptions{6});
  for (const FaultInstance& inst : instantiate(GetParam(), 6, 0)) {
    EXPECT_TRUE(simulator.detects(march_sl(), inst)) << inst.description;
  }
}

INSTANTIATE_TEST_SUITE_P(
    TwoCellSample, LayoutSymmetrySweep,
    ::testing::ValuesIn([] {
      // A deterministic sample of the two-cell linked faults (every 10th) —
      // the full list is exercised by the calibration integration test.
      std::vector<LinkedFault> sample;
      const auto all = enumerate_two_cell_linked_faults();
      for (std::size_t i = 0; i < all.size(); i += 10) sample.push_back(all[i]);
      return sample;
    }()),
    [](const ::testing::TestParamInfo<LinkedFault>& param_info) {
      return sanitize(param_info.param.name()) + "_" + std::to_string(param_info.index);
    });

}  // namespace
}  // namespace mtg
