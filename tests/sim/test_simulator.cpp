#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "march/catalog.hpp"
#include "march/parser.hpp"
#include "memory/pattern_graph.hpp"

namespace mtg {
namespace {

FaultInstance single_instance(FaultPrimitive fp, std::size_t cell) {
  FaultInstance inst;
  inst.fps.push_back(BoundFp::at(std::move(fp), cell));
  inst.description = "test instance";
  return inst;
}

TEST(Simulator, ValidityAcceptsCatalogTests) {
  for (const MarchTest& test : all_catalog_tests()) {
    EXPECT_EQ(FaultSimulator::validity_violation(test), "") << test.name();
  }
}

TEST(Simulator, ValidityRejectsReadBeforeInit) {
  const MarchTest bad = parse_march_test("{c(r0,w0)}");
  EXPECT_NE(FaultSimulator::validity_violation(bad), "");
  EXPECT_THROW(FaultSimulator::validate(bad), Error);
}

TEST(Simulator, ValidityRejectsWrongExpectedValue) {
  const MarchTest bad = parse_march_test("{c(w0); ^(r1,w0)}");
  EXPECT_NE(FaultSimulator::validity_violation(bad), "");
}

TEST(Simulator, ValidityAllowsBareReads) {
  const MarchTest ok = parse_march_test("{c(r); c(w0); c(r0)}");
  EXPECT_EQ(FaultSimulator::validity_violation(ok), "");
}

TEST(Simulator, DetectsStuckStateFault) {
  const FaultSimulator simulator(SimulatorOptions{4});
  EXPECT_TRUE(
      simulator.detects(mats_plus(), single_instance(FaultPrimitive::sf(Bit::One), 2)));
  EXPECT_TRUE(
      simulator.detects(mats_plus(), single_instance(FaultPrimitive::sf(Bit::Zero), 0)));
}

TEST(Simulator, DetectsTransitionFaults) {
  const FaultSimulator simulator(SimulatorOptions{4});
  EXPECT_TRUE(simulator.detects(
      mats_plus(), single_instance(FaultPrimitive::tf(Bit::Zero), 1)));
  // MATS+ ends with the w0 that sensitizes TF↓ and never reads it back —
  // the classic reason March X appends the final ⇕(r0).
  EXPECT_FALSE(simulator.detects(
      mats_plus(), single_instance(FaultPrimitive::tf(Bit::One), 3)));
  EXPECT_TRUE(simulator.detects(
      march_x(), single_instance(FaultPrimitive::tf(Bit::One), 3)));
}

TEST(Simulator, MatsPlusMissesWriteDestructiveFaults) {
  // MATS+ performs only transition writes, so WDFs are never sensitized.
  const FaultSimulator simulator(SimulatorOptions{4});
  EXPECT_FALSE(simulator.detects(
      mats_plus(), single_instance(FaultPrimitive::wdf(Bit::Zero), 1)));
  // March SS contains non-transition writes followed by reads.
  EXPECT_TRUE(simulator.detects(
      march_ss(), single_instance(FaultPrimitive::wdf(Bit::Zero), 1)));
}

TEST(Simulator, DeceptiveReadNeedsDoubleReads) {
  const FaultSimulator simulator(SimulatorOptions{4});
  const auto drdf = single_instance(FaultPrimitive::drdf(Bit::Zero), 2);
  EXPECT_FALSE(simulator.detects(mats_plus(), drdf));
  EXPECT_TRUE(simulator.detects(march_ss(), drdf));   // has r0,r0 pairs
  EXPECT_TRUE(simulator.detects(march_sl(), drdf));
}

TEST(Simulator, AnyReadCatchesRdf) {
  const FaultSimulator simulator(SimulatorOptions{4});
  EXPECT_TRUE(simulator.detects(
      mats_plus(), single_instance(FaultPrimitive::rdf(Bit::Zero), 0)));
  EXPECT_TRUE(simulator.detects(
      mats_plus(), single_instance(FaultPrimitive::irf(Bit::One), 0)));
}

TEST(Simulator, LinkedDisturbCouplingDetectedBySl) {
  // The linked CF of Equations 12-14 is caught by March SL at every address
  // assignment (the paper's Section 6 validation flow).
  const FaultSimulator simulator(SimulatorOptions{4});
  const LinkedFault lf = disturb_coupling_linked_fault();
  for (const FaultInstance& inst : instantiate(lf, 4, 0)) {
    EXPECT_TRUE(simulator.detects(march_sl(), inst)) << inst.description;
  }
}

TEST(Simulator, LinkedWdfPairEscapesClassicTests) {
  // WDF0→WDF1 on one cell: classic tests never perform the back-to-back
  // non-transition writes needed to expose either component in isolation.
  const FaultSimulator simulator(SimulatorOptions{4});
  FaultInstance inst;
  inst.fps.push_back(BoundFp::at(FaultPrimitive::wdf(Bit::Zero), 1));
  inst.fps.push_back(BoundFp::at(FaultPrimitive::wdf(Bit::One), 1));
  inst.description = "WDF0→WDF1";
  for (const MarchTest& classic : {mats_plus(), march_x(), march_y(),
                                   march_c_minus(), march_a(), march_b()}) {
    EXPECT_FALSE(simulator.detects(classic, inst)) << classic.name();
  }
  for (const MarchTest& linked_aware :
       {march_ss(), march_sl(), march_lf1(), march_abl1()}) {
    EXPECT_TRUE(simulator.detects(linked_aware, inst)) << linked_aware.name();
  }
}

TEST(Simulator, SimulateReportsScenarioDiagnostics) {
  const FaultSimulator simulator(SimulatorOptions{4});
  // Detected fault: every scenario reports a detection event.
  const auto tf_up = single_instance(FaultPrimitive::tf(Bit::Zero), 1);
  EXPECT_TRUE(simulator.detects(march_x(), tf_up));
  EXPECT_TRUE(simulator.run_scenario(march_x(), tf_up, Bit::Zero, 0));
  // Escaping fault: MATS+ never reads a cell after its 1→0 write, so the
  // failing transition escapes from the all-0 power-on.
  const auto tf_down = single_instance(FaultPrimitive::tf(Bit::One), 1);
  EXPECT_FALSE(simulator.detects(mats_plus(), tf_down));
  EXPECT_FALSE(simulator.run_scenario(mats_plus(), tf_down, Bit::Zero, 0));
}

TEST(Simulator, RunScenarioReportsEventDetails) {
  const FaultSimulator simulator(SimulatorOptions{4});
  const auto inst = single_instance(FaultPrimitive::sf(Bit::One), 2);
  // March X: {⇕(w0); ⇑(r0,w1); ⇓(r1,w0); ⇕(r0)} — SF1 collapses w1 results.
  const auto event =
      simulator.run_scenario(march_x(), inst, Bit::Zero, /*mask=*/0);
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->address, 2u);
  EXPECT_EQ(event->expected, Bit::One);
  EXPECT_EQ(event->observed, Bit::Zero);
  EXPECT_FALSE(event->to_string().empty());
}

TEST(Simulator, AnyOrderElementsMustDetectUnderBothOrders) {
  // A contrived test that detects the a<v disturb CF only when marching up:
  // sensitize at the aggressor then read the victim in the same sweep.
  const MarchTest up_only = parse_march_test("{c(w0); ^(r0,w1); ^(r1)}", "up");
  const MarchTest any_order =
      parse_march_test("{c(w0); c(r0,w1); c(r1)}", "any");
  const FaultSimulator simulator(SimulatorOptions{4});
  FaultInstance cf;
  cf.fps.push_back(BoundFp(
      FaultPrimitive::cfds(Bit::Zero, SenseOp::W1, Bit::Zero), /*a=*/0, /*v=*/2));
  EXPECT_TRUE(simulator.detects(up_only, cf));
  // With ⇕ the tester may pick Down, where the victim is read before the
  // aggressor is written: the fault escapes that order, so it is NOT covered.
  EXPECT_FALSE(simulator.detects(any_order, cf));
}

TEST(Simulator, AnyOrderCount) {
  EXPECT_EQ(FaultSimulator::any_order_count(mats_plus()), 1u);
  EXPECT_EQ(FaultSimulator::any_order_count(march_abl1()), 3u);
  EXPECT_EQ(FaultSimulator::any_order_count(march_sl()), 1u);
}

TEST(Simulator, OptionsValidation) {
  EXPECT_THROW(FaultSimulator(SimulatorOptions{2}), Error);
}

TEST(Simulator, FaultFreeInstanceNeverDetected) {
  // An empty fault set produces no mismatch on any catalog test.
  const FaultSimulator simulator(SimulatorOptions{4});
  FaultInstance none;
  none.description = "fault-free";
  for (const MarchTest& test : all_catalog_tests()) {
    EXPECT_FALSE(simulator.detects(test, none)) << test.name();
  }
}

}  // namespace
}  // namespace mtg
