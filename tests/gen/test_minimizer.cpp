#include "gen/minimizer.hpp"

#include <gtest/gtest.h>

#include "fp/fault_list.hpp"
#include "march/catalog.hpp"
#include "march/parser.hpp"
#include "minimizer_reference.hpp"

namespace mtg {
namespace {

std::vector<FaultInstance> instances_for(const FaultList& list, std::size_t n) {
  return instantiate_all(list, n);
}

/// minimize_test on the behaviour classes of `list` at n = 4.
MarchTest minimize(const MarchTest& test, const FaultList& list,
                   std::vector<std::string>* log = nullptr) {
  return minimize_classes(test, behaviour_classes(list, 4), 4, log);
}

TEST(Minimizer, CoversAllAgreesWithCoverage) {
  const FaultSimulator simulator(SimulatorOptions{4});
  const FaultList list = fault_list_2();
  const auto instances = instances_for(list, 4);
  EXPECT_TRUE(covers_all(simulator, march_abl1(), instances));
  EXPECT_FALSE(covers_all(simulator, mats_plus(), instances));
}

TEST(Minimizer, CoversAllRejectsInvalidTests) {
  const FaultSimulator simulator(SimulatorOptions{4});
  const MarchTest invalid = parse_march_test("{c(r1)}", "bad");
  EXPECT_FALSE(covers_all(simulator, invalid, {}));
}

TEST(Minimizer, RemovesRedundantElements) {
  const FaultSimulator simulator(SimulatorOptions{4});
  const FaultList list = fault_list_2();
  const auto instances = instances_for(list, 4);

  // ABL1 padded with useless work.
  MarchTest padded = parse_march_test(
      "{c(w0); c(w0,r0,r0,w1); c(w1,r1,r1,w0); c(r0,w1); c(r1,w0)}", "padded");
  ASSERT_TRUE(covers_all(simulator, padded, instances));

  std::vector<std::string> log;
  const MarchTest minimized = minimize(padded, list, &log);
  EXPECT_LT(minimized.complexity(), padded.complexity());
  EXPECT_LE(minimized.complexity(), march_abl1().complexity());
  EXPECT_TRUE(covers_all(simulator, minimized, instances));
  EXPECT_FALSE(log.empty());
}

TEST(Minimizer, MinimalTestIsAFixpoint) {
  const FaultSimulator simulator(SimulatorOptions{4});
  const FaultList list = fault_list_2();
  const auto instances = instances_for(list, 4);
  const MarchTest once = minimize(march_abl1(), list);
  const MarchTest twice = minimize(once, list);
  EXPECT_EQ(once, twice);
  EXPECT_TRUE(covers_all(simulator, once, instances));
}

TEST(Minimizer, PreservesCoverageProperty) {
  // Property: for several tests and lists, minimization never loses
  // coverage and never increases complexity.
  const FaultSimulator simulator(SimulatorOptions{4});
  const FaultList list = fault_list_2();
  const auto instances = instances_for(list, 4);
  for (const MarchTest& test : {march_abl1(), march_lf1(), march_ss()}) {
    const MarchTest minimized = minimize(test, list);
    EXPECT_LE(minimized.complexity(), test.complexity()) << test.name();
    EXPECT_TRUE(covers_all(simulator, minimized, instances)) << test.name();
  }
}

TEST(Minimizer, SingleElementTestsAreReturnedUnchanged) {
  // Both inner loops must handle the degenerate shapes: one element is never
  // dropped (the test would vanish), and a one-op element is left to the
  // element-removal pass.
  const FaultSimulator simulator(SimulatorOptions{4});
  for (const char* notation : {"{c(w0)}", "{c(w0,r0)}"}) {
    const MarchTest test = parse_march_test(notation, "tiny");
    std::vector<std::string> log;
    const MarchTest minimized = minimize_classes(test, {}, 4, &log);
    // With no instances to keep covered, only op-dropping inside the
    // two-op element can fire; the single-op test is a strict fixpoint.
    EXPECT_TRUE(covers_all(simulator, minimized, {}));
    EXPECT_GE(minimized.elements().size(), 1u);
    EXPECT_EQ(minimize_classes(minimized, {}, 4), minimized);
  }
}

TEST(Minimizer, NoOpMinimizationLeavesTheLogEmpty) {
  // An already-minimal test must come back identical with an untouched log
  // (callers use the log to report what changed — no change, no lines).
  FaultList list;
  list.name = "tf only";
  list.simple.push_back(SimpleFault::single(FaultPrimitive::tf(Bit::Zero)));
  list.simple.push_back(SimpleFault::single(FaultPrimitive::tf(Bit::One)));
  const MarchTest minimal =
      minimize(parse_march_test("{c(w0); ^(w1,r1,w0,r0)}", "tight"), list);
  std::vector<std::string> log;
  const MarchTest again = minimize(minimal, list, &log);
  EXPECT_EQ(again, minimal);
  EXPECT_TRUE(log.empty());
}

TEST(Minimizer, PreservesValidityAndWaitsForRetentionTargets) {
  // Minimizing against retention (t-op) instances must neither break test
  // validity nor strip the waits that make the coverage possible.
  const FaultSimulator simulator(SimulatorOptions{4});
  FaultList list;
  list.name = "simple DRFs";
  list.simple.push_back(SimpleFault::single(FaultPrimitive::drf(Bit::Zero)));
  list.simple.push_back(SimpleFault::single(FaultPrimitive::drf(Bit::One)));
  const auto instances = instances_for(list, 4);
  ASSERT_TRUE(covers_all(simulator, march_g(), instances));

  std::vector<std::string> log;
  const MarchTest minimized = minimize(march_g(), list, &log);
  EXPECT_TRUE(FaultSimulator::validity_violation(minimized).empty());
  EXPECT_TRUE(minimized.contains_wait());
  EXPECT_TRUE(covers_all(simulator, minimized, instances));
  EXPECT_LE(minimized.complexity(), march_g().complexity());
}

TEST(Minimizer, DropsOpsInsideElements) {
  const FaultSimulator simulator(SimulatorOptions{4});
  // Cover only the transition faults; the double reads are redundant.
  FaultList list;
  list.name = "tf only";
  list.simple.push_back(SimpleFault::single(FaultPrimitive::tf(Bit::Zero)));
  list.simple.push_back(SimpleFault::single(FaultPrimitive::tf(Bit::One)));
  const auto instances = instances_for(list, 4);
  const MarchTest bloated =
      parse_march_test("{c(w0); ^(r0,r0,w1,r1,r1); ^(r1,w0,r0)}", "bloated");
  const MarchTest minimized = minimize(bloated, list);
  EXPECT_LT(minimized.complexity(), bloated.complexity());
  EXPECT_TRUE(covers_all(simulator, minimized, instances));
}

}  // namespace
}  // namespace mtg
