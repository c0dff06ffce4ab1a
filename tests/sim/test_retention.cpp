// Data-retention (t-op) fault modeling: DRF/CFrt semantics on the scalar
// machine, scalar/packed detection agreement, catalog behaviour (classic
// tests without waits miss retention faults; March G catches them) and the
// generator's ability to emit t-bearing tests for retention-only lists.
#include <gtest/gtest.h>

#include "fp/fault_list.hpp"
#include "fp/fp_library.hpp"
#include "fp/semantics.hpp"
#include "gen/generator.hpp"
#include "march/catalog.hpp"
#include "march/parser.hpp"
#include "sim/coverage.hpp"
#include "sim/simulator.hpp"

namespace mtg {
namespace {

SimulatorOptions options_for(std::size_t n) {
  return SimulatorOptions{n, 1};
}

TEST(Retention, FaultPrimitiveTaxonomy) {
  const FaultPrimitive drf0 = FaultPrimitive::drf(Bit::Zero);
  EXPECT_EQ(drf0.classify(), FpClass::DRF);
  EXPECT_EQ(drf0.name(), "DRF0");
  EXPECT_EQ(drf0.notation(), "<0t/1/->");
  EXPECT_TRUE(drf0.is_retention());
  EXPECT_FALSE(drf0.is_immediately_detecting());

  const FaultPrimitive cfrt = FaultPrimitive::cfrt(Bit::One, Bit::Zero);
  EXPECT_EQ(cfrt.classify(), FpClass::CFrt);
  EXPECT_EQ(cfrt.notation(), "<1;0t/1/->");
  EXPECT_TRUE(cfrt.is_retention());

  // No static FP is a retention FP.
  for (const FaultPrimitive& fp : all_static_fps()) {
    EXPECT_FALSE(fp.is_retention()) << fp.notation();
  }
  EXPECT_EQ(all_retention_fps().size(), 6u);
  EXPECT_EQ(all_fps().size(), 54u);
}

TEST(Retention, WaitSensitizerIsVictimOnly) {
  // Aggressor wait sensitizers are not part of the model.
  EXPECT_THROW(FaultPrimitive::coupled(Bit::Zero, SenseOp::Wt, Bit::Zero,
                                       SenseOp::None, Bit::One),
               Error);
  // A "retention fault" that decays to the held value is no deviation.
  EXPECT_THROW(
      FaultPrimitive::single(Bit::Zero, SenseOp::Wt, Bit::Zero), Error);
}

TEST(Retention, DrfDecaysOnWaitAndRefreshesOnWrite) {
  // DRF0 <0t/1/->: an un-refreshed cell holding 0 decays to 1.
  FaultyMemory memory(3, {BoundFp::at(FaultPrimitive::drf(Bit::Zero), 1)});
  memory.power_on_uniform(Bit::Zero);

  memory.wait(0);  // pause on another cell: the victim keeps its value
  EXPECT_EQ(memory.state().to_string(), "000");

  memory.wait(1);  // the victim decays
  EXPECT_EQ(memory.state().to_string(), "010");
  EXPECT_EQ(memory.fire_count(0), 1u);

  memory.wait(1);  // decay is idempotent
  EXPECT_EQ(memory.state().to_string(), "010");
  EXPECT_EQ(memory.fire_count(0), 1u);

  memory.write(1, Bit::Zero);  // refresh re-establishes the level ...
  EXPECT_EQ(memory.state().to_string(), "000");
  memory.wait(1);  // ... and the next pause decays it again
  EXPECT_EQ(memory.state().to_string(), "010");
  EXPECT_EQ(memory.fire_count(0), 2u);
}

TEST(Retention, CfrtRequiresAggressorState) {
  // CFrt <1;0t/1/->: the victim decays only while the aggressor holds 1.
  FaultyMemory memory(
      2, {BoundFp(FaultPrimitive::cfrt(Bit::One, Bit::Zero), 0, 1)});
  memory.power_on_uniform(Bit::Zero);
  memory.wait(1);
  EXPECT_EQ(memory.state().to_string(), "00");  // aggressor at 0: no decay
  memory.write(0, Bit::One);
  memory.wait(1);
  EXPECT_EQ(memory.state().to_string(), "11");  // aggressor at 1: decay
}

TEST(Retention, ClassicTestsMissButMarchGDetects) {
  // The acceptance scenario: a DRF escapes every classic march test without
  // waits and is caught by March G's retention pauses — on both engines.
  for (Bit s : {Bit::Zero, Bit::One}) {
    const SimpleFault fault = SimpleFault::single(FaultPrimitive::drf(s));
    for (std::size_t n : {4u, 6u}) {
      const FaultSimulator simulator(options_for(n));
      for (const FaultInstance& instance : instantiate(fault, n, 0)) {
        for (const MarchTest& test :
             {mats_plus(), march_c_minus(), march_ss(), march_sl()}) {
          ASSERT_FALSE(test.contains_wait());
          EXPECT_FALSE(simulator.detects(test, instance))
              << test.name() << " vs " << instance.description;
          EXPECT_FALSE(simulator.detects_scalar(test, instance));
        }
        ASSERT_TRUE(march_g().contains_wait());
        EXPECT_TRUE(simulator.detects(march_g(), instance))
            << instance.description;
        EXPECT_TRUE(simulator.detects_scalar(march_g(), instance));
      }
    }
  }
}

TEST(Retention, MarchGCoversSimpleDrfs) {
  FaultList drfs;
  drfs.name = "simple DRFs";
  drfs.simple.push_back(SimpleFault::single(FaultPrimitive::drf(Bit::Zero)));
  drfs.simple.push_back(SimpleFault::single(FaultPrimitive::drf(Bit::One)));

  const FaultSimulator simulator(options_for(6));
  EXPECT_TRUE(evaluate_coverage(simulator, march_g(), drfs).full_coverage());
  EXPECT_FALSE(
      evaluate_coverage(simulator, march_sl(), drfs).full_coverage());
}

TEST(Retention, RetentionFaultListTargetsRetention) {
  const FaultList list = retention_fault_list();
  EXPECT_TRUE(targets_retention(list));
  EXPECT_GE(list.simple.size(), 10u);  // 2 DRF + 4 CFrt in both layouts
  EXPECT_FALSE(list.linked.empty());
  EXPECT_FALSE(targets_retention(fault_list_1()));
  EXPECT_FALSE(targets_retention(fault_list_2()));
  EXPECT_FALSE(targets_retention(standard_simple_static_faults()));
}

TEST(Retention, LinkedRetentionFaultsChainThroughWaits) {
  // DRF as FP1 masked by a static FP, and vice versa, must both appear.
  const auto linked = enumerate_retention_linked_faults();
  bool drf_first = false;
  bool drf_second = false;
  for (const LinkedFault& lf : linked) {
    EXPECT_TRUE(lf.fp1().is_retention() || lf.fp2().is_retention());
    if (lf.fp1().is_retention()) drf_first = true;
    if (lf.fp2().is_retention()) drf_second = true;
  }
  EXPECT_TRUE(drf_first);
  EXPECT_TRUE(drf_second);
}

TEST(Retention, GeneratorEmitsWaitOpsForRetentionFaults) {
  // The generator must propose t ops when (and only when) the target list
  // contains retention faults, and fully cover a retention-only list.
  GeneratorOptions options;
  options.working_memory_size = 3;
  options.certify_memory_size = 5;
  options.max_element_length = 4;

  const GenerationResult result =
      generate_march_test(retention_fault_list(), options);
  EXPECT_TRUE(result.test.contains_wait());
  EXPECT_TRUE(result.full_coverage);
  EXPECT_TRUE(result.uncoverable.empty());
  EXPECT_EQ(result.test.consistency_violation(), "");

  // Independent certification on a fresh simulator at a different size.
  const FaultSimulator simulator(options_for(6));
  EXPECT_TRUE(evaluate_coverage(simulator, result.test, retention_fault_list())
                  .full_coverage());

  // A static-only list keeps the candidate pool wait-free.
  const GenerationResult static_result =
      generate_march_test(fault_list_2(), options);
  EXPECT_FALSE(static_result.test.contains_wait());
}

}  // namespace
}  // namespace mtg
