// Subsumption prover tests: closed-form universe specs round-trip and
// materialize to the exact built-in catalogs; known subsumption
// relationships among the classic tests hold with valid witnesses.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "analysis/subsumption.hpp"
#include "common/error.hpp"
#include "fp/fault_list.hpp"
#include "march/catalog.hpp"
#include "march/parser.hpp"
#include "sim/coverage.hpp"
#include "sim/simulator.hpp"

namespace mtg {
namespace {

TEST(FaultUniverse, SpecRoundTripsThroughParse) {
  for (const char* spec :
       {"list1", "list2", "simple", "retention", "simple+retention",
        "simple+decoder[0,12)", "linked1+linked2+linked3+linkedrt",
        "decoder[3,7)"}) {
    const FaultUniverse universe = FaultUniverse::parse(spec);
    EXPECT_EQ(universe.spec(), spec);
    const FaultUniverse again = FaultUniverse::parse(universe.spec());
    EXPECT_EQ(stable_hash(again.materialize()),
              stable_hash(universe.materialize()))
        << spec;
  }
}

TEST(FaultUniverse, BareDecoderIsTheFullBuiltinRange) {
  const FaultUniverse universe = FaultUniverse::parse("decoder");
  EXPECT_EQ(universe.spec(), "decoder[0,12)");
  const FaultList materialized = universe.materialize();
  const FaultList builtin = decoder_fault_list();
  ASSERT_EQ(materialized.size(), builtin.size());
  EXPECT_EQ(stable_hash(materialized), stable_hash(builtin));
}

TEST(FaultUniverse, FamiliesMatchTheBuiltinLists) {
  EXPECT_EQ(stable_hash(FaultUniverse::parse("list1").materialize()),
            stable_hash(fault_list_1()));
  EXPECT_EQ(stable_hash(FaultUniverse::parse("list2").materialize()),
            stable_hash(fault_list_2()));
  EXPECT_EQ(stable_hash(FaultUniverse::parse("simple").materialize()),
            stable_hash(standard_simple_static_faults()));
  EXPECT_EQ(stable_hash(FaultUniverse::parse("retention").materialize()),
            stable_hash(retention_fault_list()));
}

TEST(FaultUniverse, ConcreteUniverseHasNoSpec) {
  const FaultUniverse universe = FaultUniverse::of(fault_list_1());
  EXPECT_EQ(universe.spec(), "");
  EXPECT_EQ(stable_hash(universe.materialize()), stable_hash(fault_list_1()));
}

TEST(FaultUniverse, MalformedSpecsThrow) {
  EXPECT_THROW(FaultUniverse::parse(""), Error);
  EXPECT_THROW(FaultUniverse::parse("simple+"), Error);
  EXPECT_THROW(FaultUniverse::parse("nosuchfamily"), Error);
  EXPECT_THROW(FaultUniverse::parse("decoder[5,3)"), Error);
  EXPECT_THROW(FaultUniverse::parse("decoder[0,99)"), Error);
}

TEST(Subsumption, MarchSsSubsumesMatsPlusOverSimpleStatics) {
  // March SS detects the whole simple static space, so it subsumes
  // anything over that universe.
  const SubsumptionResult result = prove_subsumption(
      march_ss(), mats_plus(), FaultUniverse::parse("simple"), 6);
  EXPECT_EQ(result.verdict, SubsumptionVerdict::Subsumes);
  EXPECT_EQ(result.detected_by_a, result.faults);
  EXPECT_FALSE(result.witness.has_value());
}

TEST(Subsumption, MatsPlusDoesNotSubsumeMarchSsAndTheWitnessIsReal) {
  const FaultList universe =
      FaultUniverse::parse("simple").materialize();
  const SubsumptionResult result =
      prove_subsumption(mats_plus(), march_ss(), universe, 6);
  ASSERT_EQ(result.verdict, SubsumptionVerdict::NotSubsumes);
  ASSERT_TRUE(result.witness.has_value());
  const SubsumptionWitness& witness = *result.witness;
  ASSERT_LT(witness.fault_index, universe.size());
  EXPECT_FALSE(witness.fault_name.empty());
  EXPECT_FALSE(witness.escape.empty());
  ASSERT_TRUE(witness.detection.has_value());

  // The witness must agree with the packed engine: March SS covers the
  // fault, MATS+ does not.
  SimulatorOptions options;
  options.memory_size = 6;
  const FaultSimulator simulator(options);
  const CoverageReport by_a =
      evaluate_coverage(simulator, mats_plus(), universe, 0);
  const CoverageReport by_b =
      evaluate_coverage(simulator, march_ss(), universe, 0);
  EXPECT_TRUE(by_b.entries[witness.fault_index].covered);
  EXPECT_FALSE(by_a.entries[witness.fault_index].covered);
}

TEST(Subsumption, EveryTestSubsumesItselfOverEveryBuiltinFamily) {
  for (const char* spec : {"list1", "list2", "simple", "retention",
                           "decoder[0,4)"}) {
    const FaultUniverse universe = FaultUniverse::parse(spec);
    for (const MarchTest& test : all_catalog_tests()) {
      const SubsumptionResult result =
          prove_subsumption(test, test, universe, 6);
      EXPECT_EQ(result.verdict, SubsumptionVerdict::Subsumes)
          << test.name() << " over " << spec << ": " << result.reason;
      EXPECT_EQ(result.detected_by_a, result.detected_by_b);
    }
  }
}

}  // namespace
}  // namespace mtg
