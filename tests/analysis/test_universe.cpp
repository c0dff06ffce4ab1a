// Fault universe tests: closed-form universe specs round-trip and
// materialize to the exact built-in catalogs.
#include <gtest/gtest.h>

#include "analysis/universe.hpp"
#include "common/error.hpp"
#include "fp/fault_list.hpp"

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

TEST(FaultUniverse, DecoderRangeIsTheFilteredBuiltinList) {
  // decoder[3,7): the built-in list's records on address lines 3..6, in
  // the built-in order.
  FaultList expected;
  for (const DecoderFault& fault : decoder_fault_list().decoder) {
    if (fault.bit >= 3 && fault.bit < 7) expected.decoder.push_back(fault);
  }
  ASSERT_EQ(expected.decoder.size(), 4u * 5u);
  const FaultList materialized =
      FaultUniverse::parse("decoder[3,7)").materialize();
  EXPECT_EQ(materialized.decoder, expected.decoder);
  EXPECT_EQ(stable_hash(materialized), stable_hash(expected));
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

}  // namespace
}  // namespace mtg
