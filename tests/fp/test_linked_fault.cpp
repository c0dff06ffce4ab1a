#include "fp/linked_fault.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "common/error.hpp"

namespace mtg {
namespace {

FaultPrimitive cfds_01_v0() {
  return FaultPrimitive::cfds(Bit::Zero, SenseOp::W1, Bit::Zero);  // <0w1;0/1/->
}
FaultPrimitive cfds_01_v1() {
  return FaultPrimitive::cfds(Bit::Zero, SenseOp::W1, Bit::One);  // <0w1;1/0/->
}
FaultPrimitive cfds_10_v1() {
  return FaultPrimitive::cfds(Bit::One, SenseOp::W0, Bit::One);  // <1w0;1/0/->
}

TEST(LinkedLayout, Factories) {
  EXPECT_EQ(LinkedLayout::single_cell().to_string(), "v");
  EXPECT_EQ(LinkedLayout::two_cell(0, 0, 1).to_string(), "a<v");
  EXPECT_EQ(LinkedLayout::two_cell(1, 1, 0).to_string(), "v<a");
  EXPECT_EQ(LinkedLayout::two_cell(0, -1, 1).to_string(), "a1<v");
  EXPECT_EQ(LinkedLayout::two_cell(-1, 1, 0).to_string(), "v<a2");
  EXPECT_EQ(LinkedLayout::three_cell(0, 1, 2).to_string(), "a1<a2<v");
  EXPECT_EQ(LinkedLayout::three_cell(2, 0, 1).to_string(), "a2<v<a1");
}

TEST(CheckLink, PaperEquation6IsLinkedViaTwoAggressors) {
  // FP1 = <0w1;0/1/->, FP2 = <0w1;1/0/-> with distinct aggressors (Fig. 1).
  const LinkCheck check =
      check_link(cfds_01_v0(), cfds_01_v1(), LinkedLayout::three_cell(0, 1, 2));
  EXPECT_TRUE(check.linked()) << check.reason;
  EXPECT_TRUE(check.fully_masked);
}

TEST(CheckLink, PaperEquation12IsLinkedViaSharedAggressor) {
  // <0w1;0/1/-> → <1w0;1/0/-> sharing the aggressor (Equations 12-14).
  const LinkCheck check =
      check_link(cfds_01_v0(), cfds_10_v1(), LinkedLayout::two_cell(0, 0, 1));
  EXPECT_TRUE(check.linked()) << check.reason;
  EXPECT_TRUE(check.fully_masked);
}

TEST(CheckLink, RejectsEqualFaultEffects) {
  // F2 must equal not(F1).
  const LinkCheck check =
      check_link(cfds_01_v0(), cfds_01_v0(), LinkedLayout::three_cell(0, 1, 2));
  EXPECT_FALSE(check.linked());
  EXPECT_EQ(check.reason, "F2 != not(F1): FP2 cannot mask FP1");
}

TEST(CheckLink, RejectsBrokenChain) {
  // FP2 sensitized on victim state 0, but Fv1 leaves the victim at 1.
  const FaultPrimitive fp2_wrong_state =
      FaultPrimitive::cfds(Bit::Zero, SenseOp::W1, Bit::Zero);  // v_state 0
  const LinkCheck check = check_link(cfds_01_v0(), fp2_wrong_state,
                                     LinkedLayout::three_cell(0, 1, 2));
  EXPECT_FALSE(check.linked());
  EXPECT_EQ(check.reason, "F2 != not(F1): FP2 cannot mask FP1");
}

TEST(CheckLink, RejectsImmediatelyDetectingFp1) {
  // RDF cannot be masked: its sensitizing read already exposes it.
  const LinkCheck check =
      check_link(FaultPrimitive::rdf(Bit::Zero), FaultPrimitive::wdf(Bit::One),
                 LinkedLayout::single_cell());
  EXPECT_EQ(check.reason,
            "FP1 is exposed by its own sensitizing read (RDF/IRF-like)");
}

TEST(CheckLink, RejectsDoubleStateFaults) {
  const LinkCheck check =
      check_link(FaultPrimitive::cfst(Bit::One, Bit::Zero),
                 FaultPrimitive::cfst(Bit::One, Bit::One),
                 LinkedLayout::two_cell(0, 0, 1));
  EXPECT_EQ(check.reason, "two state faults cannot form a well-defined link");
}

TEST(CheckLink, SingleCellTfWdfLink) {
  // TF↑ → WDF0: w1 fails (cell stays 0), the next non-transition w0 then
  // flips the cell — a classic single-cell link.
  const LinkCheck check =
      check_link(FaultPrimitive::tf(Bit::Zero), FaultPrimitive::wdf(Bit::Zero),
                 LinkedLayout::single_cell());
  EXPECT_TRUE(check.linked()) << check.reason;
  // The WDF inverts the error rather than hiding it completely.
  EXPECT_FALSE(check.fully_masked);
}

TEST(CheckLink, SingleCellWdfRdfLinkFullyMasks) {
  const LinkCheck check =
      check_link(FaultPrimitive::wdf(Bit::Zero), FaultPrimitive::rdf(Bit::One),
                 LinkedLayout::single_cell());
  EXPECT_TRUE(check.linked()) << check.reason;
  EXPECT_TRUE(check.fully_masked);
}

TEST(LinkedFault, ConstructionValidates) {
  EXPECT_NO_THROW(
      LinkedFault(cfds_01_v0(), cfds_10_v1(), LinkedLayout::two_cell(0, 0, 1)));
  const FaultPrimitive tf0 = FaultPrimitive::tf(Bit::Zero);
  const FaultPrimitive wdf0 = FaultPrimitive::wdf(Bit::Zero);
  LinkedLayout four_cells = LinkedLayout::three_cell(0, 1, 2);
  four_cells.num_cells = 4;
  LinkedLayout two_single_cells = LinkedLayout::single_cell();
  two_single_cells.num_cells = 2;
  const struct {
    FaultPrimitive fp1;
    FaultPrimitive fp2;
    LinkedLayout layout;
    const char* what;
  } cases[] = {
      {cfds_01_v0(), cfds_01_v1(), four_cells,
       "linked fault layout: 1..3 distinct cells"},
      // FP1 is two-cell but no a1 position given.
      {cfds_01_v0(), cfds_10_v1(), LinkedLayout::two_cell(-1, 0, 1),
       "layout a1 position must be present iff FP1 is a two-cell FP"},
      {cfds_01_v0(), tf0, LinkedLayout::two_cell(0, 0, 1),
       "layout a2 position must be present iff FP2 is a two-cell FP"},
      {cfds_01_v0(), cfds_10_v1(), LinkedLayout::two_cell(0, 0, 2),
       "layout victim position out of range"},
      {cfds_01_v0(), cfds_10_v1(), LinkedLayout::two_cell(2, 0, 1),
       "layout aggressor position out of range"},
      {cfds_01_v0(), cfds_10_v1(), LinkedLayout::two_cell(1, 0, 1),
       "FP1's aggressor must differ from the victim"},
      {cfds_01_v0(), cfds_10_v1(), LinkedLayout::two_cell(0, 1, 1),
       "FP2's aggressor must differ from the victim"},
      {cfds_01_v0(), cfds_10_v1(), LinkedLayout::three_cell(0, 0, 1),
       "layout uses 2 cells but declares 3"},
      {tf0, wdf0, two_single_cells, "layout uses 1 cells but declares 2"},
      {cfds_01_v0(), cfds_01_v0(), LinkedLayout::three_cell(0, 1, 2),
       "FPs are not linked (<0w1;0/1/-> -> <0w1;0/1/-> [a1<a2<v]): "
       "F2 != not(F1): FP2 cannot mask FP1"},
      {wdf0, tf0, LinkedLayout::single_cell(),
       "FPs are not linked (<0w0/1/-> -> <0w1/0/-> [v]): "
       "I2 != Fv1: FP2 is not sensitized on the faulty victim"},
  };
  for (const auto& c : cases) {
    try {
      const LinkedFault lf(c.fp1, c.fp2, c.layout);
      ADD_FAILURE() << "accepted " << lf.name() << ", expected: " << c.what;
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), c.what);
    }
    // link() throws the same layout errors and returns nullopt for an
    // unlinked triple.
    std::optional<LinkedFault> linked;
    std::string link_error;
    try {
      linked = LinkedFault::link(c.fp1, c.fp2, c.layout);
    } catch (const Error& e) {
      link_error = e.what();
    }
    EXPECT_FALSE(linked) << c.what;
    const bool unlinked =
        std::string(c.what).rfind("FPs are not linked", 0) == 0;
    EXPECT_EQ(link_error, unlinked ? "" : c.what);
  }
}

TEST(LinkedFault, NameCarriesLayout) {
  const LinkedFault lf(cfds_01_v0(), cfds_10_v1(), LinkedLayout::two_cell(0, 0, 1));
  EXPECT_EQ(lf.name(), "CFds<0w1;0>→CFds<1w0;1> [a<v]");
  EXPECT_EQ(lf.num_cells(), 2);
  EXPECT_TRUE(lf.fully_masking());
}

TEST(ExpandLinkedAfps, PaperEquation13) {
  // (00, w1_0, 11, 10) → (11, w0_0, 00, 01) on the 2-cell model; the paper
  // writes states LSB-first with the aggressor at the lowest address.
  const LinkedFault lf(cfds_01_v0(), cfds_10_v1(), LinkedLayout::two_cell(0, 0, 1));
  const auto pairs = expand_linked_afps(lf, {0, 1}, 2);
  ASSERT_EQ(pairs.size(), 1u);
  const LinkedAfpPair& pair = pairs[0];
  EXPECT_EQ(pair.afp1.initial.to_string(), "00");
  EXPECT_EQ(pair.afp1.faulty.to_string(), "11");
  EXPECT_EQ(pair.afp1.good.to_string(), "10");
  EXPECT_EQ(pair.afp2.initial.to_string(), "11");  // I2 = Fv1 (Definition 7)
  EXPECT_EQ(pair.afp2.faulty.to_string(), "00");
  EXPECT_EQ(pair.afp2.good.to_string(), "01");
  // Equation 14: TPs (00, w1_0, r0_1) → (11, w0_0, r1_1).
  EXPECT_EQ(to_string(pair.tp1.ops), "w1[0],r0[1]");
  EXPECT_EQ(to_string(pair.tp2.ops), "w0[0],r1[1]");
}

TEST(ExpandLinkedAfps, ChainInvariantHoldsOnLargerModels) {
  const LinkedFault lf(cfds_01_v0(), cfds_01_v1(), LinkedLayout::three_cell(0, 1, 2));
  for (const LinkedAfpPair& pair : expand_linked_afps(lf, {0, 1, 2}, 3)) {
    EXPECT_EQ(pair.afp2.initial, pair.afp1.faulty);        // I2 = Fv1
    EXPECT_EQ(pair.tp1.end_state, pair.afp1.faulty);
    EXPECT_EQ(pair.afp1.victim, pair.afp2.victim);
  }
}

TEST(ExpandLinkedAfps, ValidatesCellMapping) {
  const LinkedFault lf(cfds_01_v0(), cfds_10_v1(), LinkedLayout::two_cell(0, 0, 1));
  EXPECT_THROW(expand_linked_afps(lf, {0}, 2), Error);      // size mismatch
  EXPECT_THROW(expand_linked_afps(lf, {1, 0}, 2), Error);   // not ascending
  EXPECT_THROW(expand_linked_afps(lf, {0, 5}, 2), Error);   // out of range
}

}  // namespace
}  // namespace mtg
