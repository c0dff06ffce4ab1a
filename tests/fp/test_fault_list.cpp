#include "fp/fault_list.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <iterator>
#include <set>

#include "common/checksum.hpp"
#include "fp/fp_library.hpp"

namespace mtg {
namespace {

// check_link's reasons for the structural conditions of Definitions 6/7.
constexpr const char* kFp1Exposed =
    "FP1 is exposed by its own sensitizing read (RDF/IRF-like)";
constexpr const char* kCannotMask = "F2 != not(F1): FP2 cannot mask FP1";
constexpr const char* kNotSensitized =
    "I2 != Fv1: FP2 is not sensitized on the faulty victim";

TEST(FaultList, MaskablePredicate) {
  // FP1 must not expose itself on its own sensitizing read.  WDF at F1 is a
  // masker that meets F2 = not(F1) and I2 = Fv1 for every FP1.
  auto reason = [](const FaultPrimitive& fp1) {
    const LinkedLayout layout = fp1.is_two_cell()
                                    ? LinkedLayout::two_cell(0, -1, 1)
                                    : LinkedLayout::single_cell();
    return check_link(fp1, FaultPrimitive::wdf(fp1.fault_value()), layout)
        .reason;
  };
  EXPECT_NE(reason(FaultPrimitive::tf(Bit::Zero)), kFp1Exposed);
  EXPECT_NE(reason(FaultPrimitive::wdf(Bit::One)), kFp1Exposed);
  EXPECT_NE(reason(FaultPrimitive::drdf(Bit::Zero)), kFp1Exposed);
  EXPECT_NE(reason(FaultPrimitive::sf(Bit::Zero)), kFp1Exposed);
  EXPECT_EQ(reason(FaultPrimitive::rdf(Bit::Zero)), kFp1Exposed);
  EXPECT_EQ(reason(FaultPrimitive::irf(Bit::One)), kFp1Exposed);
  EXPECT_EQ(reason(FaultPrimitive::cfrd(Bit::Zero, Bit::One)), kFp1Exposed);
}

TEST(FaultList, CanMaskPredicate) {
  // FP2 masks FP1 iff it is sensitized on the faulty victim value and flips
  // it back: v_state2 = F1 and F2 = not(F1).
  const FaultPrimitive wdf0 = FaultPrimitive::wdf(Bit::Zero);  // F1 = 1
  auto check = [&](const FaultPrimitive& fp2) {
    return check_link(wdf0, fp2, LinkedLayout::single_cell());
  };
  EXPECT_TRUE(check(FaultPrimitive::rdf(Bit::One)).linked());
  EXPECT_TRUE(check(FaultPrimitive::wdf(Bit::One)).linked());
  EXPECT_TRUE(check(FaultPrimitive::drdf(Bit::One)).linked());
  EXPECT_EQ(check(FaultPrimitive::rdf(Bit::Zero)).reason, kCannotMask);
  // F2 = F1
  EXPECT_EQ(check(FaultPrimitive::tf(Bit::One)).reason, kCannotMask);
  EXPECT_EQ(check(FaultPrimitive::irf(Bit::Zero)).reason, kNotSensitized);
}

TEST(FaultList, StructuralPrefilterIsImpliedByCheckLink) {
  // Every (FP1, FP2, layout) triple of the enumerators' shapes.  link()
  // returns a fault exactly when the constructor accepts the triple.  A
  // structural prefilter in front of link() (FP1 maskable, FP2 sensitized on
  // F1 and restoring not(F1)) would skip exactly the triples check_link
  // rejects for one of those structural reasons, so the enumerators need
  // none.
  const auto single = all_single_cell_static_fps();
  const auto coupled = all_two_cell_static_fps();
  std::vector<FaultPrimitive> retention = single;
  for (Bit s : {Bit::Zero, Bit::One}) {
    retention.push_back(FaultPrimitive::drf(s));
  }

  struct Shape {
    const std::vector<FaultPrimitive>* fp1s;
    const std::vector<FaultPrimitive>* fp2s;
    LinkedLayout layout;
    bool retention_only = false;
  };
  std::vector<Shape> shapes = {
      {&single, &single, LinkedLayout::single_cell()},
      {&retention, &retention, LinkedLayout::single_cell(), true}};
  for (std::int8_t a : {0, 1}) {
    const std::uint8_t v = a == 0 ? 1 : 0;
    shapes.push_back({&coupled, &coupled, LinkedLayout::two_cell(a, a, v)});
    shapes.push_back({&coupled, &single, LinkedLayout::two_cell(a, -1, v)});
    shapes.push_back({&single, &coupled, LinkedLayout::two_cell(-1, a, v)});
  }
  static constexpr std::uint8_t kOrderings[6][3] = {
      {0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {2, 0, 1}, {1, 2, 0}, {2, 1, 0}};
  for (const auto& ord : kOrderings) {
    shapes.push_back({&coupled, &coupled,
                      LinkedLayout::three_cell(ord[0], ord[1], ord[2])});
  }

  std::size_t list1_triples = 0, linked = 0;
  for (const Shape& shape : shapes) {
    for (const FaultPrimitive& fp1 : *shape.fp1s) {
      for (const FaultPrimitive& fp2 : *shape.fp2s) {
        if (shape.retention_only && !fp1.is_retention() &&
            !fp2.is_retention()) {
          continue;
        }
        if (!shape.retention_only) ++list1_triples;
        const std::string label = fp1.notation() + " -> " + fp2.notation() +
                                  " [" + shape.layout.to_string() + "]";
        std::optional<LinkedFault> constructed;
        try {
          constructed.emplace(fp1, fp2, shape.layout);
        } catch (const Error& e) {
          EXPECT_EQ(std::string(e.what()).rfind("FPs are not linked (", 0), 0u)
              << label;
        }
        const std::optional<LinkedFault> lf =
            LinkedFault::link(fp1, fp2, shape.layout);
        ASSERT_EQ(lf.has_value(), constructed.has_value()) << label;
        if (lf) {
          ++linked;
          EXPECT_EQ(*lf, *constructed) << label;
          EXPECT_EQ(lf->name(), constructed->name()) << label;
          EXPECT_EQ(lf->fully_masking(), constructed->fully_masking()) << label;
        }

        // The structural prefilter, spelled out.
        const bool skipped =
            fp1.is_immediately_detecting() ||
            fp2.fault_value() != flip(fp1.fault_value()) ||
            fp2.v_state() != fp1.fault_value();
        const std::string reason = check_link(fp1, fp2, shape.layout).reason;
        const bool structural = reason == kFp1Exposed ||
                                reason == kCannotMask ||
                                reason == kNotSensitized;
        EXPECT_EQ(structural, skipped) << label << ": " << reason;
      }
    }
  }
  EXPECT_EQ(list1_triples, 12240u);
  EXPECT_EQ(linked, fault_list_1().linked.size() +
                        enumerate_retention_linked_faults().size());
}

TEST(FaultList, SingleCellEnumerationSnapshot) {
  // 8 maskable FP1 (SF, TF, WDF, DRDF × both polarities) × 3 operation-
  // sensitized masker classes (WDF, RDF, DRDF at the faulty value) = 24.
  // SF as FP2 never survives the chain check: a state fault settles within
  // the same operation that sensitizes FP1, leaving no deviation to mask.
  const auto lf1 = enumerate_single_cell_linked_faults();
  EXPECT_EQ(lf1.size(), 24u);

  std::set<std::string> names;
  for (const LinkedFault& lf : lf1) {
    EXPECT_EQ(lf.num_cells(), 1) << lf.name();
    names.insert(lf.name());
  }
  EXPECT_EQ(names.size(), lf1.size());  // no duplicates
  EXPECT_TRUE(names.count("TF↑→RDF0 [v]"));
  EXPECT_TRUE(names.count("WDF0→WDF1 [v]"));
  EXPECT_TRUE(names.count("DRDF0→DRDF1 [v]"));
  EXPECT_TRUE(names.count("SF1→WDF0 [v]"));
  // TF as FP2 never satisfies F2 = not(F1) (its fault value equals its
  // sensitizing state).
  EXPECT_FALSE(names.count("WDF0→TF↓ [v]"));
  // SF→SF is excluded.
  EXPECT_FALSE(names.count("SF0→SF1 [v]"));
}

TEST(FaultList, TwoCellEnumerationProperties) {
  const auto lf2 = enumerate_two_cell_linked_faults();
  EXPECT_GT(lf2.size(), 100u);
  std::size_t a_below = 0;
  for (const LinkedFault& lf : lf2) {
    EXPECT_EQ(lf.num_cells(), 2) << lf.name();
    EXPECT_FALSE(lf.fp1().is_immediately_detecting()) << lf.name();
    EXPECT_EQ(lf.fp2().fault_value(), flip(lf.fp1().fault_value()))
        << lf.name();
    EXPECT_EQ(lf.fp2().v_state(), lf.fp1().fault_value()) << lf.name();
    if (lf.layout().v_pos == 1) ++a_below;
  }
  // Both address layouts are represented symmetrically.
  EXPECT_EQ(a_below * 2, lf2.size());
}

TEST(FaultList, ThreeCellEnumerationProperties) {
  const auto lf3 = enumerate_three_cell_linked_faults();
  EXPECT_GT(lf3.size(), 500u);
  for (const LinkedFault& lf : lf3) {
    EXPECT_EQ(lf.num_cells(), 3) << lf.name();
    EXPECT_TRUE(lf.fp1().is_two_cell());
    EXPECT_TRUE(lf.fp2().is_two_cell());
    EXPECT_NE(lf.layout().a1_pos, lf.layout().a2_pos) << lf.name();
  }
}

TEST(FaultList, FaultListTwoIsSingleCellOnly) {
  const FaultList list = fault_list_2();
  EXPECT_TRUE(list.simple.empty());
  EXPECT_EQ(list.linked.size(), 24u);
  EXPECT_EQ(list.size(), 24u);
}

TEST(FaultList, FaultListOneContainsAllSizes) {
  const FaultList list = fault_list_1();
  std::size_t by_cells[4] = {0, 0, 0, 0};
  for (const LinkedFault& lf : list.linked) {
    ++by_cells[lf.num_cells()];
  }
  EXPECT_EQ(by_cells[1], 24u);
  EXPECT_GT(by_cells[2], 0u);
  EXPECT_GT(by_cells[3], 0u);
  EXPECT_EQ(list.size(), by_cells[1] + by_cells[2] + by_cells[3]);
  // Reproducibility snapshot: the constructive enumeration is deterministic.
  EXPECT_EQ(list.size(), 2736u);
}

TEST(FaultList, PaperRunningExampleIsInFaultListOne) {
  const FaultList list = fault_list_1();
  bool found_equation12 = false;
  for (const LinkedFault& lf : list.linked) {
    if (lf.name() == "CFds<0w1;0>→CFds<1w0;1> [a<v]") found_equation12 = true;
  }
  EXPECT_TRUE(found_equation12);
}

TEST(FaultList, EveryLinkedFaultSatisfiesDefinitionSeven) {
  for (const LinkedFault& lf : fault_list_1().linked) {
    const LinkCheck check = check_link(lf.fp1(), lf.fp2(), lf.layout());
    EXPECT_TRUE(check.linked()) << lf.name() << ": " << check.reason;
    EXPECT_EQ(check.fully_masked, lf.fully_masking()) << lf.name();
    EXPECT_FALSE(lf.fp1().is_immediately_detecting()) << lf.name();
  }
}

TEST(FaultList, SimpleStaticFaultListCoversTheWholeFpSpace) {
  const FaultList list = standard_simple_static_faults();
  EXPECT_TRUE(list.linked.empty());
  // 12 single-cell + 36 two-cell × 2 layouts.
  EXPECT_EQ(list.simple.size(), 12u + 72u);
  std::set<std::string> names;
  for (const SimpleFault& f : list.simple) names.insert(f.name);
  EXPECT_EQ(names.size(), list.simple.size());
}

TEST(FaultList, SimpleFaultFactoriesValidate) {
  EXPECT_THROW(SimpleFault::single(FaultPrimitive::cfst(Bit::Zero, Bit::One)),
               Error);
  EXPECT_THROW(SimpleFault::coupled(FaultPrimitive::tf(Bit::Zero), true),
               Error);
  const SimpleFault f =
      SimpleFault::coupled(FaultPrimitive::cfst(Bit::Zero, Bit::One), false);
  EXPECT_EQ(f.a_pos, 1);
  EXPECT_EQ(f.v_pos, 0);
}

// --- canonical serialization + stable hashing (sweep store keys) ------------

TEST(FaultList, BuiltinTableNamesEveryListInOrder) {
  EXPECT_EQ(builtin_fault_list_names(),
            "list1, list2, simple, retention, decoder");
  const FaultList factories[] = {fault_list_1(), fault_list_2(),
                                 standard_simple_static_faults(),
                                 retention_fault_list(), decoder_fault_list()};
  ASSERT_EQ(builtin_fault_lists().size(), std::size(factories));
  for (std::size_t i = 0; i < std::size(factories); ++i) {
    const BuiltinFaultList& builtin = builtin_fault_lists()[i];
    EXPECT_EQ(find_builtin_fault_list(builtin.name), &builtin);
    const FaultList made = builtin.make();
    EXPECT_EQ(made.name, factories[i].name);
    EXPECT_EQ(stable_hash(made), stable_hash(factories[i])) << builtin.name;
  }
  EXPECT_EQ(find_builtin_fault_list("linked1"), nullptr);
  EXPECT_EQ(find_builtin_fault_list(""), nullptr);
}

TEST(FaultListCanonical, IsDeterministicAndNameFree) {
  const std::string a = to_canonical_string(fault_list_1());
  const std::string b = to_canonical_string(fault_list_1());
  EXPECT_EQ(a, b);

  // The list name is presentation metadata: equal content must serialize —
  // and therefore hash — identically under any label.
  FaultList renamed = fault_list_1();
  renamed.name = "another label";
  EXPECT_EQ(to_canonical_string(renamed), a);
  EXPECT_EQ(stable_hash(renamed), stable_hash(fault_list_1()));
}

TEST(FaultListCanonical, CoversEveryFaultKind) {
  // One line per fault, all three sections present for a mixed list.
  FaultList list;
  list.simple.push_back(SimpleFault::single(FaultPrimitive::tf(Bit::Zero)));
  list.linked = enumerate_single_cell_linked_faults();
  list.decoder.push_back(
      DecoderFault{DecoderFaultClass::MultipleCells, 3, Bit::One});
  const std::string canonical = to_canonical_string(list);
  EXPECT_NE(canonical.find("simple <0w1/0/->"), std::string::npos);
  EXPECT_NE(canonical.find("linked <"), std::string::npos);
  EXPECT_NE(canonical.find("decoder cls=2 bit=3 wired=1"), std::string::npos);
  // Line count: header + one line per fault.
  const std::size_t lines =
      static_cast<std::size_t>(std::count(canonical.begin(), canonical.end(), '\n'));
  EXPECT_EQ(lines, 1 + list.size());
}

TEST(FaultListCanonical, HashSeparatesTheBuiltInLists) {
  const FaultList lists[] = {fault_list_1(), fault_list_2(),
                             standard_simple_static_faults(),
                             retention_fault_list(), decoder_fault_list()};
  std::set<std::uint64_t> hashes;
  for (const FaultList& list : lists) {
    EXPECT_TRUE(hashes.insert(stable_hash(list)).second)
        << list.name << " collides with an earlier list";
  }
  // Decoder lists of different widths are different content.
  EXPECT_NE(stable_hash(decoder_fault_list(8)), stable_hash(decoder_fault_list(12)));
}

/// Hash of every linked fault's display name and fully_masking bit, in list
/// order: the canonical string leaves both out, so this pins them separately.
std::uint64_t linked_names_hash(const FaultList& list) {
  std::string text;
  for (const LinkedFault& lf : list.linked) {
    text += lf.name();
    text += lf.fully_masking() ? " 1\n" : " 0\n";
  }
  return stable_hash64(text);
}

TEST(FaultListCanonical, HashIsStableAcrossRunsAndPlatforms) {
  // Golden values locking the canonical format and the FNV-1a hash: a drift
  // here silently invalidates every persisted sweep record, so it must be a
  // conscious decision (bump kSweepStoreEngineVersion when semantics move).
  EXPECT_EQ(stable_hash(fault_list_2()), 0x49BB458D5748008Aull);
  EXPECT_EQ(stable_hash(standard_simple_static_faults()),
            0xAC9DC7A0D9D7FB26ull);
  EXPECT_EQ(stable_hash(decoder_fault_list()), 0xEF9B576B39423E08ull);
  EXPECT_EQ(stable_hash(fault_list_1()), 0xB032BA9B7818B07Aull);
  EXPECT_EQ(stable_hash(retention_fault_list()), 0x29B5C8D2D24EC983ull);
  EXPECT_EQ(linked_names_hash(fault_list_1()), 0x136AF766777C4656ull);
  EXPECT_EQ(linked_names_hash(retention_fault_list()), 0x471E5350EB5B568Cull);
}

}  // namespace
}  // namespace mtg
