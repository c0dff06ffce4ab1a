// Address-decoder fault simulation: scalar semantics, packed/scalar
// agreement, the n-dependent sweep curve (the acceptance golden of the
// decoder subsystem), the collapsing-soundness gate of the prefix engine,
// and the generator end of the pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "fp/decoder_fault.hpp"
#include "fp/fault_list.hpp"
#include "fp/semantics.hpp"
#include "gen/generator.hpp"
#include "march/catalog.hpp"
#include "march/parser.hpp"
#include "sim/coverage.hpp"
#include "sim/prefix_sim.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "coverage_helpers.hpp"

namespace mtg {
namespace {

FaultyMemory decoder_memory(std::size_t n, DecoderFaultClass cls,
                            std::size_t bit, std::size_t a, Bit wired) {
  const DecoderFault fault{cls, bit, wired};
  const std::size_t v = cls == DecoderFaultClass::NoAccess
                            ? a
                            : a ^ (std::size_t{1} << bit);
  return FaultyMemory(n, {}, {BoundDecoder(fault, a, v)});
}

// --- scalar operational semantics, class by class ---------------------------

TEST(DecoderScalar, NoAccessDropsWritesAndReadsTheAddressBit) {
  // Broken line 1, corrupted address 2 (bit set): reads at 2 return 1.
  FaultyMemory mem = decoder_memory(4, DecoderFaultClass::NoAccess, 1, 2,
                                    Bit::Zero);
  mem.power_on_uniform(Bit::Zero);
  mem.write(2, Bit::One);                   // dropped: no cell selected
  EXPECT_EQ(mem.state().get(2), Bit::Zero); // the cell itself never changed
  EXPECT_EQ(mem.read(2), Bit::One);         // address-coupled read-back
  // An address with the broken bit clear reads back 0.
  FaultyMemory low = decoder_memory(4, DecoderFaultClass::NoAccess, 1, 1,
                                    Bit::Zero);
  low.power_on_uniform(Bit::One);
  EXPECT_EQ(low.read(1), Bit::Zero);
  EXPECT_EQ(low.read(0), Bit::One);  // other addresses decode normally
}

TEST(DecoderScalar, WrongCellRedirectsBothPathsAndFreezesTheOwnCell) {
  FaultyMemory mem = decoder_memory(4, DecoderFaultClass::WrongCell, 1, 0,
                                    Bit::Zero);  // address 0 -> cell 2
  mem.power_on_uniform(Bit::One);
  mem.write(0, Bit::Zero);
  EXPECT_EQ(mem.state().get(2), Bit::Zero);  // redirected write
  EXPECT_EQ(mem.state().get(0), Bit::One);   // own cell frozen at power-on
  EXPECT_EQ(mem.read(0), Bit::Zero);         // redirected read sees cell 2
  mem.write(2, Bit::One);                    // the partner's own address works
  EXPECT_EQ(mem.read(0), Bit::One);
}

TEST(DecoderScalar, MultipleCellsWritesBothAndWiresTheReadBack) {
  FaultyMemory mem_or = decoder_memory(4, DecoderFaultClass::MultipleCells, 0,
                                       0, Bit::One);  // address 0 -> cells 0+1
  mem_or.power_on_uniform(Bit::Zero);
  mem_or.write(1, Bit::One);
  EXPECT_EQ(mem_or.read(0), Bit::One);  // wired-OR: 0 | 1
  mem_or.write(0, Bit::Zero);           // writes both cells
  EXPECT_EQ(mem_or.state().get(1), Bit::Zero);
  EXPECT_EQ(mem_or.read(0), Bit::Zero);

  FaultyMemory mem_and = decoder_memory(4, DecoderFaultClass::MultipleCells, 0,
                                        0, Bit::Zero);
  mem_and.power_on_uniform(Bit::One);
  mem_and.write(1, Bit::Zero);
  EXPECT_EQ(mem_and.read(0), Bit::Zero);  // wired-AND: 1 & 0
}

TEST(DecoderScalar, MultipleAddressesRedirectsOnlyTheWritePath) {
  FaultyMemory mem = decoder_memory(4, DecoderFaultClass::MultipleAddresses, 1,
                                    3, Bit::Zero);  // writes at 3 land on 1
  mem.power_on_uniform(Bit::Zero);
  mem.write(3, Bit::One);
  EXPECT_EQ(mem.state().get(1), Bit::One);   // partner written twice over
  EXPECT_EQ(mem.state().get(3), Bit::Zero);  // own cell never written
  EXPECT_EQ(mem.read(3), Bit::Zero);         // read path intact: stale cell 3
}

TEST(DecoderScalar, DecoderFaultsExcludeFaultPrimitives) {
  const DecoderFault fault{DecoderFaultClass::WrongCell, 0, Bit::Zero};
  EXPECT_THROW(FaultyMemory(4, {BoundFp::at(FaultPrimitive::sf(Bit::Zero), 0)},
                            {BoundDecoder(fault, 0, 1)}),
               Error);
  EXPECT_THROW(FaultyMemory(4, {},
                            {BoundDecoder(fault, 0, 1),
                             BoundDecoder(fault, 2, 3)}),
               Error);
}

// --- packed engine agreement ------------------------------------------------

TEST(DecoderPacked, MatchesScalarOnEveryCatalogTest) {
  const std::size_t n = 12;  // lines 0..3; non-power-of-two partner clipping
  SimulatorOptions options;
  options.memory_size = n;
  const FaultSimulator simulator(options);
  const auto instances = instantiate_all(decoder_fault_list(4), n);
  ASSERT_FALSE(instances.empty());
  for (const MarchTest& test : all_catalog_tests()) {
    for (const FaultInstance& inst : instances) {
      EXPECT_EQ(packed_detected_words(test, PackedFaultSim(inst)),
                scalar_detected_words(simulator, test, inst))
          << test.name() << " / " << inst.description;
      EXPECT_EQ(simulator.detects(test, inst),
                simulator.detects_scalar(test, inst))
          << test.name() << " / " << inst.description;
    }
  }
}

TEST(DecoderPacked, MultiWordMemoryAgreesAtN100) {
  // Decoder pairs spanning word boundaries (bit 6: distance 64).
  const std::size_t n = 100;
  SimulatorOptions options;
  options.memory_size = n;
  const FaultSimulator simulator(options);
  for (const FaultInstance& inst :
       instantiate_all(decoder_fault_list(7), n, /*cap=*/6)) {
    EXPECT_EQ(simulator.detects(march_sl(), inst),
              simulator.detects_scalar(march_sl(), inst))
        << inst.description;
  }
}

// --- the n-dependent sweep curve (acceptance golden) ------------------------

TEST(DecoderSweep, CoverageCurveVariesWithMemorySize) {
  // The acceptance criterion of the decoder subsystem: a catalog march test
  // swept against decoder_fault_list() over n ∈ {64, 256, 4096} must report
  // at least two distinct coverage values.  March SL detects every decoder
  // fault the memory can host, so the curve is exactly the fraction of
  // address lines present: 6/12, 8/12, 12/12.
  SweepOptions options;
  options.max_instances_per_fault = 128;
  const std::vector<SweepPoint> points = sweep_coverage(
      march_sl(), decoder_fault_list(), {64, 256, 4096}, options);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points[0].report.fault_coverage_percent(), 100.0 * 30 / 60);
  EXPECT_DOUBLE_EQ(points[1].report.fault_coverage_percent(), 100.0 * 40 / 60);
  EXPECT_DOUBLE_EQ(points[2].report.fault_coverage_percent(), 100.0);
  std::set<double> distinct;
  for (const SweepPoint& point : points) {
    distinct.insert(point.report.fault_coverage_percent());
    // Every instantiable instance is detected: the misses are exactly the
    // faults whose address line the memory does not have.
    EXPECT_EQ(point.report.instances_detected(),
              point.report.instances_total());
    for (const CoverageEntry& entry : point.report.entries) {
      if (entry.instances == 0) {
        EXPECT_FALSE(entry.covered);
        EXPECT_EQ(entry.escape_description,
                  "no instances fit the simulated memory");
      }
    }
  }
  EXPECT_GE(distinct.size(), 2u);
}

TEST(DecoderSweep, AcceptsDuplicateAndUnsortedSizeLists) {
  SweepOptions options;
  options.max_instances_per_fault = 32;
  const std::vector<SweepPoint> points = sweep_coverage(
      march_sl(), decoder_fault_list(4), {16, 8, 16}, options);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].memory_size, 16u);
  EXPECT_EQ(points[1].memory_size, 8u);
  EXPECT_EQ(points[2].memory_size, 16u);
  // Duplicate points produce byte-identical reports; order is preserved.
  EXPECT_EQ(points[0].report.summary(), points[2].report.summary());
  EXPECT_NE(points[0].report.summary(), points[1].report.summary());
}

TEST(DecoderSweep, RejectsSizesBelowTheSimulatorMinimumUpFront) {
  // The n >= 3 check runs before any point evaluates: a clean Error, not a
  // require abort from a worker mid-parallel-loop.
  try {
    sweep_coverage(march_sl(), decoder_fault_list(), {64, 2, 4096});
    FAIL() << "expected an Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(">= 3"), std::string::npos);
  }
}

// --- collapsing-soundness guards --------------------------------------------

TEST(DecoderCollapsing, SignatureKeysOnTheAddressBitTheMachineReads) {
  // AFna@b1 at n=4: addresses 0 and 1 read back 0, addresses 2 and 3 read
  // back 1 — two behaviour classes, split by bit 1 of the address.
  const auto na =
      instantiate(DecoderFault{DecoderFaultClass::NoAccess, 1, Bit::Zero}, 4,
                  /*fault_index=*/0);
  ASSERT_EQ(na.size(), 4u);
  const auto key = [](const FaultInstance& inst) {
    return PackedFaultSim(inst).signature();
  };
  EXPECT_EQ(key(na[0]), key(na[1]));
  EXPECT_EQ(key(na[2]), key(na[3]));
  EXPECT_NE(key(na[0]), key(na[2]));
  // Two-cell classes: the bit says whether the corrupted address comes
  // before its partner (a=0, v=2) or after it (a=2, v=0).
  const auto wc =
      instantiate(DecoderFault{DecoderFaultClass::WrongCell, 1, Bit::Zero}, 4,
                  /*fault_index=*/0);
  ASSERT_EQ(wc.size(), 4u);
  EXPECT_EQ(key(wc[0]), key(wc[1]));
  EXPECT_NE(key(wc[0]), key(wc[2]));
  // Decoder and FP signatures never collide.
  const auto fp_instances =
      instantiate(SimpleFault::single(FaultPrimitive::sf(Bit::Zero)), 4, 0);
  EXPECT_NE(key(fp_instances[0]), key(na[0]));
}

TEST(DecoderCollapsing, PrefixEngineKeepsStructurallyEqualInstancesApart) {
  // Regression for a collapsing-soundness bug: the four AFna@b1 instances
  // at n=4 are structurally identical (one involved cell, same class), but
  // their read-back is an *address bit* — addresses 2 and 3 read back 1,
  // addresses 0 and 1 read back 0.  Against {⇕(w0); ⇑(r0)} exactly the
  // read-back-1 instances are detected.  A signature blind to the address
  // bit would merge all four into one weighted representative and report
  // 0 or 4 undetected instead of 2.
  const std::size_t n = 4;
  FaultList list;
  list.decoder.push_back(
      DecoderFault{DecoderFaultClass::NoAccess, 1, Bit::Zero});
  const auto instances = instantiate_all(list, n);
  ASSERT_EQ(instances.size(), 4u);
  const MarchTest test = parse_march_test("{c(w0); ^(r0)}", "na probe");
  PrefixEngine engine(n, behaviour_classes(list, n), test,
                      /*record_checkpoints=*/false);
  EXPECT_EQ(engine.num_instances(), 4u);
  EXPECT_EQ(engine.num_representatives(), 2u);  // one per read-back bit
  EXPECT_EQ(engine.undetected_instances(), 2u);

  // The engine's verdict matches the per-instance simulator term for term.
  SimulatorOptions options;
  options.memory_size = n;
  const FaultSimulator simulator(options);
  std::size_t undetected = 0;
  for (const FaultInstance& inst : instances) {
    if (!simulator.detects(test, inst)) ++undetected;
  }
  EXPECT_EQ(undetected, 2u);
}

TEST(DecoderCollapsing, PrefixEngineAdvanceAndTrialsStayExact) {
  const std::size_t n = 8;
  const FaultList list = decoder_fault_list(3);
  const std::vector<FaultInstance> instances = instantiate_all(list, n);
  const MarchTest full = march_sl();
  MarchTest prefix("prefix", {full.elements()[0], full.elements()[1]});

  SimulatorOptions options;
  options.memory_size = n;
  const FaultSimulator simulator(options);

  PrefixEngine engine(n, behaviour_classes(list, n), prefix,
                      /*record_checkpoints=*/true);
  engine.advance(full);
  std::size_t undetected = 0;
  for (const FaultInstance& inst : instances) {
    if (!simulator.detects(full, inst)) ++undetected;
  }
  EXPECT_EQ(engine.undetected_instances(), undetected);

  // A drop-element trial must agree with a from-scratch simulation.
  for (const std::size_t edit : {std::size_t{1}, full.size() - 1}) {
    MarchTest edited = full;
    edited.elements().erase(edited.elements().begin() +
                            static_cast<long>(edit));
    bool expected = true;
    for (const FaultInstance& inst : instances) {
      if (!simulator.detects(edited, inst)) {
        expected = false;
        break;
      }
    }
    EXPECT_EQ(engine.trial_covers(edit, nullptr), expected) << "edit " << edit;
  }
}

// --- coverage and generation ------------------------------------------------

TEST(DecoderCoverage, MissingAddressLinesAreReportedUncovered) {
  SimulatorOptions options;
  options.memory_size = 4;  // lines 0 and 1 only
  const CoverageReport report = evaluate_coverage(
      FaultSimulator(options), march_sl(), decoder_fault_list(3));
  ASSERT_EQ(report.entries.size(), 15u);
  for (const CoverageEntry& entry : report.entries) {
    const bool line_present = entry.fault.find("@b2") == std::string::npos;
    EXPECT_EQ(entry.covered, line_present) << entry.fault;
    if (!line_present) {
      EXPECT_EQ(entry.instances, 0u) << entry.fault;
      EXPECT_EQ(entry.escape_description,
                "no instances fit the simulated memory");
    }
  }
  EXPECT_FALSE(report.full_coverage());
}

TEST(DecoderGeneration, GeneratorCoversEveryCertifiableDecoderFault) {
  // End-to-end: the generator must produce a test covering every decoder
  // fault the certify memory can host, reporting the others out of scope.
  const GenerationResult result = generate_march_test(decoder_fault_list(4));
  EXPECT_TRUE(result.full_coverage);
  // Certify size 6 hosts lines 0..2; every line-3 fault is out of scope.
  std::set<std::string> uncoverable(result.uncoverable.begin(),
                                    result.uncoverable.end());
  EXPECT_EQ(uncoverable, (std::set<std::string>{
                             "AFna@b3", "AFwc@b3", "AFmc-and@b3",
                             "AFmc-or@b3", "AFma@b3"}));
  for (const CoverageEntry& entry : result.certification.entries) {
    if (uncoverable.count(entry.fault) == 0) {
      EXPECT_TRUE(entry.covered) << entry.fault;
    }
  }
}

TEST(DecoderGeneration, MixedListsSimulateDecoderAndFpFaultsTogether) {
  // A list mixing cell-array and decoder faults exercises both item kinds in
  // one engine (collapsed FP items + collapsed decoder items).
  FaultList list = fault_list_2();
  list.decoder = decoder_fault_list(2).decoder;
  const GenerationResult result = generate_march_test(list);
  EXPECT_TRUE(result.full_coverage);
  EXPECT_TRUE(result.uncoverable.empty());
}

}  // namespace
}  // namespace mtg
