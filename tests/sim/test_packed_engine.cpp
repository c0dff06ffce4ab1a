// Differential tests: the packed engine (sim/packed_engine.hpp) against the
// scalar reference machine, across the march catalog and the fault library.
// The packed path must reproduce the scalar verdicts bit for bit — these
// tests are the soundness net under every optimisation the engine applies
// (scenario lanes, cell collapsing, the shared good-machine trace).
#include "sim/packed_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "fp/fault_list.hpp"
#include "march/catalog.hpp"
#include "march/parser.hpp"
#include "memory/pattern_graph.hpp"
#include "coverage_helpers.hpp"
#include "sim/coverage.hpp"

namespace mtg {
namespace {

SimulatorOptions options_for(std::size_t n) {
  SimulatorOptions options;
  options.memory_size = n;
  return options;
}

/// Asserts detects() and detects_scalar() agree on every instance of `list`.
void expect_detection_agreement(const MarchTest& test, const FaultList& list,
                                std::size_t n, std::size_t stride = 1) {
  const FaultSimulator simulator(options_for(n));
  const std::vector<FaultInstance> instances = instantiate_all(list, n);
  for (std::size_t i = 0; i < instances.size(); i += stride) {
    const bool expected = simulator.detects_scalar(test, instances[i]);
    EXPECT_EQ(simulator.detects(test, instances[i]), expected)
        << test.name() << " / " << instances[i].description;
  }
}

TEST(PackedEngine, CatalogAgreesOnSimpleStaticFaults) {
  const FaultList list = standard_simple_static_faults();
  for (const MarchTest& test : all_catalog_tests()) {
    expect_detection_agreement(test, list, 4);
  }
}

TEST(PackedEngine, CatalogAgreesOnLinkedFaultListTwo) {
  const FaultList list = fault_list_2();
  for (const MarchTest& test : all_catalog_tests()) {
    expect_detection_agreement(test, list, 4);
  }
}

TEST(PackedEngine, LinkedFaultListOneSampleAgrees) {
  // Fault List #1 spans two- and three-cell linked faults (the heaviest
  // layouts the library produces); sample it to bound the runtime.
  const FaultList list = fault_list_1();
  for (const MarchTest& test : {march_sl(), march_abl1(), mats_plus()}) {
    expect_detection_agreement(test, list, 5, /*stride=*/7);
  }
}

TEST(PackedEngine, AnyOrderHeavyTestsAgree) {
  // ⇕-heavy tests stress the scenario lanes: 7 ⇕ elements → 128 order
  // assignments × 2 power-ons = 256 scenarios = 4 lane blocks.
  const MarchTest seven_any = parse_march_test(
      "{c(w0); c(r0,w1); c(r1,w0); c(r0,w1); c(r1,w0); c(r0,w1); c(r1)}",
      "seven-any");
  const MarchTest mixed = parse_march_test(
      "{c(w0); ^(r0,w1); c(r1,w0); v(r0,w1,r1); c(r1,w0,r0)}", "mixed-any");
  const FaultList list = standard_simple_static_faults();
  expect_detection_agreement(seven_any, list, 4);
  expect_detection_agreement(mixed, list, 4);
}

TEST(PackedEngine, SimulateDiagnosticsAgree) {
  // Every scenario's verdict, not just the overall one: the packed block's
  // detected lanes against run_scenario for each power-on × ⇕ mask.
  const FaultSimulator simulator(options_for(4));
  const FaultList list = standard_simple_static_faults();
  for (const MarchTest& test : {mats_plus(), march_x(), march_ss()}) {
    for (const FaultInstance& inst : instantiate_all(list, 4)) {
      EXPECT_EQ(packed_detected_words(test, PackedFaultSim(inst)),
                scalar_detected_words(simulator, test, inst))
          << test.name() << " / " << inst.description;
    }
  }
}

TEST(PackedEngine, LinkedMaskingPairsAgree) {
  // The WDF0→WDF1 masking pair of test_simulator.cpp plus aggressor-linked
  // pairs: the packed engine must reproduce masking emergent behaviour.
  FaultInstance same_cell;
  same_cell.fps.push_back(BoundFp::at(FaultPrimitive::wdf(Bit::Zero), 1));
  same_cell.fps.push_back(BoundFp::at(FaultPrimitive::wdf(Bit::One), 1));
  FaultInstance cross_cell;
  cross_cell.fps.push_back(BoundFp(
      FaultPrimitive::cfds(Bit::Zero, SenseOp::W1, Bit::Zero), 0, 2));
  cross_cell.fps.push_back(BoundFp(
      FaultPrimitive::cfds(Bit::One, SenseOp::W0, Bit::One), 3, 2));
  const FaultSimulator simulator(options_for(4));
  for (const MarchTest& test : all_catalog_tests()) {
    for (const FaultInstance* inst : {&same_cell, &cross_cell}) {
      EXPECT_EQ(simulator.detects(test, *inst),
                simulator.detects_scalar(test, *inst))
          << test.name() << " / " << inst->description;
    }
  }
}

TEST(PackedEngine, RequiresDetectionFromBothPowerOnStates) {
  // IRF0 under a bare-read test: detected from all-0 power-on, escapes from
  // all-1 — so it is not covered, and the escape is the all-1 scenario.
  const MarchTest bare_read = parse_march_test("{c(r)}", "bare-read");
  FaultInstance irf0;
  irf0.fps.push_back(BoundFp::at(FaultPrimitive::irf(Bit::Zero), 2));
  const FaultSimulator simulator(options_for(4));
  EXPECT_FALSE(simulator.detects(bare_read, irf0));
  EXPECT_FALSE(simulator.detects_scalar(bare_read, irf0));
  EXPECT_TRUE(simulator.run_scenario(bare_read, irf0, Bit::Zero, 0));
  EXPECT_FALSE(simulator.run_scenario(bare_read, irf0, Bit::One, 0));
  // Scenarios 0/1 power on all-0 (detected), 2/3 all-1 (escape).
  EXPECT_EQ(packed_detected_words(bare_read, PackedFaultSim(irf0)),
            std::vector<std::uint64_t>{0b0011});
}

TEST(PackedEngine, CoverageReportsAgree) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SimulatorOptions options = options_for(5);
    options.coverage_threads = threads;
    const FaultSimulator simulator(options);
    for (const MarchTest& test : {march_ss(), march_sl(), mats_plus()}) {
      const CoverageReport a =
          evaluate_coverage(simulator, test, standard_simple_static_faults());
      const CoverageReport b = evaluate_coverage_per_instance(
          simulator, test, standard_simple_static_faults(), 0,
          /*scalar=*/true);
      ASSERT_EQ(a.entries.size(), b.entries.size());
      for (std::size_t i = 0; i < a.entries.size(); ++i) {
        EXPECT_EQ(a.entries[i].detected, b.entries[i].detected);
        EXPECT_EQ(a.entries[i].instances, b.entries[i].instances);
        EXPECT_EQ(a.entries[i].covered, b.entries[i].covered);
        EXPECT_EQ(a.entries[i].escape_description,
                  b.entries[i].escape_description);
      }
      EXPECT_EQ(a.summary(), b.summary()) << test.name();
    }
  }
}

TEST(PackedEngine, CoverageParallelIsDeterministic) {
  SimulatorOptions options = options_for(6);
  options.coverage_threads = 4;
  const FaultSimulator simulator(options);
  const CoverageReport a =
      evaluate_coverage(simulator, march_sl(), fault_list_2());
  const CoverageReport b =
      evaluate_coverage(simulator, march_sl(), fault_list_2());
  EXPECT_EQ(a.summary(), b.summary());
}

TEST(PackedEngine, ScenarioWordsMatchEnumeration) {
  // combos = 2^7 order assignments, two power-ons → 256 scenarios.
  const std::size_t combos = 128;
  const std::size_t total = 2 * combos;
  for (std::size_t base = 0; base < total; base += 64) {
    const std::uint64_t active = scenario_active_word(base, total);
    const std::uint64_t power1 = scenario_power1_word(base, combos);
    EXPECT_EQ(active, ~std::uint64_t{0});
    for (std::size_t lane = 0; lane < 64; ++lane) {
      const std::size_t sc = base + lane;
      EXPECT_EQ((power1 >> lane) & 1u, sc >= combos ? 1u : 0u);
      for (std::size_t ordinal = 0; ordinal < 7; ++ordinal) {
        const std::uint64_t down = scenario_down_word(base, combos, ordinal);
        EXPECT_EQ((down >> lane) & 1u, ((sc % combos) >> ordinal) & 1u)
            << "base=" << base << " lane=" << lane << " ordinal=" << ordinal;
      }
    }
  }
  // Partial final block and the power-on split of a 16-scenario set.
  EXPECT_EQ(scenario_active_word(0, 12), (std::uint64_t{1} << 12) - 1);
  EXPECT_EQ(scenario_power1_word(0, 8) & scenario_active_word(0, 16),
            std::uint64_t{0xFF00});
}

TEST(PackedEngine, OutOfRangeAddressesThrowLikeScalar) {
  FaultInstance oob;
  oob.fps.push_back(BoundFp::at(FaultPrimitive::sf(Bit::One), 100));
  const FaultSimulator packed(options_for(4));
  EXPECT_THROW(packed.detects(mats_plus(), oob), Error);
  EXPECT_THROW(packed.detects_scalar(mats_plus(), oob), Error);
}

TEST(PackedEngine, DetectsAllMatchesPerInstanceDetects) {
  // The batch shape of evaluate_coverage: one compiled test shared by every
  // detects() call must give each instance its scalar verdict.
  const FaultSimulator packed(options_for(4));
  const std::vector<FaultInstance> instances =
      instantiate_all(standard_simple_static_faults(), 4);
  for (const MarchTest& test : {mats_plus(), march_ss()}) {
    const CompiledTest compiled = compile_march_test(test);
    for (const FaultInstance& inst : instances) {
      EXPECT_EQ(packed.detects(test, inst, &compiled),
                packed.detects_scalar(test, inst))
          << test.name() << " / " << inst.description;
    }
  }
}

TEST(PackedEngine, OversizedInstancesAreRejected) {
  // The packed engine has no scalar fallback: an instance past kMaxFps
  // bound FPs, or a decoder fault combined with FPs, throws at entry.
  FaultInstance five;
  for (std::size_t cell = 0; cell < 5; ++cell) {
    five.fps.push_back(BoundFp::at(FaultPrimitive::sf(Bit::One), cell));
  }
  FaultInstance mixed;
  mixed.fps.push_back(BoundFp::at(FaultPrimitive::sf(Bit::One), 0));
  mixed.decoders.push_back(BoundDecoder(
      DecoderFault{DecoderFaultClass::NoAccess, 0, Bit::Zero}, 1, 1));
  const FaultSimulator packed(options_for(8));
  EXPECT_THROW(packed.detects(mats_plus(), five), Error);
  EXPECT_THROW(packed.detects(mats_plus(), mixed), Error);
}

TEST(PackedEngine, FaultFreeInstanceNeverDetected) {
  const FaultSimulator packed(options_for(4));
  FaultInstance none;
  for (const MarchTest& test : all_catalog_tests()) {
    EXPECT_FALSE(packed.detects(test, none)) << test.name();
  }
}

TEST(PackedEngine, CompiledTraceTracksGoodMachine) {
  const MarchTest test =
      parse_march_test("{c(w0); ^(r0,w1,r1,w0); v(r0)}", "trace");
  const CompiledTest compiled = compile_march_test(test);
  ASSERT_EQ(compiled.traces.size(), 3u);
  EXPECT_EQ(compiled.any_count, 1u);
  EXPECT_EQ(compiled.any_ordinal[0], 0);
  EXPECT_EQ(compiled.any_ordinal[1], -1);
  // Element 1 = (r0,w1,r1,w0): the trace is symbolic per element, so the
  // ops before the first write expect the previous element's uniform value.
  const ElementTrace& trace = compiled.traces[1];
  EXPECT_EQ(trace.pre[0], TraceVal::Prev);
  EXPECT_EQ(trace.pre[1], TraceVal::Prev);
  EXPECT_EQ(trace.pre[2], TraceVal::One);
  EXPECT_EQ(trace.pre[3], TraceVal::One);
  EXPECT_EQ(trace.final_value, TraceVal::Zero);
  // First element: reads before any write expect the power-on value.
  EXPECT_EQ(compiled.traces[0].pre[0], TraceVal::Prev);
}

/// A random element of 1–6 ops over {r, w0, w1, t} (order Up; the batch
/// sets the direction).
MarchElement random_element(std::mt19937& rng) {
  static constexpr Op kOps[] = {Op::R0, Op::W0, Op::W1, Op::T};
  std::vector<Op> ops(1 + rng() % 6);
  for (Op& op : ops) op = kOps[rng() % 4];
  return MarchElement(AddressOrder::Up, ops);
}

/// Bit `lane` of a 64- or 128-lane word (lane l of a BatchWord is bit
/// l % 64 of half l / 64).
std::uint32_t lane_bit(std::uint64_t word, std::size_t lane) {
  return static_cast<std::uint32_t>((word >> lane) & 1u);
}
std::uint32_t lane_bit(BatchWord word, std::size_t lane) {
  return lane_bit(word[lane / 64], lane % 64);
}

/// Lane `lane`'s whole state, one bit per word: detected, uniform, every
/// val slot and every armed flag.
template <typename Word>
std::uint32_t lane_state(const PackedFaultSim::LanesOf<Word>& lanes,
                         std::size_t lane) {
  std::uint32_t state =
      lane_bit(lanes.detected, lane) | lane_bit(lanes.uniform, lane) << 1;
  std::size_t at = 2;
  for (const Word& word : lanes.val) state |= lane_bit(word, lane) << at++;
  for (const Word& word : lanes.armed) state |= lane_bit(word, lane) << at++;
  return state;
}

TEST(PackedEngine, BatchMatchesRunElementPerLane) {
  // run_batch replays up to 128 members of one direction side by side, one
  // lane each, from one lane state broadcast to every lane, and steps every
  // op kind of a position in one fused pass.  For every active lane of a
  // random block, member m's lane must end exactly as run_element leaves
  // that lane of the block under member m's element: the newly detected bit
  // and the whole lane state.  Elements mix kinds at every position; words
  // are partly or fully filled, so members sit on both halves; S ∈ {2, 4,
  // 64, 128} varies the blocks' power-on and ⇕ histories.
  std::mt19937 rng(20261018);
  const std::pair<FaultList, std::size_t> lists[] = {
      {fault_list_1(), 5},         // two- and three-cell linked faults
      {retention_fault_list(), 4},  // state faults and waits
      {decoder_fault_list(3), 8},  // the four decoder classes
  };
  constexpr std::size_t kScenarios[] = {2, 4, 64, 128};
  for (const auto& [list, n] : lists) {
    const std::vector<FaultInstance> instances = instantiate_all(list, n, 2);
    const std::size_t stride = std::max<std::size_t>(1, instances.size() / 150);
    for (std::size_t i = 0; i < instances.size(); i += stride) {
      const PackedFaultSim sim(instances[i]);
      // A block past power-on and up to two elements in mixed orders.
      const std::size_t scenarios = kScenarios[rng() % 4];
      const std::size_t base = 64 * (rng() % ((scenarios + 63) / 64));
      PackedFaultSim::Lanes block;
      sim.power_on_block(block, base, scenarios / 2);
      for (std::size_t e = rng() % 3; e > 0; --e) {
        const MarchElement element = random_element(rng);
        const std::uint64_t high = rng();
        const std::uint64_t down = (high << 32 | rng()) & block.active;
        sim.run_element(block, element, compile_element_trace(element), down);
      }
      for (const bool down : {false, true}) {
        ElementBatch batch(down);
        const std::size_t members = rng() % 4 == 0
                                        ? ElementBatch::kLanes
                                        : 1 + rng() % ElementBatch::kLanes;
        std::vector<MarchElement> elements;
        std::vector<PackedFaultSim::Lanes> refs(members, block);
        std::vector<std::uint64_t> ref_newly;
        for (std::size_t m = 0; m < members; ++m) {
          elements.push_back(random_element(rng));
          const ElementTrace trace = compile_element_trace(elements.back());
          batch.add(elements.back(), trace);
          ref_newly.push_back(sim.run_element(refs[m], elements.back(), trace,
                                              down ? ~std::uint64_t{0} : 0));
        }
        for (std::uint64_t active = block.active; active != 0;
             active &= active - 1) {
          const std::size_t lane =
              static_cast<std::size_t>(__builtin_ctzll(active));
          PackedFaultSim::LanesOf<BatchWord> lanes =
              ElementBatch::broadcast(block, lane);
          const BatchWord newly = sim.run_batch(lanes, batch);
          for (std::size_t m = 0; m < members; ++m) {
            const auto where = [&] {
              return list.name + " / " + instances[i].description +
                     " S=" + std::to_string(scenarios) +
                     " base=" + std::to_string(base) + " lane " +
                     std::to_string(lane) + " member " + std::to_string(m) +
                     "/" + std::to_string(members) + (down ? " ⇓" : " ⇑") +
                     elements[m].to_string();
            };
            ASSERT_EQ(lane_bit(newly, m), lane_bit(ref_newly[m], lane))
                << where();
            ASSERT_EQ(lane_state(lanes, m), lane_state(refs[m], lane))
                << where();
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace mtg
