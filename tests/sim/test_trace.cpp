#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "march/catalog.hpp"
#include "march/parser.hpp"
#include "memory/pattern_graph.hpp"
#include "sim/simulator.hpp"

namespace mtg {
namespace {

TEST(Trace, FaultFreeRunHasNoMismatchOrFirings) {
  FaultInstance none;
  const Trace trace = trace_run(march_c_minus(), none, 4, Bit::Zero);
  EXPECT_FALSE(trace.detected);
  EXPECT_EQ(trace.total_fires, 0u);
  EXPECT_EQ(trace.steps.size(), 10u * 4u);  // 10n test on 4 cells
  for (const TraceStep& step : trace.steps) {
    EXPECT_FALSE(step.mismatch);
    EXPECT_FALSE(step.fired);
    EXPECT_EQ(step.good_state, step.faulty_state);
  }
}

TEST(Trace, RecordsDetectionPoint) {
  FaultInstance inst;
  inst.fps.push_back(BoundFp::at(FaultPrimitive::sf(Bit::One), 2));
  inst.description = "SF1 at cell 2";
  const Trace trace = trace_run(march_x(), inst, 4, Bit::Zero);
  EXPECT_TRUE(trace.detected);
  EXPECT_GT(trace.total_fires, 0u);
  const TraceStep& hit = trace.steps[trace.first_mismatch];
  EXPECT_TRUE(hit.mismatch);
  EXPECT_EQ(hit.address, 2u);
  EXPECT_TRUE(is_read(hit.op));
}

TEST(Trace, ShowsTheFigure1MaskingStepByStep) {
  // Linked disturb CF: FP1 fires at the aggressor's w1, FP2 fires later and
  // restores the victim; a test ending before reading the victim in between
  // never sees a mismatch even though FPs fired twice.
  FaultInstance inst;
  inst.fps.push_back(BoundFp(
      FaultPrimitive::cfds(Bit::Zero, SenseOp::W1, Bit::Zero), 0, 2));
  inst.fps.push_back(BoundFp(
      FaultPrimitive::cfds(Bit::One, SenseOp::W0, Bit::One), 0, 2));
  inst.description = "linked CF (Eq. 12)";
  const MarchTest blind = parse_march_test("{c(w0); ^(w1); ^(w0); c(r0)}");
  const Trace trace = trace_run(blind, inst, 3, Bit::Zero, 0);
  EXPECT_FALSE(trace.detected);
  EXPECT_EQ(trace.total_fires, 2u);  // sensitized, then masked
  std::size_t fired_steps = 0;
  for (const TraceStep& step : trace.steps) fired_steps += step.fired ? 1 : 0;
  EXPECT_EQ(fired_steps, 2u);
}

TEST(Trace, AnyOrderMaskControlsDirection) {
  FaultInstance none;
  const MarchTest test = parse_march_test("{c(w0); c(r0)}");
  const Trace up = trace_run(test, none, 3, Bit::Zero, /*mask=*/0b00);
  const Trace down = trace_run(test, none, 3, Bit::Zero, /*mask=*/0b11);
  EXPECT_EQ(up.steps.front().address, 0u);
  EXPECT_EQ(down.steps.front().address, 2u);
}

TEST(Trace, RenderingContainsKeyEvents) {
  FaultInstance inst;
  inst.fps.push_back(BoundFp::at(FaultPrimitive::rdf(Bit::Zero), 1));
  inst.description = "RDF0 at cell 1";
  const Trace trace = trace_run(mats_plus(), inst, 3, Bit::Zero);
  const std::string full = trace.to_string();
  EXPECT_NE(full.find("MISMATCH"), std::string::npos);
  EXPECT_NE(full.find("FP fired"), std::string::npos);
  const std::string brief = trace.to_string(/*only_interesting=*/true);
  EXPECT_LT(brief.size(), full.size());
  EXPECT_NE(brief.find("MISMATCH"), std::string::npos);
}

TEST(Trace, ValidatesAddresses) {
  FaultInstance inst;
  inst.fps.push_back(BoundFp::at(FaultPrimitive::sf(Bit::One), 9));
  EXPECT_THROW(trace_run(mats_plus(), inst, 4, Bit::Zero), Error);
}

TEST(Trace, DecoderInstancesMatchTheScalarOracle) {
  // The trace replays run_scenario's scenario, decoder faults included:
  // its verdict must be run_scenario's in every scenario of every class.
  const std::size_t n = 8;
  const FaultSimulator simulator(SimulatorOptions{n});
  const MarchTest test = march_c_minus();
  const std::size_t combos = std::size_t{1}
                             << FaultSimulator::any_order_count(test);
  const std::vector<BehaviourClass> classes =
      behaviour_classes(decoder_fault_list(3), n);
  ASSERT_FALSE(classes.empty());
  for (const BehaviourClass& cls : classes) {
    const FaultInstance& inst = cls.representative;
    for (const Bit power_on : {Bit::Zero, Bit::One}) {
      for (std::size_t mask = 0; mask < combos; ++mask) {
        EXPECT_EQ(trace_run(test, inst, n, power_on, mask).detected,
                  simulator.run_scenario(test, inst, power_on, mask)
                      .has_value())
            << inst.description << ", power-on " << power_on << ", mask "
            << mask;
      }
    }
  }
}

TEST(Trace, ValidatesDecoderAddresses) {
  FaultInstance inst;
  inst.decoders.push_back(BoundDecoder(
      DecoderFault{DecoderFaultClass::WrongCell, 0, Bit::Zero}, 8, 9));
  EXPECT_THROW(trace_run(mats_plus(), inst, 8, Bit::Zero), Error);
}

TEST(Trace, NeedsThreeCells) {
  FaultInstance none;
  EXPECT_THROW(trace_run(mats_plus(), none, 2, Bit::Zero), Error);
}

}  // namespace
}  // namespace mtg
