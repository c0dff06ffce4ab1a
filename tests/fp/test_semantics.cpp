#include "fp/semantics.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace mtg {
namespace {

FaultyMemory single_fault_memory(std::size_t n, FaultPrimitive fp,
                                 std::size_t cell, Bit power_on) {
  FaultyMemory memory(n, {BoundFp::at(std::move(fp), cell)});
  memory.power_on_uniform(power_on);
  return memory;
}

TEST(FaultyMemory, FaultFreeBehaviour) {
  FaultyMemory memory(4);
  memory.power_on_uniform(Bit::Zero);
  EXPECT_EQ(memory.read(0), Bit::Zero);
  memory.write(2, Bit::One);
  EXPECT_EQ(memory.read(2), Bit::One);
  EXPECT_EQ(memory.read(1), Bit::Zero);
  memory.write(2, Bit::Zero);
  EXPECT_EQ(memory.read(2), Bit::Zero);
  memory.wait(0);
  EXPECT_EQ(memory.state().to_string(), "0000");
  EXPECT_EQ(memory.total_fires(), 0u);
}

TEST(FaultyMemory, BoundFpValidatesAddresses) {
  EXPECT_THROW(BoundFp(FaultPrimitive::tf(Bit::Zero), 0, 1), Error);
  EXPECT_THROW(BoundFp(FaultPrimitive::cfst(Bit::Zero, Bit::Zero), 1, 1), Error);
  EXPECT_THROW(FaultyMemory(2, {BoundFp::at(FaultPrimitive::tf(Bit::Zero), 5)}),
               Error);
}

// --- single-cell FP truth tables ------------------------------------------

TEST(FaultyMemory, TransitionFaultUp) {
  // TF↑ <0w1/0/->: the 0→1 transition fails.
  auto memory = single_fault_memory(2, FaultPrimitive::tf(Bit::Zero), 1,
                                    Bit::Zero);
  memory.write(1, Bit::One);
  EXPECT_EQ(memory.read(1), Bit::Zero);  // transition failed
  EXPECT_EQ(memory.fire_count(0), 1u);
  // A write on another cell does not sensitize it.
  memory.write(0, Bit::One);
  EXPECT_EQ(memory.read(0), Bit::One);
}

TEST(FaultyMemory, TransitionFaultNotSensitizedFromOtherState) {
  // TF↑ fires only on w1 when the cell holds 0.
  auto memory =
      single_fault_memory(2, FaultPrimitive::tf(Bit::Zero), 1, Bit::One);
  memory.write(1, Bit::One);  // 1w1: no transition
  EXPECT_EQ(memory.read(1), Bit::One);
  EXPECT_EQ(memory.fire_count(0), 0u);
}

TEST(FaultyMemory, WriteDestructiveFault) {
  // WDF0 <0w0/1/->: a non-transition w0 flips the cell.
  auto memory =
      single_fault_memory(2, FaultPrimitive::wdf(Bit::Zero), 0, Bit::Zero);
  memory.write(0, Bit::Zero);
  EXPECT_EQ(memory.read(0), Bit::One);
  // The transition write 1→0 does not fire it.
  memory.write(0, Bit::Zero);  // cell holds 1: transition → fine
  EXPECT_EQ(memory.read(0), Bit::Zero);
}

TEST(FaultyMemory, ReadDestructiveFault) {
  // RDF0 <0r0/1/1>: the read flips the cell AND returns the flipped value.
  auto memory =
      single_fault_memory(2, FaultPrimitive::rdf(Bit::Zero), 0, Bit::Zero);
  EXPECT_EQ(memory.read(0), Bit::One);                  // wrong value returned
  EXPECT_EQ(memory.state().get(0), Bit::One);           // cell flipped
}

TEST(FaultyMemory, DeceptiveReadDestructiveFault) {
  // DRDF0 <0r0/1/0>: the read returns the CORRECT value but flips the cell.
  auto memory =
      single_fault_memory(2, FaultPrimitive::drdf(Bit::Zero), 0, Bit::Zero);
  EXPECT_EQ(memory.read(0), Bit::Zero);        // deceptively correct
  EXPECT_EQ(memory.state().get(0), Bit::One);  // but the cell flipped
  EXPECT_EQ(memory.read(0), Bit::One);         // second read exposes it
}

TEST(FaultyMemory, IncorrectReadFault) {
  // IRF0 <0r0/0/1>: wrong value returned, cell intact.
  auto memory =
      single_fault_memory(2, FaultPrimitive::irf(Bit::Zero), 0, Bit::Zero);
  EXPECT_EQ(memory.read(0), Bit::One);
  EXPECT_EQ(memory.state().get(0), Bit::Zero);
  EXPECT_EQ(memory.read(0), Bit::One);  // still wrong on every read
}

TEST(FaultyMemory, StateFaultFiresOnPowerOn) {
  // SF1 <1/0/->: the cell cannot hold 1.
  auto memory =
      single_fault_memory(2, FaultPrimitive::sf(Bit::One), 0, Bit::One);
  EXPECT_EQ(memory.state().get(0), Bit::Zero);  // decayed at power-on
  EXPECT_EQ(memory.fire_count(0), 1u);
}

TEST(FaultyMemory, StateFaultIsEdgeTriggeredAndRearms) {
  auto memory =
      single_fault_memory(2, FaultPrimitive::sf(Bit::One), 0, Bit::Zero);
  EXPECT_EQ(memory.fire_count(0), 0u);
  memory.write(0, Bit::One);  // condition becomes true → fires
  EXPECT_EQ(memory.state().get(0), Bit::Zero);
  EXPECT_EQ(memory.fire_count(0), 1u);
  memory.write(0, Bit::One);  // re-armed → fires again
  EXPECT_EQ(memory.state().get(0), Bit::Zero);
  EXPECT_EQ(memory.fire_count(0), 2u);
}

// --- two-cell FP truth tables ----------------------------------------------

TEST(FaultyMemory, DisturbCouplingFault) {
  // CFds <0w1;0/1/->: w1 on the aggressor (from 0) flips the victim (0→1).
  FaultyMemory memory(
      3, {BoundFp(FaultPrimitive::cfds(Bit::Zero, SenseOp::W1, Bit::Zero),
                  /*a=*/0, /*v=*/2)});
  memory.power_on_uniform(Bit::Zero);
  memory.write(0, Bit::One);
  EXPECT_EQ(memory.state().get(2), Bit::One);  // victim flipped
  EXPECT_EQ(memory.state().get(0), Bit::One);  // aggressor wrote normally
  // Write on a non-aggressor cell does not fire it.
  memory.power_on_uniform(Bit::Zero);
  memory.write(1, Bit::One);
  EXPECT_EQ(memory.state().get(2), Bit::Zero);
}

TEST(FaultyMemory, ReadDisturbCouplingFault) {
  // CFds <0r0;1/0/->: reading the aggressor disturbs the victim.
  FaultyMemory memory(
      2, {BoundFp(FaultPrimitive::cfds(Bit::Zero, SenseOp::Rd, Bit::One),
                  /*a=*/0, /*v=*/1)});
  memory.power_on(MemoryState(2));
  memory.write(1, Bit::One);
  EXPECT_EQ(memory.read(0), Bit::Zero);        // aggressor reads fine
  EXPECT_EQ(memory.state().get(1), Bit::Zero);  // victim disturbed
}

TEST(FaultyMemory, TransitionCouplingFault) {
  // CFtr <1;0w1/0/->: with the aggressor at 1, the victim's 0→1 write fails.
  FaultyMemory memory(2, {BoundFp(FaultPrimitive::cftr(Bit::One, Bit::Zero),
                                  /*a=*/0, /*v=*/1)});
  memory.power_on_uniform(Bit::Zero);
  memory.write(0, Bit::One);
  memory.write(1, Bit::One);
  EXPECT_EQ(memory.state().get(1), Bit::Zero);  // transition failed
  // With the aggressor at 0 the write succeeds.
  memory.power_on_uniform(Bit::Zero);
  memory.write(1, Bit::One);
  EXPECT_EQ(memory.state().get(1), Bit::One);
}

TEST(FaultyMemory, StateCouplingFaultLevelSemantics) {
  // CFst <1;0/1/->: while the aggressor holds 1, the victim cannot hold 0.
  FaultyMemory memory(2, {BoundFp(FaultPrimitive::cfst(Bit::One, Bit::Zero),
                                  /*a=*/0, /*v=*/1)});
  memory.power_on_uniform(Bit::Zero);
  EXPECT_EQ(memory.state().get(1), Bit::Zero);  // aggressor is 0: no fire
  memory.write(0, Bit::One);                    // condition becomes true
  EXPECT_EQ(memory.state().get(1), Bit::One);
  memory.write(1, Bit::Zero);  // victim rewritten to 0 → condition again
  EXPECT_EQ(memory.state().get(1), Bit::One);
  memory.write(0, Bit::Zero);  // aggressor released
  memory.write(1, Bit::Zero);
  EXPECT_EQ(memory.state().get(1), Bit::Zero);
}

TEST(FaultyMemory, DeceptiveReadDestructiveCoupling) {
  // CFdr <1;0r0/1/0>.
  FaultyMemory memory(2, {BoundFp(FaultPrimitive::cfdr(Bit::One, Bit::Zero),
                                  /*a=*/0, /*v=*/1)});
  memory.power_on_uniform(Bit::Zero);
  memory.write(0, Bit::One);
  EXPECT_EQ(memory.read(1), Bit::Zero);        // deceptively correct
  EXPECT_EQ(memory.state().get(1), Bit::One);  // flipped
}

// --- linked fault masking (the paper's Section 3 example) ------------------

TEST(FaultyMemory, LinkedDisturbCouplingMasksPerFigure1) {
  // FP1 = <0w1;0/1/-> on a1, FP2 = <0w1;1/0/-> on a2, shared victim v.
  // Performing 0w1 on a1 flips v to 1; performing 0w1 on a2 flips it back —
  // the fault effect is masked (Figure 1 / Equation 6).
  FaultyMemory memory(
      3, {BoundFp(FaultPrimitive::cfds(Bit::Zero, SenseOp::W1, Bit::Zero),
                  /*a=*/0, /*v=*/2),
          BoundFp(FaultPrimitive::cfds(Bit::Zero, SenseOp::W1, Bit::One),
                  /*a=*/1, /*v=*/2)});
  memory.power_on_uniform(Bit::Zero);
  memory.write(0, Bit::One);
  EXPECT_EQ(memory.state().get(2), Bit::One);  // FP1 sensitized
  memory.write(1, Bit::One);
  EXPECT_EQ(memory.state().get(2), Bit::Zero);  // FP2 masked the effect
  EXPECT_EQ(memory.fire_count(0), 1u);
  EXPECT_EQ(memory.fire_count(1), 1u);
  EXPECT_EQ(memory.total_fires(), 2u);
}

TEST(FaultyMemory, LinkedWdfRdfHidesEveryVictimRead) {
  // WDF0 → RDF1 on one cell: w0-on-0 flips the cell to 1, but any read of
  // the (faulty) 1 returns 0 and restores the cell — the classic fully
  // masking single-cell link.
  FaultyMemory memory(1, {BoundFp::at(FaultPrimitive::wdf(Bit::Zero), 0),
                          BoundFp::at(FaultPrimitive::rdf(Bit::One), 0)});
  memory.power_on_uniform(Bit::Zero);
  memory.write(0, Bit::Zero);                   // WDF0 fires
  EXPECT_EQ(memory.state().get(0), Bit::One);
  EXPECT_EQ(memory.read(0), Bit::Zero);         // RDF1 intercepts: looks fine
  EXPECT_EQ(memory.state().get(0), Bit::Zero);  // and restores the cell
}

TEST(FaultyMemory, PowerOnResetsFireCounts) {
  auto memory =
      single_fault_memory(2, FaultPrimitive::wdf(Bit::Zero), 0, Bit::Zero);
  memory.write(0, Bit::Zero);
  EXPECT_EQ(memory.fire_count(0), 1u);
  memory.power_on_uniform(Bit::Zero);
  EXPECT_EQ(memory.fire_count(0), 0u);
}

}  // namespace
}  // namespace mtg
