// Example: watch the linked-fault masking of Figure 1 happen operation by
// operation, then watch March SL break the masking.
#include <iostream>

#include "march/catalog.hpp"
#include "march/parser.hpp"
#include "sim/trace.hpp"

int main() {
  using namespace mtg;

  // The linked disturb coupling fault of Equations 6/12: aggressor at cell
  // 0, victim at cell 2 (cells i < j < k of Figure 1 collapse to a shared
  // aggressor here, the two-cell variant the paper models on G0).
  FaultInstance inst;
  inst.fps.push_back(
      BoundFp(FaultPrimitive::cfds(Bit::Zero, SenseOp::W1, Bit::Zero), 0, 2));
  inst.fps.push_back(
      BoundFp(FaultPrimitive::cfds(Bit::One, SenseOp::W0, Bit::One), 0, 2));
  inst.description = "CFds<0w1;0>→CFds<1w0;1> (a=0, v=2)";

  // A blind test: sensitizes FP1, lets FP2 mask it, reads nothing in between.
  const MarchTest blind =
      parse_march_test("{c(w0); ^(w1); ^(w0); c(r0)}", "blind test");
  std::cout << "--- the masking (fault escapes) ---\n"
            << trace_run(blind, inst, 3, Bit::Zero).to_string() << "\n";

  // March SL reads the victim between the two sensitizations.
  std::cout << "--- March SL breaks the masking (interesting steps only) ---\n"
            << trace_run(march_sl(), inst, 3, Bit::Zero)
                   .to_string(/*only_interesting=*/true);
  return 0;
}
