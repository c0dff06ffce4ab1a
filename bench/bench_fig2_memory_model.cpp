// Figure 2 reproduction: the fault-free memory model G0 (the 2-cell Mealy
// automaton as a labeled graph) and its edges out of state 00.
#include <cstdio>

#include "memory/memory_graph.hpp"

int main() {
  const mtg::MemoryGraph g0 = mtg::make_g0();
  std::printf("Figure 2 — G0, the 2-cell fault-free memory model: %zu states, "
              "%zu labeled edges\n",
              g0.num_vertices(), g0.edges().size());
  for (const mtg::GraphEdge& e : g0.edges_from(mtg::SmallState::from_string("00"))) {
    std::printf("  00 -> %s  [%s]\n", e.to.to_string().c_str(),
                e.label().c_str());
  }
  return 0;
}
