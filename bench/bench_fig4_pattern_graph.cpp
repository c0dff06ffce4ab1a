// Figure 4 reproduction: the pattern graph PGCF of the linked disturb
// coupling fault (Equations 12-14), plus the size of the pattern graph the
// generator's Section 4 data structure needs for Fault List #1.
#include <cstdio>

#include "fp/fault_list.hpp"
#include "memory/pattern_graph.hpp"

int main() {
  const mtg::PatternGraph pgcf = mtg::make_pgcf();
  std::printf("Figure 4 — PGCF: %zu states (2-cell model), %zu faulty edges\n",
              pgcf.num_vertices(), pgcf.faulty_edges().size());
  for (const mtg::FaultyEdge& e : pgcf.faulty_edges()) {
    std::printf("  %s -> %s  [%s]  (TP%d of %s)\n", e.from.to_string().c_str(),
                e.to.to_string().c_str(), e.label().c_str(), e.tp_index,
                e.source.c_str());
  }
  const mtg::FaultList list1 = mtg::fault_list_1();
  std::printf("Pattern graph of Fault List #1: |Vp| = 2^%zu = %zu\n",
              mtg::PatternGraph::required_model_cells(list1),
              std::size_t{1} << mtg::PatternGraph::required_model_cells(list1));
  return 0;
}
