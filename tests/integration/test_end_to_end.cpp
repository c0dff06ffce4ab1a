// End-to-end reproduction of the paper's flow on Fault List #2 (the Table 1
// "ABL1" row), plus replay of the worked examples of Sections 2-4.
#include <gtest/gtest.h>

#include "fp/fault_list.hpp"
#include "gen/generator.hpp"
#include "march/catalog.hpp"
#include "memory/pattern_graph.hpp"
#include "sim/coverage.hpp"

namespace mtg {
namespace {

TEST(EndToEnd, TableOneRowAbl1) {
  // Generate for Fault List #2 and reproduce the Table 1 comparison: the
  // generated test must fully cover the list and improve on the 11n March
  // LF1 at least as much as the paper's 9n March ABL1 does (18.1%).
  const FaultList list = fault_list_2();
  const GenerationResult result = generate_march_test(list);
  ASSERT_TRUE(result.full_coverage);

  const double improvement =
      100.0 *
      (static_cast<double>(march_lf1().complexity()) -
       static_cast<double>(result.test.complexity())) /
      static_cast<double>(march_lf1().complexity());
  EXPECT_GE(improvement, 18.0);

  // Generation takes seconds, as in the paper (generous CI bound).
  EXPECT_LT(result.stats.elapsed_seconds, 120.0);
}

TEST(EndToEnd, GeneratedTestSurvivesIndependentScrutiny) {
  const FaultList list = fault_list_2();
  const GenerationResult result = generate_march_test(list);
  // Validate on a larger memory than the generator used anywhere.
  const FaultSimulator simulator(SimulatorOptions{8});
  const CoverageReport report =
      evaluate_coverage(simulator, result.test, list);
  EXPECT_TRUE(report.full_coverage()) << report.summary();
}

TEST(EndToEnd, SectionThreeMaskingStory) {
  // The linked disturb coupling fault of Equation 12 escapes March C- (the
  // masking makes the classic test blind) but is caught by March SL and by
  // a test generated against a list containing it.
  FaultList list;
  list.name = "equation 12";
  list.linked.push_back(disturb_coupling_linked_fault());

  const FaultSimulator simulator(SimulatorOptions{5});
  EXPECT_TRUE(evaluate_coverage(simulator, march_sl(), list).full_coverage());

  GeneratorOptions options;
  options.certify_memory_size = 5;
  const GenerationResult result = generate_march_test(list, options);
  EXPECT_TRUE(result.full_coverage);
  EXPECT_LT(result.test.complexity(), march_sl().complexity());
}

TEST(EndToEnd, PatternGraphAgreesWithSimulator) {
  // Every linked TP pair in the pattern graph of Fault List #2 respects the
  // I2 = Fv1 chain, and the end-to-end detection the TPs promise is
  // consistent with the simulator: March ABL1 detects every fault.
  const FaultList list = fault_list_2();
  const PatternGraph pg(list);
  EXPECT_EQ(pg.model_cells(), 1u);
  EXPECT_EQ(pg.num_vertices(), 2u);
  EXPECT_EQ(pg.faulty_edges().size(), 2u * list.linked.size());

  const FaultSimulator simulator(SimulatorOptions{4});
  const CoverageReport report =
      evaluate_coverage(simulator, march_abl1(), list);
  EXPECT_TRUE(report.full_coverage());
}

TEST(EndToEnd, UncoverableFaultsAreReportedNotSilentlyDropped) {
  // A fault list containing only a fully-masking pair that no march test
  // can expose would be reported via GenerationResult::uncoverable; our
  // realistic lists contain none, which is itself worth pinning down.
  const GenerationResult r2 = generate_march_test(fault_list_2());
  EXPECT_TRUE(r2.uncoverable.empty());
}

}  // namespace
}  // namespace mtg
