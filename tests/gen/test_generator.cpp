#include "gen/generator.hpp"

#include <gtest/gtest.h>

#include "fp/fault_list.hpp"
#include "march/catalog.hpp"
#include "memory/pattern_graph.hpp"

namespace mtg {
namespace {

GeneratorOptions fast_options() {
  GeneratorOptions options;
  options.working_memory_size = 4;
  options.certify_memory_size = 5;
  options.max_element_length = 5;
  return options;
}

TEST(Generator, CoversFaultListTwoBelowPublishedComplexity) {
  const GenerationResult result = generate_march_test(fault_list_2());
  EXPECT_TRUE(result.full_coverage);
  EXPECT_TRUE(result.uncoverable.empty());
  EXPECT_TRUE(result.certification.full_coverage());
  // Table 1: March ABL1 is 9n and March LF1 is 11n; the generator must do
  // at least as well.
  EXPECT_LE(result.test.complexity(), march_abl1().complexity());
  EXPECT_EQ(result.test.consistency_violation(), "");
  EXPECT_GT(result.stats.candidate_pool, 0u);
  EXPECT_GT(result.stats.greedy_rounds, 0u);
}

TEST(Generator, GeneratedTestIsIndependentlyValid) {
  const GenerationResult result = generate_march_test(fault_list_2());
  const FaultSimulator simulator(SimulatorOptions{6});
  const CoverageReport report =
      evaluate_coverage(simulator, result.test, fault_list_2());
  EXPECT_TRUE(report.full_coverage());
}

TEST(Generator, Deterministic) {
  const GenerationResult a = generate_march_test(fault_list_2());
  const GenerationResult b = generate_march_test(fault_list_2());
  EXPECT_EQ(a.test, b.test);
}

TEST(Generator, GainScanThreadCountDoesNotChangeTheTest) {
  // The parallel gain scan must keep generated tests identical for every
  // worker count: its shared pruning bound only abandons candidates that
  // cannot win or tie, and the reduction runs in pool order.
  GeneratorOptions sequential = fast_options();
  sequential.gain_threads = 1;
  const GenerationResult reference =
      generate_march_test(fault_list_2(), sequential);
  for (std::size_t threads : {std::size_t{2}, std::size_t{0}}) {
    GeneratorOptions options = fast_options();
    options.gain_threads = threads;
    const GenerationResult result = generate_march_test(fault_list_2(), options);
    EXPECT_EQ(reference.test, result.test) << "gain_threads=" << threads;
    EXPECT_EQ(reference.stats.greedy_rounds, result.stats.greedy_rounds);
  }
}

TEST(Generator, CoversTheRunningExampleList) {
  FaultList list;
  list.name = "paper running example";
  list.linked.push_back(disturb_coupling_linked_fault());
  const GenerationResult result = generate_march_test(list, fast_options());
  EXPECT_TRUE(result.full_coverage);
  EXPECT_LE(result.test.complexity(), 6u);
}

TEST(Generator, CoversSimpleStaticFaults) {
  // The unlinked static fault space (March SS territory, 22n published).
  const GenerationResult result =
      generate_march_test(standard_simple_static_faults(), fast_options());
  EXPECT_TRUE(result.full_coverage);
  EXPECT_LE(result.test.complexity(), march_ss().complexity());
}

TEST(Generator, MinimizeOptionControlsRedundancyElimination) {
  GeneratorOptions no_minimize = fast_options();
  no_minimize.minimize = false;
  const GenerationResult raw = generate_march_test(fault_list_2(), no_minimize);
  const GenerationResult minimized =
      generate_march_test(fault_list_2(), fast_options());
  EXPECT_LE(minimized.test.complexity(), raw.test.complexity());
  EXPECT_EQ(raw.stats.complexity_before_minimize, raw.test.complexity());
}

TEST(Generator, PolarityBridgeCoversSameSensitizerThreeCellFaults) {
  // Regression: CFds<0w0;0>→CFds<0w0;1> needs an all-0 non-transition w0;
  // when the greedy reaches this fault with the memory at 1 it must bridge
  // the polarity instead of reporting the fault uncoverable.
  const FaultPrimitive f_a =
      FaultPrimitive::cfds(Bit::Zero, SenseOp::W0, Bit::Zero);
  const FaultPrimitive f_b =
      FaultPrimitive::cfds(Bit::Zero, SenseOp::W0, Bit::One);
  FaultList list;
  list.name = "same-sensitizer LF3";
  list.linked.emplace_back(f_a, f_b, LinkedLayout::three_cell(1, 0, 2));
  list.linked.emplace_back(f_b, f_a, LinkedLayout::three_cell(0, 1, 2));
  const GenerationResult result = generate_march_test(list, fast_options());
  EXPECT_TRUE(result.full_coverage);
  EXPECT_TRUE(result.uncoverable.empty());
}

TEST(Generator, StatsArepopulated) {
  const GenerationResult result =
      generate_march_test(fault_list_2(), fast_options());
  EXPECT_GT(result.stats.elapsed_seconds, 0.0);
  EXPECT_GT(result.stats.working_instances, 0u);
  EXPECT_GT(result.stats.certify_instances, 0u);
  EXPECT_FALSE(result.stats.log.empty());
  EXPECT_NE(result.test.name().find("Fault List #2"), std::string::npos);
}

}  // namespace
}  // namespace mtg
