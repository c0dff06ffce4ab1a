// Section 6 validation claim: every published march test fault-simulated
// against the reconstructed fault lists.  Prints the coverage matrix
// (tests × fault lists) that underpins the paper's comparison columns.
//
// Usage: bench_coverage_matrix [memory_size]   (default n = 6)
#include <cstdio>
#include <exception>

#include "common/parse.hpp"
#include "fp/fault_list.hpp"
#include "march/catalog.hpp"
#include "sim/coverage.hpp"

int main(int argc, char** argv) {
  using namespace mtg;
  std::size_t n = 6;
  if (argc > 1) {
    // Validated parsing (common/parse.hpp): the old std::atoi silently
    // turned garbage into n = 0 and simulated a zero-cell memory.
    try {
      n = parse_memory_size(argv[1], "memory size");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\nusage: bench_coverage_matrix [n >= 3]\n",
                   e.what());
      return 2;
    }
  }
  const FaultSimulator simulator(SimulatorOptions{n});

  const FaultList list2 = fault_list_2();
  const FaultList list1 = fault_list_1();
  const FaultList simple = standard_simple_static_faults();

  std::printf("Fault coverage matrix (simulated memory n=%zu)\n", n);
  std::printf("%-12s %6s %14s %14s %14s\n", "Test", "O(n)", "List #2",
              "List #1", "simple static");
  std::printf("%s\n", std::string(66, '-').c_str());
  for (const MarchTest& test : all_catalog_tests()) {
    const double c2 =
        evaluate_coverage(simulator, test, list2).fault_coverage_percent();
    const double c1 =
        evaluate_coverage(simulator, test, list1).fault_coverage_percent();
    const double cs =
        evaluate_coverage(simulator, test, simple).fault_coverage_percent();
    std::printf("%-12s %5zun %13.2f%% %13.2f%% %13.2f%%\n",
                test.name().c_str(), test.complexity(), c2, c1, cs);
  }
  std::printf(
      "\nExpected shape: classic tests (MATS+ ... March U) stay well below "
      "100%% on the linked lists;\nMarch SL reaches 100%% on both; March "
      "LF1/ABL1 reach 100%% on List #2 only.\n");
  return 0;
}
