// Regenerates Table 1 of the paper: automatic march test generation for
// Fault List #1 (single-, two- and three-cell static linked faults) and
// Fault List #2 (single-cell static linked faults), with generation time,
// complexity, and test-length improvement over the published baselines
// (43n Al-Harbi/Gupta, 41n March SL, 11n March LF1).
//
// The paper reports CPU time.  The CPU(s) column is the process CPU time of
// one generation (std::clock() before and after, so every thread's time
// counts); Wall(s) is its steady-clock wall time.  The generation uses
// every hardware thread (the generator's default gain and certification
// thread counts), so on a multi-core host CPU(s) can exceed Wall(s); it is
// CPU(s) that compares with the paper's figure.  A(s) and C(s) are the wall
// times of generator phase A (the greedy gain scan) and phase C (the
// minimizer) within Wall(s), so a speedup shows where it lands.  The
// absolute time depends on the host and on the size of the reconstructed
// fault lists (ours enumerate the complete Definition-7 space); the *shape*
// to check against the paper is: generated tests reach 100% coverage with
// lower complexity than every published baseline, in seconds.
#include <cstdio>
#include <ctime>
#include <string>

#include "fp/fault_list.hpp"
#include "gen/generator.hpp"
#include "march/catalog.hpp"
#include "sim/coverage.hpp"

namespace {

double reduction_percent(std::size_t baseline, std::size_t ours) {
  return 100.0 * (static_cast<double>(baseline) - static_cast<double>(ours)) /
         static_cast<double>(baseline);
}

/// Process CPU seconds (all threads) since `start`, a std::clock() reading.
double cpu_seconds_since(std::clock_t start) {
  return static_cast<double>(std::clock() - start) / CLOCKS_PER_SEC;
}

/// Generation times of one row; all zero for a published test.
struct Times {
  double cpu = 0.0;
  double wall = 0.0;
  double phase_a = 0.0;
  double phase_c = 0.0;
};

Times generation_times(double cpu_seconds, const mtg::GenerationStats& stats) {
  return Times{cpu_seconds, stats.elapsed_seconds, stats.phase_a_seconds,
               stats.phase_c_seconds};
}

void print_row(const char* name, const char* list, const Times& times,
               std::size_t complexity, double coverage, double vs43,
               double vs41, double vs11) {
  std::printf("%-22s %-8s %8.3f %8.3f %7.3f %7.3f %6zun  %7.2f%%", name, list,
              times.cpu, times.wall, times.phase_a, times.phase_c, complexity,
              coverage);
  if (vs43 >= -999) std::printf("  %6.1f%%", vs43); else std::printf("      - ");
  if (vs41 >= -999) std::printf("  %6.1f%%", vs41); else std::printf("      - ");
  if (vs11 >= -999) std::printf("  %6.1f%%", vs11); else std::printf("      - ");
  std::printf("\n");
}

}  // namespace

int main() {
  using namespace mtg;

  std::printf("Table 1 — Automatic march test generation for static linked faults\n");
  std::printf("%-22s %-8s %8s %8s %7s %7s %7s %9s %8s %8s %8s\n",
              "March Test", "List", "CPU(s)", "Wall(s)", "A(s)", "C(s)", "O(n)",
              "coverage", "vs 43n", "vs 41nSL", "vs 11nLF1");
  std::printf("%s\n", std::string(113, '-').c_str());

  // --- Fault List #1 ----------------------------------------------------
  {
    const FaultList list1 = fault_list_1();
    const std::clock_t start = std::clock();
    const GenerationResult result = generate_march_test(list1);
    const double cpu_seconds = cpu_seconds_since(start);
    print_row("generated (List #1)", "#1",
              generation_times(cpu_seconds, result.stats),
              result.test.complexity(),
              result.certification.fault_coverage_percent(),
              reduction_percent(kAlHarbiGupta43nComplexity,
                                result.test.complexity()),
              reduction_percent(march_sl().complexity(),
                                result.test.complexity()),
              -1000);
    std::printf("  %s\n", result.test.to_string().c_str());

    // Published rows, re-simulated on the same reconstructed list.
    const FaultSimulator simulator;
    for (const MarchTest& test : {march_abl(), march_rabl(), march_sl()}) {
      const CoverageReport report = evaluate_coverage(simulator, test, list1);
      print_row(test.name().c_str(), "#1", Times{}, test.complexity(),
                report.fault_coverage_percent(),
                reduction_percent(kAlHarbiGupta43nComplexity,
                                  test.complexity()),
                reduction_percent(march_sl().complexity(), test.complexity()),
                -1000);
    }
  }

  // --- Fault List #2 ----------------------------------------------------
  {
    const FaultList list2 = fault_list_2();
    const std::clock_t start = std::clock();
    const GenerationResult result = generate_march_test(list2);
    const double cpu_seconds = cpu_seconds_since(start);
    print_row("generated (List #2)", "#2",
              generation_times(cpu_seconds, result.stats),
              result.test.complexity(),
              result.certification.fault_coverage_percent(), -1000, -1000,
              reduction_percent(march_lf1().complexity(),
                                result.test.complexity()));
    std::printf("  %s\n", result.test.to_string().c_str());

    const FaultSimulator simulator;
    for (const MarchTest& test : {march_abl1(), march_lf1()}) {
      const CoverageReport report = evaluate_coverage(simulator, test, list2);
      print_row(test.name().c_str(), "#2", Times{}, test.complexity(),
                report.fault_coverage_percent(), -1000, -1000,
                reduction_percent(march_lf1().complexity(),
                                  test.complexity()));
    }
  }

  std::printf(
      "\nPaper's Table 1 for reference: ABL 37n (1.03 s, 13.9%% vs 43n, "
      "9.7%% vs 41n), RABL 35n (1.35 s, 18.6%%, 14.6%%), ABL1 9n (0.98 s, "
      "18.1%% vs 11n LF1).\n");
  return 0;
}
