// Ablation of the generator's design choices (the phases are described in
// README "Generator pipeline"):
//   * redundancy elimination on/off (the paper's "non-redundant" claim),
//   * working memory size (greedy fidelity vs speed),
//   * candidate element length bound (SO search space).
//
// Fault List #2 is swept fully; Fault List #1 ablates the minimizer only
// (its sweeps dominate runtime on a laptop-class host).
//
// --quick runs a reduced matrix (CI smoke).  Per-phase generation times
// are printed by `mtg_cli generate --stats`.
#include <cstdio>
#include <cstring>
#include <string>

#include "fp/fault_list.hpp"
#include "gen/generator.hpp"

namespace {

void run(const char* label, const mtg::FaultList& list,
         const mtg::GeneratorOptions& options) {
  const mtg::GenerationResult result = generate_march_test(list, options);
  const mtg::GenerationStats& s = result.stats;
  std::printf(
      "%-34s %5zun %8.2fs  %6.2f%%  rounds=%zu pool=%zu B+B2=%.4fs%s\n",
      label, result.test.complexity(), s.elapsed_seconds,
      result.certification.fault_coverage_percent(), s.greedy_rounds,
      s.candidate_pool, s.phase_b_seconds + s.phase_b2_seconds,
      result.uncoverable.empty() ? "" : "  (uncoverable reported!)");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mtg;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: bench_generation_ablation [--quick]\n");
      return 2;
    }
  }

  std::printf("%-34s %6s %9s %8s  %s\n", "configuration", "O(n)", "wall",
              "coverage", "stats");
  std::printf("%s\n", std::string(80, '-').c_str());

  const FaultList list2 = fault_list_2();
  {
    GeneratorOptions options;
    run("L2 default", list2, options);
  }
  {
    GeneratorOptions options;
    options.minimize = false;
    run("L2 no redundancy elimination", list2, options);
  }
  if (!quick) {
    for (std::size_t working : {3, 4, 5}) {
      GeneratorOptions options;
      options.working_memory_size = working;
      char label[64];
      std::snprintf(label, sizeof label, "L2 working memory n=%zu", working);
      run(label, list2, options);
    }
    for (std::size_t len : {4, 5, 6, 7}) {
      GeneratorOptions options;
      options.max_element_length = len;
      char label[64];
      std::snprintf(label, sizeof label, "L2 max element length %zu", len);
      run(label, list2, options);
    }
  }

  const FaultList list1 = fault_list_1();
  {
    GeneratorOptions options;
    run("L1 default", list1, options);
  }
  if (!quick) {
    GeneratorOptions options;
    options.minimize = false;
    run("L1 no redundancy elimination", list1, options);
  }

  return 0;
}
