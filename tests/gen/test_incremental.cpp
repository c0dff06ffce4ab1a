// Locks the incremental generator pipeline (persistent certification state,
// fault dropping, checkpointed minimization) byte-identical to the
// from-scratch implementation it replaced:
//
//  * Golden tests: the generated march test for every built-in fault list,
//    captured from the pre-incremental implementation (the sequential
//    certification loop re-simulating every instance per CEGIS round and
//    the minimizer re-simulating every instance per trial).  Any
//    divergence — however the engine is refactored — fails here first.
//  * Thread invariance: gain_threads × certify_threads sweeps produce the
//    same test, log, counters and certification report as the
//    single-threaded run; phase C's counters are pinned.
//  * Minimizer differential: minimize_test (checkpointed, on behaviour
//    classes) equals minimize_test_rescan (the from-scratch reference in
//    minimizer_reference.hpp, on every instance) on padded and catalog
//    tests, for List #2 and for the decoder list.
#include "gen/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fp/fault_list.hpp"
#include "../sim/coverage_helpers.hpp"
#include "gen/minimizer.hpp"
#include "march/catalog.hpp"
#include "march/parser.hpp"
#include "minimizer_reference.hpp"

namespace mtg {
namespace {

FaultList list_by_name(const std::string& name) {
  if (name == "list1") return fault_list_1();
  if (name == "list2") return fault_list_2();
  if (name == "simple") return standard_simple_static_faults();
  if (name == "decoder") return decoder_fault_list();
  return retention_fault_list();
}

struct Golden {
  const char* list;
  const char* test;  ///< ascii to_string of the pre-incremental generator
};

TEST(IncrementalGenerator, DefaultOptionsMatchPreIncrementalGoldens) {
  // Captured from the from-scratch implementation (commit 2634ec0) with
  // default GeneratorOptions.
  const Golden goldens[] = {
      {"list2", "{c(w0); ^(r0); ^(r0); ^(w1,r1); ^(r1); ^(w1,r1)}"},
      {"simple",
       "{c(w0); ^(r0,w1,r1); ^(r1,w0,r0); v(r0,w1,w1,r1); "
       "v(r1,w1,r1,w0,w0,r0); v(r0,w0,r0,w1); ^(r1)}"},
      {"retention", "{c(w0); ^(w1,t); ^(t,r1,w0); ^(t,r0,w1); ^(w0,t,r0)}"},
      {"list1",
       "{c(w0); ^(r0,w1,r1); ^(r1,w0,r0); ^(r0); v(r0,w1,w1,r1); "
       "v(r1,w1,r1,w0); ^(r0); ^(w0); ^(r0,w0,r0,r0,w1); ^(r1,w0,w0,w1); "
       "^(r1); v(r1,w0,r0,w1); ^(r1)}"},
      // Phase C also proves its removals on the bit-2 decoder classes,
      // which only memories of more than 4 cells have.
      {"decoder", "{c(w0); ^(r0,w1); ^(r1,w0)}"},
  };
  for (const Golden& golden : goldens) {
    const GenerationResult result =
        generate_march_test(list_by_name(golden.list));
    EXPECT_EQ(result.test.to_string(/*ascii=*/true), golden.test)
        << golden.list;
    EXPECT_TRUE(result.full_coverage) << golden.list;
    // The persistent engine drops every certify instance it pays for.
    EXPECT_GT(result.stats.instances_dropped, 0u) << golden.list;
  }
}

TEST(IncrementalGenerator, ReCertificationAfterMinimizingFindsNoEscapes) {
  // Phase C proves every removal on the certification engine, so once
  // phase B has converged the B2 pass has nothing left to find.
  for (const char* name : {"list1", "list2", "simple", "retention", "decoder"}) {
    for (const std::size_t certify_threads : {std::size_t{0}, std::size_t{2}}) {
      GeneratorOptions options;
      options.certify_threads = certify_threads;
      const std::vector<std::string> log =
          generate_march_test(list_by_name(name), options).stats.log;
      const auto minimized =
          std::find_if(log.begin(), log.end(), [](const std::string& line) {
            return line.rfind("phase C (minimizer) done", 0) == 0;
          });
      ASSERT_NE(minimized, log.end()) << name;
      for (auto line = minimized; line != log.end(); ++line) {
        EXPECT_EQ(line->rfind("certification found", 0), std::string::npos)
            << name << " certify_threads=" << certify_threads << ": "
            << *line;
      }
    }
  }
}

TEST(IncrementalGenerator, GainScanOutputsArePinned) {
  // What "byte-identical" means for a change to the phase-A gain scan,
  // captured from the 64-lane scan with default GeneratorOptions: the
  // decoder list's generated test, and every greedy round of List #1 —
  // the winner and its exact gain, which pruning must never cut short.
  EXPECT_EQ(generate_march_test(list_by_name("decoder")).test.to_string(),
            "{⇕(w0); ⇑(r0,w1); ⇑(r1,w0)}");

  const std::vector<std::string> rounds = {
      "appended ⇑(r0) (gain 3823, 3632 instances left)",
      "appended ⇓(r0) (gain 1972, 3139 instances left)",
      "appended ⇑(r0,w1,r1) (gain 3463, 2226 instances left)",
      "appended ⇑(r1) (gain 2150, 1560 instances left)",
      "appended ⇑(r1,w0,r0) (gain 1932, 1003 instances left)",
      "appended ⇑(r0) (gain 718, 810 instances left)",
      "appended ⇓(r0,w1,w1,r1) (gain 1101, 486 instances left)",
      "appended ⇑(r1) (gain 509, 325 instances left)",
      "appended ⇓(r1,w1,r1,w0) (gain 586, 131 instances left)",
      "appended ⇑(r0) (gain 130, 94 instances left)",
      "appended ⇑(w0,r0) (gain 108, 58 instances left)",
      "appended ⇑(r0) (gain 30, 48 instances left)",
      "appended ⇑(r0,w0,r0,r0,w1) (gain 104, 20 instances left)",
      "appended ⇑(r1) (gain 24, 14 instances left)",
      "appended ⇑(r1,w0,w0,w1) (gain 22, 8 instances left)",
      "appended ⇑(r1) (gain 8, 6 instances left)",
      "appended ⇓(r1,w0,r0,w1) (gain 16, 2 instances left)",
      "appended ⇑(r1) (gain 8, 0 instances left)",
  };
  std::vector<std::string> appended;
  for (const std::string& line :
       generate_march_test(list_by_name("list1")).stats.log) {
    if (line.rfind("appended ", 0) == 0) appended.push_back(line);
  }
  EXPECT_EQ(appended, rounds);
}

TEST(IncrementalGenerator, VariantOptionsMatchPreIncrementalGoldens) {
  // working=2 exercises a deliberately weak phase A; no-minimize skips the
  // checkpointed rewind.
  GeneratorOptions weak;
  weak.working_memory_size = 2;
  weak.certify_memory_size = 6;
  weak.max_element_length = 5;
  const GenerationResult weak_simple =
      generate_march_test(list_by_name("simple"), weak);
  EXPECT_EQ(weak_simple.test.to_string(true),
            "{^(w0); v(r0,w1,w1,r1); v(r1,w0,w0,r0); ^(r0,w1,w1,r1); "
            "^(r1,w0,w0,r0); ^(r0)}");

  GeneratorOptions no_minimize;
  no_minimize.minimize = false;
  const GenerationResult raw =
      generate_march_test(list_by_name("simple"), no_minimize);
  EXPECT_EQ(raw.test.to_string(true),
            "{c(w0); ^(r0); ^(r0,w1,r1); ^(r1); ^(r1,w0,r0); ^(r0); "
            "v(r0,w1,w1,r1); ^(r1); v(r1,w1,r1,w0,w0,r0); ^(r0); "
            "v(r0,w0,r0,w1); ^(r1)}");

  // List #1 on a two-cell working memory: its three-cell faults have no
  // instance in phase A, and one CEGIS round extends the certification
  // engine in place until they are covered.
  GeneratorOptions two_cells;
  two_cells.working_memory_size = 2;
  const GenerationResult list1_two_cells =
      generate_march_test(list_by_name("list1"), two_cells);
  EXPECT_EQ(list1_two_cells.test.to_string(true),
            "{^(w1); ^(r1,w0,r0); ^(r0,w1,w1,r1); ^(r1); v(r1,w0,w0,r0); "
            "v(r0,w0,r0,w1,w1); ^(r1); ^(w0); v(r0,w1,r1,w0); ^(r0,w1,w0); "
            "^(r0); ^(w1); ^(r1,w0,w1,w1); v(r1,w1)}");
  EXPECT_EQ(list1_two_cells.test.complexity(), 35u);
  EXPECT_TRUE(list1_two_cells.full_coverage);
  EXPECT_EQ(list1_two_cells.stats.certify_iterations, 1u);
  EXPECT_EQ(list1_two_cells.stats.minimize_trials, 142u);
  EXPECT_EQ(list1_two_cells.stats.minimize_element_replays, 126552u);

  // Decoder faults at working size 2 with single-op elements: the CEGIS
  // round stalls and excludes what it cannot cover on the certification
  // engine, so the next iteration finds nothing and phase C's trials only
  // answer for the covered classes.
  GeneratorOptions weak_decoder;
  weak_decoder.working_memory_size = 2;
  weak_decoder.max_element_length = 1;
  const GenerationResult decoder =
      generate_march_test(list_by_name("decoder"), weak_decoder);
  EXPECT_EQ(decoder.test.to_string(true), "{c(w0); ^(r0); ^(w1); ^(r1)}");
  EXPECT_EQ(decoder.uncoverable.size(), 54u);
  EXPECT_EQ(decoder.stats.certify_iterations, 1u);
  EXPECT_EQ(decoder.stats.minimize_trials, 24u);
  EXPECT_EQ(decoder.stats.minimize_element_replays, 30u);
}

/// The generation log with the phase lap times cut off ("... done at t=").
std::vector<std::string> untimed_log(const GenerationStats& stats) {
  std::vector<std::string> out;
  for (const std::string& line : stats.log) {
    out.push_back(line.substr(0, line.find(" done at t=")));
  }
  return out;
}

/// Expects `result` to match `reference` in everything but wall times: the
/// test, the log, every work counter and the certification report.
void expect_same_generation(const GenerationResult& reference,
                            const GenerationResult& result,
                            const std::string& where) {
  EXPECT_EQ(reference.test, result.test) << where;
  EXPECT_EQ(untimed_log(reference.stats), untimed_log(result.stats)) << where;
  EXPECT_EQ(reference.stats.greedy_rounds, result.stats.greedy_rounds)
      << where;
  EXPECT_EQ(reference.stats.certify_iterations,
            result.stats.certify_iterations)
      << where;
  EXPECT_EQ(reference.stats.instances_dropped, result.stats.instances_dropped)
      << where;
  EXPECT_EQ(reference.stats.minimize_trials, result.stats.minimize_trials)
      << where;
  EXPECT_EQ(reference.stats.minimize_element_replays,
            result.stats.minimize_element_replays)
      << where;
  const auto& expected = reference.certification.entries;
  const auto& actual = result.certification.entries;
  ASSERT_EQ(expected.size(), actual.size()) << where;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].instances, actual[i].instances) << where << " " << i;
    EXPECT_EQ(expected[i].detected, actual[i].detected) << where << " " << i;
    EXPECT_EQ(expected[i].covered, actual[i].covered) << where << " " << i;
  }
}

TEST(IncrementalGenerator, ThreadCountsDoNotChangeTheTest) {
  // gain_threads parallelizes the greedy candidate scan and phase A's
  // appends, certify_threads the persistent certification engine's item
  // sync, the elements CEGIS rounds append to it and the minimizer's trials
  // and rewinds; both must keep the generated test, the log and every
  // counter byte-identical (the scan's shared pruning bound only abandons
  // candidates that cannot win or tie, and items are independent with
  // in-order reductions).
  GeneratorOptions sequential;
  sequential.gain_threads = 1;
  sequential.certify_threads = 1;
  // Decoder faults at working size 2 with single-op elements: CEGIS rounds
  // run the greedy loop on the certification engine.
  GeneratorOptions weak = sequential;
  weak.working_memory_size = 2;
  weak.max_element_length = 1;
  const struct {
    const char* name;
    const char* list;
    GeneratorOptions options;
  } cases[] = {
      {"list2", "list2", sequential},
      {"simple", "simple", sequential},
      {"retention", "retention", sequential},
      {"decoder", "decoder", sequential},
      {"decoder working=2 single ops", "decoder", weak},
  };
  for (const auto& c : cases) {
    const FaultList list = list_by_name(c.list);
    const GenerationResult reference = generate_march_test(list, c.options);
    const std::size_t pairs[][2] = {{2, 2}, {0, 0}, {1, 0}, {0, 1}};
    for (const auto& pair : pairs) {
      GeneratorOptions options = c.options;
      options.gain_threads = pair[0];
      options.certify_threads = pair[1];
      expect_same_generation(reference, generate_march_test(list, options),
                             std::string(c.name) +
                                 " gain_threads=" + std::to_string(pair[0]) +
                                 " certify_threads=" +
                                 std::to_string(pair[1]));
    }
    if (c.options.working_memory_size == 2) {
      EXPECT_GT(reference.stats.certify_iterations, 0u) << c.name;
    }
  }
  // The big list, hardware-threaded against the sequential run: with
  // default options against the golden (which the default-options test
  // above already pins), and at working size 2, where a CEGIS round
  // extends the certification engine in place.
  GeneratorOptions hw;
  hw.gain_threads = 0;
  hw.certify_threads = 0;
  const GenerationResult list1 =
      generate_march_test(list_by_name("list1"), hw);
  expect_same_generation(
      generate_march_test(list_by_name("list1"), sequential), list1,
      "list1 hardware threads");
  EXPECT_EQ(list1.test.to_string(true),
            "{c(w0); ^(r0,w1,r1); ^(r1,w0,r0); ^(r0); v(r0,w1,w1,r1); "
            "v(r1,w1,r1,w0); ^(r0); ^(w0); ^(r0,w0,r0,r0,w1); "
            "^(r1,w0,w0,w1); ^(r1); v(r1,w0,r0,w1); ^(r1)}");
  GeneratorOptions two_cells = sequential;
  two_cells.working_memory_size = 2;
  GeneratorOptions two_cells_hw = hw;
  two_cells_hw.working_memory_size = 2;
  const GenerationResult list1_two_cells =
      generate_march_test(list_by_name("list1"), two_cells_hw);
  expect_same_generation(
      generate_march_test(list_by_name("list1"), two_cells),
      list1_two_cells, "list1 working=2 hardware threads");
  EXPECT_GT(list1_two_cells.stats.certify_iterations, 0u);
}

/// Generates for `list` and expects the certification report to equal an
/// independent evaluate_coverage of the test at the certify size, under the
/// name the test has when the report is made.  Returns the generation.
GenerationResult expect_report_matches_evaluation(
    const FaultList& list, const GeneratorOptions& options,
    const std::string& where) {
  const GenerationResult result = generate_march_test(list, options);
  MarchTest generated = result.test;
  generated.set_name("generated");
  const CoverageReport expected = evaluate_coverage(
      FaultSimulator(SimulatorOptions{options.certify_memory_size, 1}),
      generated, list, options.max_instances_per_fault);
  const CoverageReport& actual = result.certification;
  EXPECT_EQ(actual.test_name, expected.test_name) << where;
  EXPECT_EQ(actual.list_name, expected.list_name) << where;
  EXPECT_EQ(actual.test_complexity, expected.test_complexity) << where;
  EXPECT_EQ(actual.summary(), expected.summary()) << where;
  EXPECT_EQ(actual.entries.size(), expected.entries.size()) << where;
  for (std::size_t i = 0;
       i < std::min(actual.entries.size(), expected.entries.size()); ++i) {
    const CoverageEntry& x = actual.entries[i];
    const CoverageEntry& y = expected.entries[i];
    EXPECT_EQ(x.fault_index, y.fault_index) << where << " " << i;
    EXPECT_EQ(x.fault, y.fault) << where << " " << i;
    EXPECT_EQ(x.instances, y.instances) << where << " " << x.fault;
    EXPECT_EQ(x.detected, y.detected) << where << " " << x.fault;
    EXPECT_EQ(x.covered, y.covered) << where << " " << x.fault;
    EXPECT_EQ(x.escape_description, y.escape_description)
        << where << " " << x.fault;
  }
  return result;
}

TEST(IncrementalGenerator, CertificationReportMatchesIndependentEvaluation) {
  for (const char* name : {"list1", "list2", "simple", "retention", "decoder"}) {
    expect_report_matches_evaluation(list_by_name(name), GeneratorOptions{},
                                     name);
  }
  // Address line 3 has no instances at the certify size (2^3 >= 6): those
  // faults get the "no instances fit" rows.
  expect_report_matches_evaluation(decoder_fault_list(4), GeneratorOptions{},
                                   "decoder(4)");

  // Phase B escapes: at n = 2 phase A sees the decoder faults of address
  // line 0 only, and single-op elements cannot cover lines 1 and 2 at the
  // certify size either.  Phase A reports faults uncoverable (kept out of
  // the certification engine) and so does the CEGIS round that finds the
  // escapes (excluded inside the engine); the report simulates both.
  GeneratorOptions weak;
  weak.working_memory_size = 2;
  weak.max_element_length = 1;
  const GenerationResult weak_decoder = expect_report_matches_evaluation(
      list_by_name("decoder"), weak, "decoder working=2 single ops");
  EXPECT_GT(weak_decoder.stats.certify_iterations, 0u);
  EXPECT_FALSE(weak_decoder.uncoverable.empty());

  // List #1 on a two-cell working memory: phase A sees no three-cell
  // fault, and a CEGIS round extends the certification engine in place.
  GeneratorOptions two_cells;
  two_cells.working_memory_size = 2;
  EXPECT_GE(expect_report_matches_evaluation(list_by_name("list1"), two_cells,
                                             "list1 working=2")
                .stats.certify_iterations,
            1u);

  GeneratorOptions no_minimize;
  no_minimize.minimize = false;
  expect_report_matches_evaluation(list_by_name("simple"), no_minimize,
                                   "no minimize");

  GeneratorOptions capped;
  capped.max_instances_per_fault = 2;
  for (const char* name : {"list1", "decoder"}) {
    expect_report_matches_evaluation(list_by_name(name), capped,
                                     std::string(name) + " cap 2");
  }

  // Phase A reports the faults single-op elements cannot sensitize (46 of
  // them) uncoverable, which keeps them out of the certification engine.
  GeneratorOptions single_ops;
  single_ops.max_element_length = 1;
  EXPECT_FALSE(expect_report_matches_evaluation(list_by_name("simple"),
                                                single_ops, "single ops")
                   .uncoverable.empty());
}

/// Runs class-based minimize_test (on `classes`) and the from-scratch
/// reference (on the per-instance set) and expects the same test and log.
void expect_minimizers_agree(const MarchTest& test,
                             const std::vector<BehaviourClass>& classes,
                             const std::vector<FaultInstance>& instances,
                             std::size_t n, const std::string& where) {
  const FaultSimulator simulator(SimulatorOptions{n});
  std::vector<std::string> log_classes, log_instances, log_ref;
  const MarchTest by_classes =
      minimize_classes(test, classes, n, &log_classes);
  const MarchTest by_instances =
      minimize_classes(test, instance_classes(instances), n, &log_instances);
  const MarchTest reference =
      minimize_test_rescan(simulator, test, instances, &log_ref);
  EXPECT_EQ(by_classes, reference) << where;
  EXPECT_EQ(log_classes, log_ref) << where;
  EXPECT_EQ(by_instances, reference) << where;
  EXPECT_EQ(log_instances, log_ref) << where;
}

TEST(IncrementalMinimizer, MatchesFromScratchRescanReference) {
  // Catalog tests (plus a padded ABL1) × List #2 at n = 4.
  const FaultList list = fault_list_2();
  const auto classes = behaviour_classes(list, 4);
  const auto instances = instantiate_all(list, 4);
  std::vector<MarchTest> tests = all_catalog_tests();
  tests.push_back(parse_march_test(
      "{c(w0); c(w0,r0,r0,w1); c(w1,r1,r1,w0); c(r0,w1); c(r1,w0)}",
      "padded"));
  for (const MarchTest& test : tests) {
    expect_minimizers_agree(test, classes, instances, 4, test.name());
  }
}

TEST(IncrementalMinimizer, DecoderClassesMatchFromScratchRescanReference) {
  // At n = 8 with 4 sampled addresses per fault, every decoder fault of
  // bits 0..2 splits into two classes (bit `bit` of the corrupted address
  // clear or set), so each trial decides two weighted representatives per
  // fault.
  const std::size_t n = 8;
  const std::size_t cap = 4;
  const FaultList list = decoder_fault_list(3);
  const auto classes = behaviour_classes(list, n, cap);
  const auto instances = instantiate_all(list, n, cap);
  ASSERT_EQ(classes.size(), 2 * list.decoder.size());
  ASSERT_EQ(instances.size(), cap * list.decoder.size());
  std::size_t shortened = 0;
  for (const MarchTest& test : all_catalog_tests()) {
    expect_minimizers_agree(test, classes, instances, n, test.name());
    const MarchTest minimized = minimize_classes(test, classes, n);
    shortened += minimized.complexity() < test.complexity() ? 1 : 0;
  }
  EXPECT_GT(shortened, 0u);
}

TEST(IncrementalMinimizer, ListTwoCountersMatchThePerInstanceEngine) {
  // Phase C scans its classes in the order the per-instance engine scanned
  // the collapsed instances (descending fault index), so its trials and
  // bail-outs, and hence these counters, are unchanged.
  const GenerationResult result = generate_march_test(fault_list_2());
  EXPECT_EQ(result.stats.minimize_trials, 10u);
  EXPECT_EQ(result.stats.minimize_element_replays, 83u);
}

TEST(IncrementalMinimizer, PhaseCCountersArePinned) {
  // Phase C's work, captured with default options (List #2's counters are
  // pinned above).  Where trials and rewinds run must not change how many
  // there are or how many elements they replay.
  const struct {
    const char* list;
    std::size_t trials;
    std::size_t element_replays;
  } pinned[] = {
      {"list1", 101, 54643},
      {"simple", 47, 1692},
      {"retention", 26, 534},
      {"decoder", 10, 25},
  };
  for (const auto& expected : pinned) {
    const GenerationResult result =
        generate_march_test(list_by_name(expected.list));
    EXPECT_EQ(result.stats.minimize_trials, expected.trials) << expected.list;
    EXPECT_EQ(result.stats.minimize_element_replays, expected.element_replays)
        << expected.list;
  }
}

TEST(IncrementalMinimizer, TrialsNeverFullRescanOnThePackedPath) {
  // The acceptance property: the minimizer never answers trials with a
  // full-test pass over every instance — every trial replays only the
  // suffix after its edit (the precise per-trial bound is locked at engine
  // level in tests/sim/test_prefix_sim.cpp).
  const auto instances = instantiate_all(fault_list_2(), 4);
  const MarchTest padded = parse_march_test(
      "{c(w0); c(w0,r0,r0,w1); c(w1,r1,r1,w0); c(r0,w1); c(r1,w0)}", "padded");
  MinimizeStats stats;
  const MarchTest minimized = minimize_classes(
      padded, behaviour_classes(fault_list_2(), 4), 4, nullptr, &stats);
  EXPECT_GT(stats.trials, 0u);
  EXPECT_GT(stats.element_replays, 0u);
  // A from-scratch rescan costs ~ trials × instances × elements replays;
  // the checkpointed path must come in well under that.
  EXPECT_LT(stats.element_replays,
            stats.trials * instances.size() * padded.elements().size() / 2);
  EXPECT_LT(minimized.complexity(), padded.complexity());
}

}  // namespace
}  // namespace mtg
