// Catalog linter tests (analysis/lint.hpp), including the golden output for
// a seeded-redundant suite: the acceptance property that a redundant march
// element is flagged with a position-bearing path:line:column diagnostic.
#include "analysis/lint.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "format/catalog_io.hpp"
#include "fp/fault_list.hpp"
#include "march/catalog.hpp"
#include "march/parser.hpp"

namespace mtg {
namespace {

std::vector<std::string> formatted(const std::vector<LintFinding>& findings) {
  std::vector<std::string> lines;
  lines.reserve(findings.size());
  for (const LintFinding& finding : findings) {
    lines.push_back(finding.format());
  }
  return lines;
}

TEST(Lint, GoldenSeededRedundantSuite) {
  // The golden list2 test with one march element triplicated: each ⇑(r0)
  // copy is individually removable, and every diagnostic must carry the
  // element's document position.
  const std::string text =
      "suite v1\n"
      "test \"Seeded\" "
      "{c(w0); ^(r0); ^(r0); ^(r0); ^(w1,r1); ^(r1); ^(w1,r1)}\n";
  std::vector<SuiteTestPosition> positions;
  const MarchSuite suite =
      parse_march_suite_text(text, "seeded.suite", &positions);
  ASSERT_EQ(suite.size(), 1u);
  ASSERT_EQ(positions.size(), 1u);
  ASSERT_EQ(positions[0].elements.size(), suite.tests[0].elements().size());

  const std::vector<LintFinding> findings = lint_march_test(
      suite.tests[0], fault_list_2(), LintOptions{}, "seeded.suite",
      &positions[0]);
  const std::vector<std::string> golden = {
      "seeded.suite:2:23: warning: [redundant-element] element #1 ⇑(r0) "
      "of test 'Seeded' is removable: no static verdict changes against "
      "list 'Fault List #2 (single-cell static linked faults)'",
      "seeded.suite:2:30: warning: [redundant-element] element #2 ⇑(r0) "
      "of test 'Seeded' is removable: no static verdict changes against "
      "list 'Fault List #2 (single-cell static linked faults)'",
      "seeded.suite:2:37: warning: [redundant-element] element #3 ⇑(r0) "
      "of test 'Seeded' is removable: no static verdict changes against "
      "list 'Fault List #2 (single-cell static linked faults)'",
  };
  EXPECT_EQ(formatted(findings), golden);
}

TEST(Lint, GoldenClassicSuiteAgainstDecoderFaultsAtLargeN) {
  // The shipped classic suite against every decoder fault at n = 65536:
  // lint simulates each trial uncapped, so the decoder classes span the
  // whole address space (closed-form weights, no address walk).
  const std::string path = std::string(MTG_TESTS_SOURCE_DIR) +
                           "/../examples/catalogs/classic.suite";
  std::vector<SuiteTestPosition> positions;
  const MarchSuite suite =
      parse_march_suite_text(read_text_file(path), "classic.suite", &positions);
  LintOptions options;
  options.memory_size = 65536;
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    for (const std::string& line :
         formatted(lint_march_test(suite.tests[i], decoder_fault_list(),
                                   options, "classic.suite", &positions[i]))) {
      lines.push_back(line);
    }
  }
  const std::string against =
      " is removable: no static verdict changes against list "
      "'Address-decoder faults (12 address lines)'";
  const std::string dead = " is dead: removable with no static verdict changes";
  const std::vector<std::string> golden = {
      "classic.suite:10:65: warning: [redundant-element] element #5 ⇕(r0) "
      "of test 'March C-'" + against,
      "classic.suite:10:25: warning: [dead-op] op #0 (r0) of element #1 "
      "⇑(r0,w1) in test 'March C-'" + dead,
      "classic.suite:10:35: warning: [dead-op] op #0 (r1) of element #2 "
      "⇑(r1,w0) in test 'March C-'" + dead,
      "classic.suite:10:45: warning: [dead-op] op #0 (r0) of element #3 "
      "⇓(r0,w1) in test 'March C-'" + dead,
      "classic.suite:10:55: warning: [dead-op] op #0 (r1) of element #4 "
      "⇓(r1,w0) in test 'March C-'" + dead,
      "classic.suite:11:50: warning: [redundant-element] element #3 ⇕(r0) "
      "of test 'March Y'" + against,
      "classic.suite:11:24: warning: [dead-op] op #2 (r1) of element #1 "
      "⇑(r0,w1,r1) in test 'March Y'" + dead,
      "classic.suite:11:37: warning: [dead-op] op #2 (r0) of element #2 "
      "⇓(r1,w0,r0) in test 'March Y'" + dead,
      "classic.suite:14:45: warning: [redundant-element] element #3 ⇕(r0) "
      "of test 'Short C-'" + against,
  };
  EXPECT_EQ(lines, golden);
}

TEST(Lint, RejectsMemoriesBelowTheSimulatorMinimum) {
  LintOptions options;
  options.memory_size = 2;
  EXPECT_THROW(lint_march_test(march_ss(), fault_list_2(), options), Error);
}

TEST(Lint, GoldenSeededFaultList) {
  // One record of each catalog smell: a duplicate simple fault, two AFwc
  // records differing only in the (ignored) wired field, and a decoder
  // fault on an address line the linted memory size does not have.
  const std::string text =
      "faultlist v1\n"
      "name Seeded list\n"
      "simple <0w1/0/-> a_pos=-1 v_pos=0\n"
      "simple <0w1/0/-> a_pos=-1 v_pos=0\n"
      "decoder cls=1 bit=0 wired=0\n"
      "decoder cls=1 bit=0 wired=1\n"
      "decoder cls=0 bit=10 wired=0\n";
  FaultListPositions positions;
  const FaultList list =
      parse_fault_list_text(text, "seeded.faults", &positions);
  const std::vector<LintFinding> findings =
      lint_fault_list(list, LintOptions{}, "seeded.faults", &positions);
  const std::vector<std::string> golden = {
      "seeded.faults:4:1: warning: [duplicate-fault] simple fault "
      "'TF↑ [v]' duplicates record #0",
      "seeded.faults:6:1: warning: [subsumed-fault] decoder fault 'AFwc@b0' "
      "is subsumed by record #0 ('AFwc@b0'): the AFwc class ignores the "
      "wired field",
      "seeded.faults:7:1: warning: [zero-instances] decoder fault 'AFna@b10' "
      "has no instances at n=6 (first instantiable at n=1025)",
  };
  EXPECT_EQ(formatted(findings), golden);
}

TEST(Lint, CleanTestAndCatalogProduceNoFindings) {
  // The minimized list2 generator output: nothing is removable, and the
  // built-in catalogs carry no duplicate/subsumed/zero-instance records.
  const MarchTest tight = parse_march_test(
      "{c(w0); ^(r0); ^(r0); ^(w1,r1); ^(r1); ^(w1,r1)}", "tight");
  EXPECT_TRUE(lint_march_test(tight, fault_list_2(), LintOptions{}).empty());
  EXPECT_TRUE(lint_fault_list(fault_list_2(), LintOptions{}).empty());
  EXPECT_TRUE(
      lint_fault_list(standard_simple_static_faults(), LintOptions{}).empty());
}

TEST(Lint, FlagsDeadOpsAtOperationGranularity) {
  // March SS against the single-cell list2 leaves whole reads dead inside
  // non-redundant elements; those surface as dead-op, not redundant-element.
  const std::vector<LintFinding> findings =
      lint_march_test(march_ss(), fault_list_2(), LintOptions{});
  bool saw_dead_op = false;
  for (const LintFinding& finding : findings) {
    if (finding.category == "dead-op") saw_dead_op = true;
    EXPECT_FALSE(finding.position.has_value());  // no document to anchor to
    EXPECT_EQ(finding.source, "<test>");
  }
  EXPECT_TRUE(saw_dead_op);
}

TEST(Lint, PositionlessFindingsFormatWithoutLineColumn) {
  LintFinding finding;
  finding.source = "<test>";
  finding.category = "redundant-element";
  finding.message = "x";
  EXPECT_EQ(finding.format(), "<test>: warning: [redundant-element] x");
  finding.position = TextPosition{7, 31};
  EXPECT_EQ(finding.format(), "<test>:7:31: warning: [redundant-element] x");
}

}  // namespace
}  // namespace mtg
