// Jobs-file linter tests: duplicate-job keys, undefined test/list
// references, implausible deadlines — each anchored to the offending
// record's line:column via the positions the parser records.
#include "analysis/job_lint.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "march/catalog.hpp"
#include "service/job_file.hpp"

namespace mtg {
namespace {

struct LintedFile {
  JobFile file;
  JobFilePositions positions;
  std::vector<LintFinding> findings;
};

LintedFile lint_text(const std::string& text, const MarchSuite* suite) {
  LintedFile linted;
  linted.file = parse_job_file_text(text, "jobs.txt", &linted.positions);
  linted.findings =
      lint_job_file(linted.file, suite, {}, "jobs.txt", &linted.positions);
  return linted;
}

bool has_category(const std::vector<LintFinding>& findings,
                  const std::string& category) {
  for (const LintFinding& finding : findings) {
    if (finding.category == category) return true;
  }
  return false;
}

TEST(JobLint, CleanFileHasNoFindings) {
  const LintedFile linted = lint_text(
      "jobs v1\n"
      "job test=\"MATS+\" list=simple n=8\n"
      "job test=\"March C-\" list=list1 n=6 cap=64 deadline_ms=60000\n",
      nullptr);
  EXPECT_TRUE(linted.findings.empty());
}

TEST(JobLint, DuplicateJobKeyIsFlaggedAtTheSecondRecord) {
  const LintedFile linted = lint_text(
      "jobs v1\n"
      "job test=\"MATS+\" list=simple n=8\n"
      "job test=\"MATS+\" list=simple n=8\n",
      nullptr);
  ASSERT_EQ(linted.findings.size(), 1u);
  const LintFinding& finding = linted.findings[0];
  EXPECT_EQ(finding.category, "duplicate-job");
  ASSERT_TRUE(finding.position.has_value());
  EXPECT_EQ(finding.position->line, 3u);
  EXPECT_NE(finding.message.find("line 2"), std::string::npos)
      << finding.message;
  EXPECT_NE(finding.format().find("jobs.txt:3:"), std::string::npos)
      << finding.format();
}

TEST(JobLint, DifferentCapOrSizeIsNotADuplicate) {
  const LintedFile linted = lint_text(
      "jobs v1\n"
      "job test=\"MATS+\" list=simple n=8\n"
      "job test=\"MATS+\" list=simple n=6\n"
      "job test=\"MATS+\" list=simple n=8 cap=16\n",
      nullptr);
  EXPECT_FALSE(has_category(linted.findings, "duplicate-job"));
}

TEST(JobLint, UndefinedTestAndListReferencesAreFlagged) {
  const LintedFile linted = lint_text(
      "jobs v1\n"
      "job test=\"No Such Test\" list=nosuchlist n=8\n",
      nullptr);
  ASSERT_EQ(linted.findings.size(), 2u);
  EXPECT_EQ(linted.findings[0].category, "undefined-reference");
  EXPECT_NE(linted.findings[0].message.find("No Such Test"),
            std::string::npos);
  EXPECT_EQ(linted.findings[1].category, "undefined-reference");
  EXPECT_NE(linted.findings[1].message.find("nosuchlist"), std::string::npos);
}

TEST(JobLint, SuiteAndAliasDefinitionsSatisfyReferences) {
  MarchSuite suite;
  suite.tests = {mats_plus()};
  // march notation in test= is never a name reference; the faultlist
  // directive's alias and the suite's test name both resolve.
  const LintedFile linted = lint_text(
      "jobs v1\n"
      "suite \"classic.suite\"\n"
      "faultlist custom \"custom.faults\"\n"
      "job test=\"MATS+\" list=custom n=8\n"
      "job test=\"{c(w0); ^(r0,w1)}\" list=list2 n=6\n",
      &suite);
  EXPECT_TRUE(linted.findings.empty());
}

TEST(JobLint, ImplausibleDeadlinesAnchorToTheDeadlineKey) {
  const LintedFile linted = lint_text(
      "jobs v1\n"
      "job test=\"MATS+\" list=simple n=8 deadline_ms=0\n"
      "job test=\"MATS+\" list=simple n=6 deadline_ms=3\n"
      "job test=\"MATS+\" list=simple n=4 deadline_ms=90000000\n",
      nullptr);
  ASSERT_EQ(linted.findings.size(), 3u);
  for (const LintFinding& finding : linted.findings) {
    EXPECT_EQ(finding.category, "implausible-deadline");
    ASSERT_TRUE(finding.position.has_value());
  }
  // The anchor is the deadline_ms= key, not column 1.
  EXPECT_EQ(linted.findings[0].position->line, 2u);
  EXPECT_GT(linted.findings[0].position->column, 1u);
  EXPECT_NE(linted.findings[0].message.find("deadline_ms=0"),
            std::string::npos);
  EXPECT_NE(linted.findings[1].message.find("expire"), std::string::npos);
  EXPECT_NE(linted.findings[2].message.find("unit"), std::string::npos);
}

TEST(JobLint, PositionsAreOptional) {
  const JobFile file = parse_job_file_text(
      "jobs v1\njob test=\"MATS+\" list=simple n=8 deadline_ms=0\n");
  const std::vector<LintFinding> findings = lint_job_file(file, nullptr);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_FALSE(findings[0].position.has_value());
}

}  // namespace
}  // namespace mtg
