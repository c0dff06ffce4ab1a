// 'jobs v1' parser tests: good documents round into records, malformed ones
// fail with line:column diagnostics pointing at the offending byte.
#include "service/job_file.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "common/text_position.hpp"

namespace mtg {
namespace {

TEST(JobFileParse, ParsesDirectivesAndJobs) {
  const JobFile file = parse_job_file_text(
      "# a comment\n"
      "jobs v1\n"
      "suite \"classic.suite\"\n"
      "faultlist custom \"custom.faults\"\n"
      "\n"
      "job test=\"MATS+\" list=simple n=8\n"
      "job test=\"{c(w0); ^(r0,w1)}\" list=custom n=64 cap=256 "
      "deadline_ms=5000\n");
  EXPECT_EQ(file.suite_path, "classic.suite");
  ASSERT_EQ(file.fault_list_files.size(), 1u);
  EXPECT_EQ(file.fault_list_files[0].first, "custom");
  EXPECT_EQ(file.fault_list_files[0].second, "custom.faults");
  ASSERT_EQ(file.jobs.size(), 2u);

  EXPECT_EQ(file.jobs[0].test_spec, "MATS+");
  EXPECT_EQ(file.jobs[0].list_name, "simple");
  EXPECT_EQ(file.jobs[0].memory_size, 8u);
  EXPECT_EQ(file.jobs[0].max_instances_per_fault, 4096u);  // default cap
  EXPECT_EQ(file.jobs[0].deadline.count(), 0);             // default: none
  EXPECT_EQ(file.jobs[0].line, 6u);

  EXPECT_EQ(file.jobs[1].test_spec, "{c(w0); ^(r0,w1)}");
  EXPECT_EQ(file.jobs[1].list_name, "custom");
  EXPECT_EQ(file.jobs[1].memory_size, 64u);
  EXPECT_EQ(file.jobs[1].max_instances_per_fault, 256u);
  EXPECT_EQ(file.jobs[1].deadline.count(), 5000);
}

TEST(JobFileParse, FieldsAcceptAnyOrderAndEscapedQuotes) {
  const JobFile file = parse_job_file_text(
      "jobs v1\n"
      "job n=8 list=list1 test=\"say \\\"hi\\\"\"\n");
  ASSERT_EQ(file.jobs.size(), 1u);
  EXPECT_EQ(file.jobs[0].test_spec, "say \"hi\"");
}

/// Expects `text` to fail parsing with a diagnostic at line:column carrying
/// `needle` in its message.
void expect_error_at(const std::string& text, std::size_t line,
                     std::size_t column, const std::string& needle) {
  try {
    parse_job_file_text(text, "jobs.test");
    FAIL() << "expected ParseError containing '" << needle << "'";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.position().line, line) << e.what();
    EXPECT_EQ(e.position().column, column) << e.what();
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("jobs.test:"), std::string::npos)
        << "diagnostics carry the source name: " << e.what();
  }
}

TEST(JobFileParse, RejectsMissingHeader) {
  expect_error_at("job test=\"x\" list=l n=8\n", 1, 1, "jobs v1");
  expect_error_at("jobs v2\n", 1, 6, "version");
}

TEST(JobFileParse, RejectsEmptyAndJoblessDocuments) {
  EXPECT_THROW(parse_job_file_text(""), ParseError);
  EXPECT_THROW(parse_job_file_text("jobs v1\n"), ParseError);
  EXPECT_THROW(parse_job_file_text("jobs v1\nsuite \"s\"\n"), ParseError);
}

TEST(JobFileParse, RejectsUnknownRecordsAndFields) {
  expect_error_at("jobs v1\nbogus record\n", 2, 1, "unknown record");
  expect_error_at("jobs v1\njob test=\"x\" list=l n=8 nope=1\n", 2, 25,
                  "unknown job field");
}

TEST(JobFileParse, RejectsMissingRequiredFields) {
  expect_error_at("jobs v1\njob list=l n=8\n", 2, 1, "missing the test=");
  expect_error_at("jobs v1\njob test=\"x\" n=8\n", 2, 1, "missing the list=");
  expect_error_at("jobs v1\njob test=\"x\" list=l\n", 2, 1, "missing the n=");
}

TEST(JobFileParse, RejectsDuplicateAndMalformedFields) {
  expect_error_at("jobs v1\njob test=\"x\" test=\"y\" list=l n=8\n", 2, 14,
                  "duplicate test=");
  expect_error_at("jobs v1\njob test=\"x\" list=l n=8 n=9\n", 2, 25,
                  "duplicate n=");
  expect_error_at("jobs v1\njob test=\"x\" list=l n=2\n", 2, 21, ">= 3");
  expect_error_at("jobs v1\njob test=\"x\" list=l n=abc\n", 2, 23,
                  "expected a number");
  expect_error_at("jobs v1\njob test=\"x list=l n=8\n", 2, 23,
                  "unterminated");
}

TEST(JobFileParse, RejectsDirectiveViolations) {
  expect_error_at("jobs v1\nsuite \"a\"\nsuite \"b\"\njob test=\"x\" list=l "
                  "n=8\n",
                  3, 1, "duplicate suite");
  expect_error_at("jobs v1\nfaultlist a \"x\"\nfaultlist a \"y\"\n", 3, 11,
                  "duplicate faultlist alias");
  expect_error_at("jobs v1\njob test=\"x\" list=l n=8\nsuite \"a\"\n", 3, 1,
                  "before the first job");
  expect_error_at("jobs v1\nfaultlist \"missing-alias\"\n", 2, 11,
                  "expected an alias");
}

}  // namespace
}  // namespace mtg
