// Committed corpus of malformed text inputs (tests/format/corpus/): every
// file must be rejected with a ParseError whose message carries a
// source:line:column position — the diagnostics contract of the format
// readers.  The extension picks the reader: .jobs files go to the 'jobs v1'
// reader, .cert files to the 'certificate v1' reader, the rest to the
// catalog readers.  Files are discovered at run time, so adding a
// regression case is just dropping a file into the corpus directory.
//
// The long-line cases build megabyte 'faultlist v1' lines in memory instead
// of committing them: a field of any length must be scanned in one pass and
// rejected at its exact line and column.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <regex>
#include <string>
#include <vector>

#include "analysis/certificate.hpp"
#include "common/text_position.hpp"
#include "format/catalog_io.hpp"
#include "format/fault_list_text.hpp"
#include "format/suite_text.hpp"
#include "service/job_file.hpp"

namespace mtg {
namespace {

std::filesystem::path corpus_dir() {
  return std::filesystem::path(MTG_TESTS_SOURCE_DIR) / "format" / "corpus";
}

std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(corpus_dir())) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Loads `path` with the reader its extension names.
void load_by_extension(const std::filesystem::path& path) {
  if (path.extension() == ".jobs") {
    load_job_file(path.string());
  } else if (path.extension() == ".cert") {
    load_certificate_file(path.string());
  } else {
    check_catalog_file(path.string());
  }
}

TEST(MalformedCorpus, CorpusIsPresent) {
  // Guard against a silently-empty directory (e.g. a bad source-dir macro)
  // turning the rejection test below into a vacuous pass.
  EXPECT_GE(corpus_files().size(), 25u) << "corpus dir: " << corpus_dir();
}

TEST(MalformedCorpus, EveryFileIsRejectedWithAPosition) {
  // "<path>:<line>:<column>: <detail>" somewhere in the message.
  const std::regex position_pattern{R"(:[0-9]+:[0-9]+: )"};
  for (const std::filesystem::path& path : corpus_files()) {
    SCOPED_TRACE(path.filename().string());
    try {
      load_by_extension(path);
      ADD_FAILURE() << "malformed file was accepted";
    } catch (const ParseError& e) {
      EXPECT_TRUE(std::regex_search(std::string(e.what()), position_pattern))
          << "no line:column in: " << e.what();
      EXPECT_GE(e.position().line, 1u);
      EXPECT_GE(e.position().column, 1u);
      // The formatted message names the offending file.
      EXPECT_NE(std::string(e.what()).find(path.filename().string()),
                std::string::npos)
          << "source path missing from: " << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "expected mtg::ParseError, got: " << e.what();
    }
  }
}

TEST(FormatHeaders, VersionErrorsPointAtTheVersionToken) {
  // The four readers share one header check: a wrong version is reported
  // at the version token, and a keyword with a suffix is no header at all.
  using Reader = void (*)(std::string_view);
  const Reader faults = [](std::string_view t) { parse_fault_list_text(t); };
  const Reader suite = [](std::string_view t) { parse_march_suite_text(t); };
  const Reader jobs = [](std::string_view t) { parse_job_file_text(t); };
  const Reader cert = [](std::string_view t) { parse_certificate_text(t); };
  const struct {
    const char* text;
    Reader read;
    std::size_t column;
    const char* detail;
  } cases[] = {
      {"faultlist v2", faults, 11,
       "unsupported fault-list format version (this reader understands "
       "'faultlist v1')"},
      {"suite v2", suite, 7,
       "unsupported suite format version (this reader understands "
       "'suite v1')"},
      {"jobs v2", jobs, 6,
       "unsupported jobs format version (this reader understands 'jobs v1')"},
      {"certificate v2", cert, 13,
       "unsupported certificate format version (this reader understands "
       "'certificate v1')"},
      {"jobs", jobs, 5,
       "unsupported jobs format version (this reader understands 'jobs v1')"},
      {"jobsx v1", jobs, 1, "expected 'jobs v1' header, got 'jobsx v1'"},
      {"suites v1", suite, 1, "expected 'suite v1' header, got 'suites v1'"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.text);
    try {
      c.read(std::string("  ") + c.text + "\n");
      ADD_FAILURE() << "header was accepted";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.position().line, 1u);
      EXPECT_EQ(e.position().column, c.column + 2);  // past the indent
      EXPECT_EQ(e.detail(), c.detail);
    }
  }
}

constexpr std::size_t kMegabyte = std::size_t{1} << 20;

/// Parses a two-line 'faultlist v1' document whose record is `record` and
/// returns the ParseError it must raise.
ParseError long_line_error(const std::string& record) {
  try {
    parse_fault_list_text("faultlist v1\n" + record + "\n", "long.faults");
  } catch (const ParseError& e) {
    return e;
  }
  ADD_FAILURE() << "a " << record.size() << "-byte record was accepted";
  return ParseError("", "", TextPosition{}, 0);
}

TEST(LongLines, MegabyteFpTokenIsRejectedWithAPosition) {
  const ParseError e = long_line_error(
      "simple <" + std::string(kMegabyte, '0') + "> a_pos=-1 v_pos=0");
  EXPECT_EQ(e.position().line, 2u);
  EXPECT_EQ(e.position().column, 10u);  // the second '0' of the token
  EXPECT_EQ(e.detail(), "expected '/' (separator before the fault value F)");
  EXPECT_EQ(std::string(e.what()).rfind("long.faults:2:10: ", 0), 0u);
}

TEST(LongLines, MegabyteIntegerFieldIsRejectedWithAPosition) {
  const std::string digits(kMegabyte, '1');
  const ParseError decoder =
      long_line_error("decoder cls=" + digits + " bit=3 wired=1");
  EXPECT_EQ(decoder.position().line, 2u);
  EXPECT_EQ(decoder.position().column, 13u);
  EXPECT_EQ(decoder.detail().rfind("cls (0=AFna", 0), 0u) << decoder.detail();
  EXPECT_NE(decoder.detail().find(" out of range: '" + digits + "'"),
            std::string::npos);

  const ParseError simple =
      long_line_error("simple <0/1/-> a_pos=-" + digits + " v_pos=0");
  EXPECT_EQ(simple.position().line, 2u);
  EXPECT_EQ(simple.position().column, 22u);
  EXPECT_EQ(simple.detail(), "a_pos out of range: '-" + digits + "'");
}

TEST(LongLines, MegabyteBlankRunBetweenFieldsIsAccepted) {
  // Only the shape matters, not the line length.
  const FaultList list = parse_fault_list_text(
      "faultlist v1\nsimple <0/1/->" + std::string(kMegabyte, ' ') +
          "a_pos=-1 v_pos=0\n",
      "long.faults");
  ASSERT_EQ(list.simple.size(), 1u);
  EXPECT_EQ(list.simple[0].fp.notation(), "<0/1/->");
}

}  // namespace
}  // namespace mtg
