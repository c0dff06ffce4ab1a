#include "format/suite_text.hpp"

#include <sstream>

#include "common/error.hpp"
#include "format/reader.hpp"
#include "march/parser.hpp"

namespace mtg {

const MarchTest* MarchSuite::find(std::string_view name) const {
  for (const MarchTest& test : tests) {
    if (test.name() == name) return &test;
  }
  return nullptr;
}

bool operator==(const MarchSuite& x, const MarchSuite& y) {
  if (x.tests.size() != y.tests.size()) return false;
  for (std::size_t i = 0; i < x.tests.size(); ++i) {
    if (x.tests[i] != y.tests[i]) return false;
    if (x.tests[i].name() != y.tests[i].name()) return false;
  }
  return true;
}

std::string to_canonical_string(const MarchSuite& suite) {
  std::ostringstream out;
  out << "suite v1\n";
  for (const MarchTest& test : suite.tests) {
    require(test.name().find('\n') == std::string::npos &&
                test.name().find('\r') == std::string::npos,
            "suite serialization: test name contains a line break: '" +
                test.name() + "'");
    out << "test \"";
    for (const char c : test.name()) {
      if (c == '"' || c == '\\') out << '\\';
      out << c;
    }
    out << "\" " << test.to_canonical_string() << "\n";
  }
  return out.str();
}

MarchSuite parse_march_suite_text(std::string_view text,
                                  const std::string& source,
                                  std::vector<SuiteTestPosition>* positions) {
  LineReader reader(text, source);
  reader.read_header("suite", "suite");
  MarchSuite suite;
  while (reader.next()) {
    const std::string_view line = reader.line();
    std::size_t pos = 0;
    const std::string_view keyword = read_token(line, pos);
    if (keyword != "test") {
      reader.fail(1, "unknown record '" + std::string(keyword) +
                         "' (expected: test \"<name>\" <march notation>)");
    }
    pos = skip_ws(line, pos);
    const std::string name = read_quoted(reader, pos, "test name");
    if (suite.find(name) != nullptr) {
      reader.fail(1, "duplicate test name \"" + name + "\" in suite");
    }
    pos = skip_ws(line, pos);
    if (pos == line.size()) {
      reader.fail(line.size() + 1,
                  "expected march notation after the test name");
    }
    // Seed the march parser with the notation's document position so its
    // line:column diagnostics point into this file.
    TextPosition origin{reader.line_number(),
                        reader.line_indent() + pos};
    try {
      SuiteTestPosition record_positions;
      record_positions.record =
          TextPosition{reader.line_number(), reader.line_indent()};
      suite.tests.push_back(parse_march_test(
          line.substr(pos), name, origin,
          positions != nullptr ? &record_positions.elements : nullptr));
      if (positions != nullptr) {
        positions->push_back(std::move(record_positions));
      }
    } catch (const ParseError& e) {
      // Re-anchor under the document's source name; position is already in
      // whole-document coordinates thanks to the origin.
      throw ParseError(source + ":" + std::to_string(e.position().line) + ":" +
                           std::to_string(e.position().column) + ": " +
                           e.detail() + "\n  | " + std::string(line),
                       e.detail(), e.position(), e.offset());
    }
  }
  if (suite.tests.empty()) {
    reader.fail_at_end("suite contains no tests (at least one 'test' record "
                       "is required)");
  }
  return suite;
}

}  // namespace mtg
