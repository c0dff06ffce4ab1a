// Line-oriented reader underlying the four text formats (fault lists,
// march-test suites, job files and certificates).
//
// The formats are record-per-line: the reader walks significant lines (blank
// lines and full-line '#' comments skipped, CRLF tolerated, surrounding
// whitespace trimmed) and threads the 1-based line number through every
// record parser, so each diagnostic lands as "<source>:<line>:<column>:
// <message>" with the offending line excerpted.  Record parsers scan their
// fields left to right in one linear pass, so a line of any length is
// accepted or rejected with a position.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "common/text_position.hpp"

namespace mtg {

/// Walks the significant lines of a catalog document.
class LineReader {
 public:
  /// `source` names the document in diagnostics (a file path, or e.g.
  /// "<string>" for in-memory input).
  LineReader(std::string_view text, std::string source);

  /// Advances to the next significant line; false at end of input.
  bool next();

  /// Reads the first significant line as the header "<keyword> v1" of a
  /// versioned document; `format` names the document kind in the version
  /// error ("fault-list", "suite", ...).  Throws ParseError at end of input
  /// for an empty document, at the version token when the first word is
  /// `keyword` but the rest is not "v1", and at column 1 otherwise.
  void read_header(std::string_view keyword, const std::string& format);

  /// The current line, trimmed (valid after next() returned true).
  std::string_view line() const noexcept { return line_; }
  /// 1-based line number of the current line in the document.
  std::size_t line_number() const noexcept { return line_number_; }
  /// 1-based column of the first trimmed byte of line() in the raw line.
  std::size_t line_indent() const noexcept { return indent_; }
  const std::string& source() const noexcept { return source_; }

  /// Throws ParseError at `column` (1-based, within the *trimmed* line) of
  /// the current line: "<source>:<line>:<col>: <detail>" plus the excerpt.
  [[noreturn]] void fail(std::size_t column, const std::string& detail) const;

  /// Throws ParseError at the current (end-of-input) position — for
  /// documents that end before a required record.
  [[noreturn]] void fail_at_end(const std::string& detail) const;

 private:
  std::string_view text_;
  std::string source_;
  std::size_t cursor_ = 0;       // start of the next unread raw line
  std::string_view line_;
  std::size_t line_number_ = 0;
  std::size_t indent_ = 1;
};

// Field scanners over a LineReader's current line.  `pos` indexes the
// trimmed line; a scanner leaves it just past what it read and reports a
// malformed field as a ParseError at the offending column.  `what` names
// the field in the diagnostic.

/// The first non-blank position at or after `pos` (line.size() at the end).
std::size_t skip_ws(std::string_view line, std::size_t pos);

/// Reads a bare token: the run of non-blank bytes at `pos`.
std::string_view read_token(std::string_view line, std::size_t& pos);

/// Reads a quoted string; `pos` must point at the opening '"'.  '\"' and
/// '\\' escape.  A carriage return inside the quotes is a line break, which
/// no writer emits, so it is rejected.
std::string read_quoted(const LineReader& reader, std::size_t& pos,
                        const std::string& what);

/// Reads a non-negative decimal integer that ends at a blank or the end of
/// the line.
std::size_t read_number(const LineReader& reader, std::size_t& pos,
                        const std::string& what);

/// Rejects anything but blanks after `pos`: the end of a record's fields.
void expect_end_of_record(const LineReader& reader, std::size_t pos,
                          const std::string& what);

}  // namespace mtg
