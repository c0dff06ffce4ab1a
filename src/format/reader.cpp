#include "format/reader.hpp"

#include <cctype>
#include <cstdint>

namespace mtg {
namespace {

bool is_space(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

}  // namespace

LineReader::LineReader(std::string_view text, std::string source)
    : text_(text), source_(std::move(source)) {}

bool LineReader::next() {
  while (cursor_ <= text_.size()) {
    if (cursor_ == text_.size()) {
      // A final line without a trailing newline was handled on the previous
      // iteration; nothing left.
      cursor_ = text_.size() + 1;
      return false;
    }
    std::size_t end = text_.find('\n', cursor_);
    if (end == std::string_view::npos) end = text_.size();
    std::string_view raw = text_.substr(cursor_, end - cursor_);
    ++line_number_;
    cursor_ = end + (end < text_.size() ? 1 : 0);
    const bool last_line_without_newline = end == text_.size();

    // Trim (CRLF input leaves a trailing '\r').
    std::size_t begin = 0;
    std::size_t stop = raw.size();
    while (begin < stop && is_space(raw[begin])) ++begin;
    while (stop > begin && is_space(raw[stop - 1])) --stop;
    if (begin == stop || raw[begin] == '#') {
      if (last_line_without_newline) {
        cursor_ = text_.size() + 1;
        return false;
      }
      continue;  // blank or full-line comment
    }
    line_ = raw.substr(begin, stop - begin);
    indent_ = begin + 1;
    if (last_line_without_newline) cursor_ = text_.size() + 1;
    return true;
  }
  return false;
}

void LineReader::read_header(std::string_view keyword,
                             const std::string& format) {
  const std::string header = std::string(keyword) + " v1";
  if (!next()) fail_at_end("empty document: expected '" + header + "' header");
  if (line_ == header) return;
  const std::size_t word_end = line_.find_first_of(" \t");
  if (line_.substr(0, word_end) == keyword) {
    const std::size_t version = line_.find_first_not_of(" \t", word_end);
    fail((version == std::string_view::npos ? line_.size() : version) + 1,
         "unsupported " + format + " format version (this reader "
         "understands '" + header + "')");
  }
  fail(1, "expected '" + header + "' header, got '" + std::string(line_) +
              "'");
}

void LineReader::fail(std::size_t column, const std::string& detail) const {
  const TextPosition position{line_number_ == 0 ? 1 : line_number_,
                              indent_ + (column == 0 ? 0 : column - 1)};
  throw ParseError(source_ + ":" + std::to_string(position.line) + ":" +
                       std::to_string(position.column) + ": " + detail +
                       "\n  | " + std::string(line_),
                   detail, position, 0);
}

void LineReader::fail_at_end(const std::string& detail) const {
  const TextPosition position{line_number_ + 1, 1};
  throw ParseError(source_ + ":" + std::to_string(position.line) + ":1: " +
                       detail,
                   detail, position, 0);
}

std::size_t skip_ws(std::string_view line, std::size_t pos) {
  const std::size_t next = line.find_first_not_of(" \t", pos);
  return next == std::string_view::npos ? line.size() : next;
}

std::string_view read_token(std::string_view line, std::size_t& pos) {
  const std::size_t begin = pos;
  while (pos < line.size() && line[pos] != ' ' && line[pos] != '\t') ++pos;
  return line.substr(begin, pos - begin);
}

std::string read_quoted(const LineReader& reader, std::size_t& pos,
                        const std::string& what) {
  const std::string_view line = reader.line();
  if (pos >= line.size() || line[pos] != '"') {
    reader.fail(pos + 1, "expected '\"' opening the quoted " + what);
  }
  ++pos;
  std::string value;
  while (pos < line.size() && line[pos] != '"') {
    if (line[pos] == '\r') reader.fail(pos + 1, "line break in " + what);
    if (line[pos] == '\\') {
      if (pos + 1 >= line.size() ||
          (line[pos + 1] != '"' && line[pos + 1] != '\\')) {
        reader.fail(pos + 1,
                    "bad escape in " + what + " (only \\\" and \\\\ exist)");
      }
      ++pos;
    }
    value += line[pos];
    ++pos;
  }
  if (pos >= line.size()) {
    reader.fail(line.size() + 1, "unterminated quoted " + what);
  }
  ++pos;  // closing quote
  return value;
}

std::size_t read_number(const LineReader& reader, std::size_t& pos,
                        const std::string& what) {
  const std::string_view line = reader.line();
  const std::size_t begin = pos;
  std::size_t value = 0;
  while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
    const std::size_t digit = static_cast<std::size_t>(line[pos] - '0');
    if (value > (SIZE_MAX - digit) / 10) {
      reader.fail(begin + 1, what + " value is out of range");
    }
    value = value * 10 + digit;
    ++pos;
  }
  if (pos == begin) reader.fail(pos + 1, "expected a number for " + what);
  if (pos < line.size() && line[pos] != ' ' && line[pos] != '\t') {
    reader.fail(pos + 1, "trailing characters after the " + what + " value");
  }
  return value;
}

void expect_end_of_record(const LineReader& reader, std::size_t pos,
                          const std::string& what) {
  pos = skip_ws(reader.line(), pos);
  if (pos < reader.line().size()) {
    reader.fail(pos + 1, "trailing characters after the " + what);
  }
}

}  // namespace mtg
