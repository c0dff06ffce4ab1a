#include "format/reader.hpp"

#include <cctype>

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

}  // namespace mtg
