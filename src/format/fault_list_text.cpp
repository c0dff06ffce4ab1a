#include "format/fault_list_text.hpp"

#include <charconv>
#include <string>

#include "common/error.hpp"
#include "format/reader.hpp"

namespace mtg {
namespace {

/// One field of a record: its text and 1-based column in the current line.
struct Field {
  std::string_view text;
  std::size_t column = 0;
};

/// Left-to-right scanner over the fields of one record line, e.g.
///
///   simple <0w1/0/-> a_pos=-1 v_pos=0
///   linked <0w0;0/1/-> -> <1;0w0/1/-> cells=2 a1=0 a2=-1 v=1
///   decoder cls=2 bit=3 wired=1
///
/// Any deviation from the record's shape fails at column 1 with the
/// record's "malformed" diagnostic.  Each step is one linear pass, so the
/// scan costs O(line length) however long a field is.
class FieldScanner {
 public:
  FieldScanner(const LineReader& reader, std::string_view keyword,
               const char* shape)
      : reader_(reader), line_(reader.line()), keyword_(keyword),
        shape_(shape), pos_(keyword.size()) {}

  /// '<' [^<>]* '>' after a blank.
  Field fp() {
    blank();
    const std::size_t begin = pos_;
    if (!at('<')) malformed();
    pos_ = line_.find_first_of("<>", pos_ + 1);
    if (pos_ == std::string_view::npos || line_[pos_] != '>') malformed();
    ++pos_;
    return Field{line_.substr(begin, pos_ - begin), begin + 1};
  }

  /// `text` after a blank.
  void word(std::string_view text) {
    blank();
    if (line_.substr(pos_, text.size()) != text) malformed();
    pos_ += text.size();
  }

  /// key '=' '-'? [0-9]+ after a blank; returns the number's field.
  Field integer(std::string_view key) {
    word(key);
    if (!at('=')) malformed();
    const std::size_t begin = ++pos_;
    if (at('-')) ++pos_;
    const std::size_t digits = pos_;
    while (pos_ < line_.size() && line_[pos_] >= '0' && line_[pos_] <= '9') {
      ++pos_;
    }
    if (pos_ == digits) malformed();
    return Field{line_.substr(begin, pos_ - begin), begin + 1};
  }

  /// Requires the end of the line.
  void end() const {
    if (pos_ != line_.size()) malformed();
  }

 private:
  bool at(char c) const { return pos_ < line_.size() && line_[pos_] == c; }

  /// [ \t]+
  void blank() {
    if (!at(' ') && !at('\t')) malformed();
    while (at(' ') || at('\t')) ++pos_;
  }

  [[noreturn]] void malformed() const {
    reader_.fail(1, "malformed '" + std::string(keyword_) +
                        "' record; expected: " + shape_);
  }

  const LineReader& reader_;
  std::string_view line_;
  std::string_view keyword_;
  const char* shape_;
  std::size_t pos_;
};

/// Parses `field` as an integer in [min, max]; fails at its column.
long long record_int(const LineReader& reader, Field field, long long min,
                     long long max, const char* name) {
  const std::string digits(field.text);
  long long value = 0;
  if (std::from_chars(digits.data(), digits.data() + digits.size(), value)
          .ec != std::errc()) {
    reader.fail(field.column,
                std::string(name) + " out of range: '" + digits + "'");
  }
  if (value < min || value > max) {
    reader.fail(field.column,
                std::string(name) + " must be in [" + std::to_string(min) +
                    ", " + std::to_string(max) + "], got " + digits);
  }
  return value;
}

/// Parses `field` as FP notation; re-anchors sub-token errors.
FaultPrimitive record_fp(const LineReader& reader, Field field) {
  try {
    return FaultPrimitive::from_notation(field.text);
  } catch (const ParseError& e) {
    reader.fail(field.column + e.offset(), e.detail());
  }
}

void read_simple(const LineReader& reader, FaultList& list) {
  FieldScanner scan(reader, "simple",
                    "simple <S/F/R> a_pos=<-1|0|1> v_pos=<0|1>");
  const Field fp_field = scan.fp();
  const Field a_field = scan.integer("a_pos");
  const Field v_field = scan.integer("v_pos");
  scan.end();
  const FaultPrimitive fp = record_fp(reader, fp_field);
  const long long a_pos = record_int(reader, a_field, -1, 1, "a_pos");
  const long long v_pos = record_int(reader, v_field, 0, 1, "v_pos");
  // Rebuild through the factories so the derived display name matches the
  // built-in lists byte for byte.
  if (!fp.is_two_cell()) {
    if (a_pos != -1) {
      reader.fail(a_field.column,
                  "a single-cell simple fault has no aggressor (a_pos=-1)");
    }
    if (v_pos != 0) {
      reader.fail(v_field.column,
                  "a single-cell simple fault occupies position 0 (v_pos=0)");
    }
    list.simple.push_back(SimpleFault::single(fp));
    return;
  }
  if (!((a_pos == 0 && v_pos == 1) || (a_pos == 1 && v_pos == 0))) {
    reader.fail(a_field.column,
                "a two-cell simple fault needs {a_pos, v_pos} = {0, 1}");
  }
  list.simple.push_back(SimpleFault::coupled(fp, /*aggressor_below=*/a_pos == 0));
}

void read_linked(const LineReader& reader, FaultList& list) {
  FieldScanner scan(reader, "linked",
                    "linked <S/F/R> -> <S/F/R> cells=<1..3> "
                    "a1=<-1..2> a2=<-1..2> v=<0..2>");
  const Field fp1_field = scan.fp();
  scan.word("->");
  const Field fp2_field = scan.fp();
  const Field cells = scan.integer("cells");
  const Field a1 = scan.integer("a1");
  const Field a2 = scan.integer("a2");
  const Field v = scan.integer("v");
  scan.end();
  const FaultPrimitive fp1 = record_fp(reader, fp1_field);
  const FaultPrimitive fp2 = record_fp(reader, fp2_field);
  LinkedLayout layout;
  layout.num_cells =
      static_cast<std::uint8_t>(record_int(reader, cells, 1, 3, "cells"));
  layout.a1_pos = static_cast<std::int8_t>(record_int(reader, a1, -1, 2, "a1"));
  layout.a2_pos = static_cast<std::int8_t>(record_int(reader, a2, -1, 2, "a2"));
  layout.v_pos = static_cast<std::uint8_t>(record_int(reader, v, 0, 2, "v"));
  // The LinkedFault constructor re-validates the layout coherence and the
  // Definition 6/7 linking conditions — a catalog cannot smuggle in a pair
  // the enumeration machinery would reject.
  try {
    list.linked.emplace_back(fp1, fp2, layout);
  } catch (const Error& e) {
    reader.fail(1, e.what());
  }
}

void read_decoder(const LineReader& reader, FaultList& list) {
  FieldScanner scan(reader, "decoder",
                    "decoder cls=<0..3> bit=<0..62> wired=<0|1>");
  const Field cls = scan.integer("cls");
  const Field bit = scan.integer("bit");
  const Field wired = scan.integer("wired");
  scan.end();
  DecoderFault fault;
  fault.cls = static_cast<DecoderFaultClass>(
      record_int(reader, cls, 0, 3,
                 "cls (0=AFna no-access, 1=AFwc wrong-cell, 2=AFmc "
                 "multiple-cells, 3=AFma multiple-addresses)"));
  // 2^bit must fit a std::size_t address: same bound as decoder_fault_list.
  fault.bit = static_cast<std::size_t>(
      record_int(reader, bit, 0, 62, "bit (address line)"));
  fault.wired =
      record_int(reader, wired, 0, 1, "wired (0=wired-AND, 1=wired-OR)") == 1
          ? Bit::One
          : Bit::Zero;
  list.decoder.push_back(fault);
}

}  // namespace

FaultList parse_fault_list_text(std::string_view text,
                                const std::string& source,
                                FaultListPositions* positions) {
  LineReader reader(text, source);
  reader.read_header("faultlist", "fault-list");
  FaultList list;
  while (reader.next()) {
    const std::string_view line = reader.line();
    if (line.substr(0, 4) == "name") {
      const std::size_t rest = line.find_first_not_of(" \t", 4);
      if (line.size() > 4 && line[4] != ' ' && line[4] != '\t') {
        // fall through to the unknown-record diagnostic below
      } else if (rest == std::string_view::npos) {
        reader.fail(5, "empty list name");
      } else {
        list.name = std::string(line.substr(rest));
        continue;
      }
    }
    const TextPosition record_position{reader.line_number(),
                                       reader.line_indent()};
    const std::string_view keyword = line.substr(0, line.find_first_of(" \t"));
    if (keyword == "simple") {
      read_simple(reader, list);
      if (positions != nullptr) positions->simple.push_back(record_position);
    } else if (keyword == "linked") {
      read_linked(reader, list);
      if (positions != nullptr) positions->linked.push_back(record_position);
    } else if (keyword == "decoder") {
      read_decoder(reader, list);
      if (positions != nullptr) positions->decoder.push_back(record_position);
    } else {
      reader.fail(1, "unknown record '" + std::string(keyword) +
                         "' (expected name, simple, linked or decoder)");
    }
  }
  return list;
}

}  // namespace mtg
