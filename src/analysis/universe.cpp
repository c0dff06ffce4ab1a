#include "analysis/universe.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/parse.hpp"

namespace mtg {
namespace {

constexpr std::size_t kDecoderDefaultBits = 12;  // decoder_fault_list()

/// decoder[a,b): the records decoder_fault_list(b) emits for address lines
/// a and up, in its order — decoder[0,12) is exactly the built-in list.
void append_decoder_range(FaultList& out, std::size_t bit_begin,
                          std::size_t bit_end) {
  for (const DecoderFault& fault : decoder_fault_list(bit_end).decoder) {
    if (fault.bit >= bit_begin) out.decoder.push_back(fault);
  }
}

FaultList family_list(const std::string& family) {
  // "decoder" never gets here: parse_term reads it as a decoder range.
  if (const BuiltinFaultList* builtin = find_builtin_fault_list(family)) {
    return builtin->make();
  }
  FaultList list;
  if (family == "linked1") {
    list.linked = enumerate_single_cell_linked_faults();
  } else if (family == "linked2") {
    list.linked = enumerate_two_cell_linked_faults();
  } else if (family == "linked3") {
    list.linked = enumerate_three_cell_linked_faults();
  } else if (family == "linkedrt") {
    list.linked = enumerate_retention_linked_faults();
  } else {
    throw Error("fault universe: unknown family '" + family +
                "' (expected simple, retention, linked1, linked2, linked3, "
                "linkedrt, list1, list2, or decoder[a,b))");
  }
  return list;
}

FaultUniverse::Term parse_term(std::string_view term_text) {
  const std::string text(term_text);
  FaultUniverse::Term term;
  if (text.rfind("decoder", 0) == 0) {
    term.kind = FaultUniverse::Term::Kind::DecoderRange;
    std::string_view rest = std::string_view(text).substr(7);
    if (rest.empty()) {
      term.bit_begin = 0;
      term.bit_end = kDecoderDefaultBits;
      return term;
    }
    // decoder[a,b): a half-open address-line range.
    if (rest.front() != '[' || rest.back() != ')') {
      throw Error("fault universe: malformed decoder range '" + text +
                  "' (expected decoder[a,b))");
    }
    rest = rest.substr(1, rest.size() - 2);
    const std::size_t comma = rest.find(',');
    if (comma == std::string_view::npos) {
      throw Error("fault universe: malformed decoder range '" + text +
                  "' (expected decoder[a,b))");
    }
    term.bit_begin = parse_count(std::string(rest.substr(0, comma)),
                                 "decoder range begin");
    term.bit_end = parse_count(std::string(rest.substr(comma + 1)),
                               "decoder range end");
    if (term.bit_begin >= term.bit_end || term.bit_end > 62) {
      throw Error("fault universe: decoder range [" +
                  std::to_string(term.bit_begin) + "," +
                  std::to_string(term.bit_end) +
                  ") must be non-empty with end <= 62");
    }
    return term;
  }
  term.kind = FaultUniverse::Term::Kind::Family;
  term.family = text;
  family_list(text);  // validates the keyword
  return term;
}

}  // namespace

FaultUniverse FaultUniverse::parse(std::string_view spec) {
  FaultUniverse universe;
  std::size_t begin = 0;
  if (spec.empty()) {
    throw Error("fault universe: empty spec");
  }
  while (begin <= spec.size()) {
    const std::size_t plus = spec.find('+', begin);
    const std::size_t end = plus == std::string_view::npos ? spec.size() : plus;
    if (end == begin) {
      throw Error("fault universe: empty term in spec '" + std::string(spec) +
                  "'");
    }
    universe.terms.push_back(parse_term(spec.substr(begin, end - begin)));
    if (plus == std::string_view::npos) break;
    begin = plus + 1;
  }
  return universe;
}

FaultUniverse FaultUniverse::of(FaultList list) {
  FaultUniverse universe;
  Term term;
  term.kind = Term::Kind::Concrete;
  term.list = std::move(list);
  universe.terms.push_back(std::move(term));
  return universe;
}

std::string FaultUniverse::spec() const {
  std::string out;
  for (const Term& term : terms) {
    if (term.kind == Term::Kind::Concrete) return std::string();
    if (!out.empty()) out += '+';
    if (term.kind == Term::Kind::Family) {
      out += term.family;
    } else {
      out += "decoder[" + std::to_string(term.bit_begin) + "," +
             std::to_string(term.bit_end) + ")";
    }
  }
  return out;
}

FaultList FaultUniverse::materialize() const {
  FaultList result;
  for (const Term& term : terms) {
    FaultList part;
    switch (term.kind) {
      case Term::Kind::Family:
        part = family_list(term.family);
        break;
      case Term::Kind::DecoderRange:
        append_decoder_range(part, term.bit_begin, term.bit_end);
        break;
      case Term::Kind::Concrete:
        part = term.list;
        break;
    }
    result.simple.insert(result.simple.end(), part.simple.begin(),
                         part.simple.end());
    result.linked.insert(result.linked.end(), part.linked.begin(),
                         part.linked.end());
    result.decoder.insert(result.decoder.end(), part.decoder.begin(),
                          part.decoder.end());
  }
  const std::string canonical = spec();
  if (!canonical.empty()) {
    result.name = canonical;
  } else if (terms.size() == 1 &&
             terms[0].kind == Term::Kind::Concrete) {
    result.name = terms[0].list.name;
  } else {
    result.name = "universe";
  }
  return result;
}

}  // namespace mtg
