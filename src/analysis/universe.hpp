// Closed-form fault universes: the fault space an optimize certificate
// (analysis/certificate.hpp) is proved over.
//
// A universe is expressible in closed form — sums of built-in FP-family
// keywords and decoder address-line ranges — so certificates can name it as
// a short spec string instead of embedding thousands of fault records:
//
//   "simple+linked2+decoder[0,12)"
//
// Families: simple, retention, linked1, linked2, linked3, linkedrt, list1,
// list2; decoder[a,b) covers the five classes (AFna, AFwc, AFmc wired-AND,
// AFmc wired-OR, AFma) per address line in [a, b) — decoder[0,12) is
// exactly the built-in decoder_fault_list().  materialize() concatenates
// the terms into one FaultList (instantiate_all's section order: simple,
// then linked, then decoder — fault indices refer to that enumeration).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fp/fault_list.hpp"

namespace mtg {

/// A closed-form fault universe: a sum of family / decoder-range / concrete
/// terms.  Parseable universes round-trip through spec(); universes built
/// from a concrete external list have an empty spec and live only in
/// memory (certificates then pin them by content hash alone).
struct FaultUniverse {
  struct Term {
    enum class Kind : std::uint8_t { Family, DecoderRange, Concrete };
    Kind kind = Kind::Family;
    std::string family;         ///< Family: canonical keyword
    std::size_t bit_begin = 0;  ///< DecoderRange: first broken line
    std::size_t bit_end = 0;    ///< DecoderRange: one past the last line
    FaultList list;             ///< Concrete: the records themselves
  };

  std::vector<Term> terms;

  /// Parses a '+'-separated spec ("simple+decoder[0,12)").  "decoder"
  /// without a range means decoder[0,12).  Throws mtg::Error on unknown
  /// keywords or malformed ranges.
  static FaultUniverse parse(std::string_view spec);

  /// Wraps a concrete list as a single-term universe (spec() == "").
  static FaultUniverse of(FaultList list);

  /// Canonical spec string, parseable by parse(); empty when any term is
  /// concrete.
  std::string spec() const;

  /// Concatenates the terms into one FaultList, named by the spec.
  FaultList materialize() const;
};

}  // namespace mtg
