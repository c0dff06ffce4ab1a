// Cross-test subsumption prover over closed-form fault universes.
//
// Test A *subsumes* test B over a fault universe U at memory size n when
// every fault of U that B detects (all instances, all scenarios) is also
// detected by A.  The prover compares the analyzer's symbolic verdict sets
// fault by fault — no simulation — and the verdict is sound against the
// engines by the analyzer's own soundness contract:
//
//   * Subsumes      — for every fault f: B Detected implies A Detected
//   * NotSubsumes   — a concrete witness fault: B detects it, A lets a
//                     scenario escape (the witness carries both B's
//                     detection and A's escaping scenario)
//   * Unknown       — some fault needed for the comparison came back
//                     Unknown from the analyzer (out-of-domain machines
//                     only; the built-in families are all definite)
//
// A concrete NotSubsumes counterexample beats an Unknown elsewhere in the
// universe: the verdict is NotSubsumes as soon as one witness exists.
//
// The universe itself is expressible in closed form — sums of built-in
// FP-family keywords and decoder address-line ranges — so certificates can
// name it as a short spec string instead of embedding thousands of fault
// records:
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
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/static_analyzer.hpp"
#include "fp/fault_list.hpp"
#include "march/march_test.hpp"

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

enum class SubsumptionVerdict : std::uint8_t {
  Subsumes,     ///< every fault B detects, A detects
  NotSubsumes,  ///< witness fault: B detects it, A does not
  Unknown,      ///< the analyzer could not resolve a needed fault
};

std::string to_string(SubsumptionVerdict verdict);

/// The counterexample attached to a NotSubsumes verdict.
struct SubsumptionWitness {
  std::size_t fault_index = 0;  ///< index in the materialized universe
  std::string fault_name;
  std::string escape;  ///< A's escaping scenario (analyzer NotDetected reason)
  /// How B detects the fault (sensitization + observing read, replayable).
  std::optional<StaticWitness> detection;
};

struct SubsumptionResult {
  SubsumptionVerdict verdict = SubsumptionVerdict::Unknown;
  std::optional<SubsumptionWitness> witness;  ///< iff NotSubsumes
  std::string reason;                         ///< Unknown cause
  std::size_t faults = 0;         ///< universe size at n
  std::size_t detected_by_a = 0;  ///< faults A detects
  std::size_t detected_by_b = 0;  ///< faults B detects

  bool subsumes() const noexcept {
    return verdict == SubsumptionVerdict::Subsumes;
  }
};

/// Does A subsume B over `universe` at memory size n?
SubsumptionResult prove_subsumption(const MarchTest& a, const MarchTest& b,
                                    const FaultList& universe, std::size_t n);

SubsumptionResult prove_subsumption(const MarchTest& a, const MarchTest& b,
                                    const FaultUniverse& universe,
                                    std::size_t n);

}  // namespace mtg
