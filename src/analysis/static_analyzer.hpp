// Symbolic march analyzer: static fault-coverage verdicts.
//
// A march test applied to an n-cell memory is a large but highly regular
// computation: every cell receives the same operation sequence, and a bound
// fault deviates only on its involved cells (at most three for the fault
// catalog, the corrupted address pair for decoder faults).  Operations
// addressed at a non-involved cell neither read a deviating value nor change
// any involved cell, so the detection question for one instance reduces
// *exactly* to a micro-machine over the involved cells — the same collapsing
// argument the packed engine's signature dedup rests on, used here in the
// other direction: instead of simulating 2^a scenarios over n cells, walk
// the march elements once over k <= 4 abstract cells and *branch* on every
// ⇕ element, deduplicating machine states as the branches reconverge.
//
// The abstract domain is a set of undetected machine configurations
// (faulty-cell values, fault-free values, state-fault armed flags).  Each
// march element maps every live configuration through the exact
// FaultyMemory operational semantics (fp/semantics.cpp) — sensitization on
// the pre-operation state, write effect, victim overrides in FP order,
// read-result overrides, the settle/re-arm cascade for state faults, and
// the four decoder-class deviations.  A configuration whose read mismatches
// the fault-free value is *detected* (detection is sticky) and drops out of
// the set; power-on seeds one configuration per initial content (uniform
// all-0 / all-1, matching the simulator's enumeration).
//
//   * set empties            -> Detected      (every scenario detects)
//   * a configuration runs
//     through the last
//     element undetected     -> NotDetected   (that scenario escapes)
//   * unsupported shape      -> Unknown       (fall back to simulation)
//
// The frontier is bounded by construction.  Configuration keys make the
// dedup exact — future behaviour depends only on (faulty cells, fault-free
// cells, armed flags) — and a machine has at most 4 bound FPs and 4 cells,
// so a key has at most 4 armed bits plus 8 cell bits: 2^12 = 4096 distinct
// configurations, whatever the test length or ⇕ count.  The analyzer is
// therefore total on its domain: the only Unknown exits are out-of-domain
// machines (> 4 involved cells or > 4 bound FPs, decoder faults mixed with
// FPs inside ONE instance — a combination both simulation engines refuse as
// well; lists that merely contain both kinds decompose per fault).  Every
// catalog-shaped fault binds at most 2 FPs.
//
// Soundness contract: a definite verdict (Detected / NotDetected) agrees
// with both simulation engines — locked by the three-way
// static == packed == scalar differential fuzz harness
// (tests/sim/test_differential_fuzz.cpp) and the catalog-wide comparison in
// tests/analysis/.  Every Detected verdict carries a witness: the
// sensitizing fault firing and the observing read, with the concrete
// scenario (power-on content, ⇕ order choices) that exhibits them,
// printable as an explanation and replayable on the scalar simulator.
//
// Fault-level verdicts quantify over all instances at a memory size n:
// cell-array faults have one behaviour class per address layout shape
// (detection depends only on the relative order of the involved cells), and
// a decoder fault on line `bit` has at most two (the address-order side for
// the two-cell classes, the read-back bit for AFna) — all of them feasible
// exactly when 2^bit < n.  A fault with zero instances at n follows
// evaluate_coverage's convention and reports NotDetected ("no instances
// fit"), keeping static summaries comparable with CoverageReport.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bit.hpp"
#include "fp/fault_list.hpp"
#include "march/march_test.hpp"
#include "sim/fault_instance.hpp"

namespace mtg {

/// Three-valued static coverage verdict.
enum class StaticVerdict : std::uint8_t {
  Detected,     ///< every scenario of every instance produces a failing read
  NotDetected,  ///< some scenario escapes (or the fault has no instances)
  Unknown,      ///< out of the analyzer's domain — fall back to simulation
};

std::string to_string(StaticVerdict verdict);

/// The explanation attached to a Detected verdict: the sensitizing fault
/// firing and the observing read, plus the concrete scenario exhibiting
/// them.  Cells are named by their *rank* among the instance's involved
/// cells in address order (rank 0 = lowest address), so one witness covers
/// every concrete layout of the fault.
struct StaticWitness {
  Bit power_on = Bit::Zero;      ///< uniform initial content of the scenario
  std::uint64_t any_mask = 0;    ///< ⇕ resolutions: bit i set = i-th ⇕ Down
  std::size_t any_count = 0;     ///< number of ⇕ elements in the test

  std::size_t observe_element = 0;  ///< element index of the failing read
  std::size_t observe_op = 0;       ///< op index within that element
  std::size_t observe_slot = 0;     ///< involved-cell rank that was read
  Bit expected = Bit::Zero;         ///< fault-free value
  Bit observed = Bit::Zero;         ///< value the faulty machine delivered

  bool has_sense = false;          ///< a fault firing was recorded
  bool sense_at_power_on = false;  ///< ... during the power-on settle
  std::size_t sense_element = 0;
  std::size_t sense_op = 0;
  std::string sense_what;  ///< FP notation (or decoder deviation) that fired

  /// One-line human-readable explanation.
  std::string to_string() const;
};

/// The result of analyzing one instance or one fault.
struct StaticResult {
  StaticVerdict verdict = StaticVerdict::Unknown;
  std::optional<StaticWitness> witness;  ///< present iff verdict == Detected
  std::string reason;  ///< NotDetected escape scenario / Unknown cause

  bool definite() const noexcept { return verdict != StaticVerdict::Unknown; }
};

/// Static verdict for one bound instance — the same question
/// FaultSimulator::detects() answers by simulation.  Instances with more
/// than four involved cells or four bound FPs, or combining FPs with decoder
/// faults, come back Unknown.
StaticResult analyze_instance(const MarchTest& test,
                              const FaultInstance& instance);

/// Fault-level verdicts at memory size n: Detected iff *every* instance at
/// n is detected, NotDetected if at least one escapes or none fit.
StaticResult analyze_fault(const MarchTest& test, const SimpleFault& fault,
                           std::size_t n);
StaticResult analyze_fault(const MarchTest& test, const LinkedFault& fault,
                           std::size_t n);
StaticResult analyze_fault(const MarchTest& test, const DecoderFault& fault,
                           std::size_t n);

/// Per-fault verdicts over a whole list, in instantiate_all's fault order
/// (simple, then linked, then decoder).
struct StaticCoverageEntry {
  std::size_t fault_index = 0;
  std::string fault_name;
  StaticVerdict verdict = StaticVerdict::Unknown;
  std::uint64_t instance_count = 0;  ///< uncapped instances at n
  std::optional<StaticWitness> witness;
  std::string reason;
};

struct StaticCoverage {
  std::vector<StaticCoverageEntry> entries;
  std::size_t detected = 0;
  std::size_t not_detected = 0;
  std::size_t unknown = 0;

  /// "static: 37 detected, 2 not detected, 1 unknown (of 40 faults)".
  std::string summary() const;
};

StaticCoverage analyze_coverage(const MarchTest& test, const FaultList& list,
                                std::size_t n);

}  // namespace mtg
