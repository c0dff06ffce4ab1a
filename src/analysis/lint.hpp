// Catalog linter built on the fault simulator: position-bearing warnings
// for march tests, fault-list catalogs and march-test suites.
//
// Checks:
//   * redundant-element — a march element whose removal keeps the test
//     well-formed and leaves every fault's coverage verdict unchanged (the
//     per-fault `covered` flags of an uncapped evaluate_coverage at the
//     linted memory size, before and after);
//   * dead-op — the same property at single-operation granularity, for
//     elements that are not redundant outright;
//   * duplicate-fault — a catalog record content-equal to an earlier one;
//   * subsumed-fault — a record semantically equal to an earlier one
//     despite textual differences (e.g. decoder faults of a non-AFmc class
//     differing only in the `wired` field, which their semantics ignore);
//   * zero-instances — a fault with no instances at the linted memory size
//     (e.g. a decoder fault on address line `bit` with 2^bit >= n).
//
// Findings carry the document position of the offending record or element
// when the linted object came from a catalog file (common/text_position.hpp),
// so they print as "path:line:column: warning: ..." and drop straight into
// editors and CI annotations.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/text_position.hpp"
#include "format/fault_list_text.hpp"
#include "format/suite_text.hpp"

namespace mtg {

struct LintFinding {
  std::string source;  ///< file path, or a pseudo-source like "<test>"
  std::optional<TextPosition> position;
  std::string category;  ///< kebab-case check name, e.g. "redundant-element"
  std::string message;

  /// "source:line:column: warning: [category] message" (position-less
  /// findings omit the line:column part).
  std::string format() const;
};

struct LintOptions {
  /// Memory size the verdicts and instance counts are evaluated at (at
  /// least 3 for lint_march_test, like the simulator).
  std::size_t memory_size = 6;
};

/// Catalog-level checks (duplicate, subsumed, zero-instances) over a fault
/// list.  `positions` (when the list came from a file) anchors findings to
/// record positions.
std::vector<LintFinding> lint_fault_list(
    const FaultList& list, const LintOptions& options,
    const std::string& source = "<list>",
    const FaultListPositions* positions = nullptr);

/// Test-level checks (redundant-element, dead-op) of `test` against the
/// target fault list.  `positions` (when the test came from a suite file)
/// anchors findings to element positions.  Throws mtg::Error when
/// options.memory_size is below 3 or the simulator refuses the test (more
/// than kMaxAnyOrderElements ⇕ elements).
std::vector<LintFinding> lint_march_test(
    const MarchTest& test, const FaultList& list, const LintOptions& options,
    const std::string& source = "<test>",
    const SuiteTestPosition* positions = nullptr);

}  // namespace mtg
