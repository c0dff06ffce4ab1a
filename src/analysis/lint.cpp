#include "analysis/lint.hpp"

#include <sstream>

#include "sim/coverage.hpp"
#include "sim/simulator.hpp"

namespace mtg {
namespace {

void add_finding(std::vector<LintFinding>& findings,
                 const std::string& source,
                 const std::optional<TextPosition>& position,
                 std::string category, std::string message) {
  LintFinding finding;
  finding.source = source;
  finding.position = position;
  finding.category = std::move(category);
  finding.message = std::move(message);
  findings.push_back(std::move(finding));
}

std::optional<TextPosition> record_position(
    const std::vector<TextPosition>* section, std::size_t index) {
  if (section == nullptr || index >= section->size()) return std::nullopt;
  return (*section)[index];
}

/// Semantic equality for catalog records: exact content equality, except
/// that decoder classes other than AFmc ignore the `wired` field (their
/// read-back never arbitrates two fighting cells), so records differing
/// only there subsume each other.
bool decoder_semantically_equal(const DecoderFault& x, const DecoderFault& y) {
  if (x.cls != y.cls || x.bit != y.bit) return false;
  if (x.cls == DecoderFaultClass::MultipleCells) return x.wired == y.wired;
  return true;
}

/// True when the candidate test is well-formed: non-empty, internally
/// consistent, and valid for the fault-free machine (every r0/r1 reads a
/// determined matching value).
bool test_well_formed(const MarchTest& test) {
  if (test.elements().empty()) return false;
  if (!test.consistency_violation().empty()) return false;
  return FaultSimulator::validity_violation(test).empty();
}

/// The per-fault `covered` flags the redundancy checks compare: one
/// uncapped, single-threaded evaluate_coverage at the linted memory size.
std::vector<bool> covered_flags(const MarchTest& test, const FaultList& list,
                                const FaultSimulator& simulator) {
  const CoverageReport report = evaluate_coverage(simulator, test, list, 0);
  std::vector<bool> covered;
  covered.reserve(report.entries.size());
  for (const CoverageEntry& entry : report.entries) {
    covered.push_back(entry.covered);
  }
  return covered;
}

}  // namespace

std::string LintFinding::format() const {
  std::ostringstream out;
  out << source;
  if (position.has_value()) {
    out << ":" << position->line << ":" << position->column;
  }
  out << ": warning: [" << category << "] " << message;
  return out.str();
}

std::vector<LintFinding> lint_fault_list(const FaultList& list,
                                         const LintOptions& options,
                                         const std::string& source,
                                         const FaultListPositions* positions) {
  std::vector<LintFinding> findings;
  const std::vector<TextPosition>* simple_pos =
      positions != nullptr ? &positions->simple : nullptr;
  const std::vector<TextPosition>* linked_pos =
      positions != nullptr ? &positions->linked : nullptr;
  const std::vector<TextPosition>* decoder_pos =
      positions != nullptr ? &positions->decoder : nullptr;

  for (std::size_t j = 0; j < list.simple.size(); ++j) {
    for (std::size_t i = 0; i < j; ++i) {
      if (list.simple[i] == list.simple[j]) {
        add_finding(findings, source, record_position(simple_pos, j),
                    "duplicate-fault",
                    "simple fault '" + list.simple[j].name +
                        "' duplicates record #" + std::to_string(i));
        break;
      }
    }
  }
  for (std::size_t j = 0; j < list.linked.size(); ++j) {
    for (std::size_t i = 0; i < j; ++i) {
      if (list.linked[i] == list.linked[j]) {
        add_finding(findings, source, record_position(linked_pos, j),
                    "duplicate-fault",
                    "linked fault '" + list.linked[j].name() +
                        "' duplicates record #" + std::to_string(i));
        break;
      }
    }
  }
  for (std::size_t j = 0; j < list.decoder.size(); ++j) {
    for (std::size_t i = 0; i < j; ++i) {
      if (list.decoder[i] == list.decoder[j]) {
        add_finding(findings, source, record_position(decoder_pos, j),
                    "duplicate-fault",
                    "decoder fault '" + list.decoder[j].name() +
                        "' duplicates record #" + std::to_string(i));
        break;
      }
      if (decoder_semantically_equal(list.decoder[i], list.decoder[j])) {
        add_finding(
            findings, source, record_position(decoder_pos, j),
            "subsumed-fault",
            "decoder fault '" + list.decoder[j].name() +
                "' is subsumed by record #" + std::to_string(i) + " ('" +
                list.decoder[i].name() +
                "'): the " + to_string(list.decoder[j].cls) +
                " class ignores the wired field");
        break;
      }
    }
  }

  const std::string at_n = " at n=" + std::to_string(options.memory_size);
  const auto no_layouts = [&options](int cells) {
    return kept_layouts(options.memory_size, static_cast<std::size_t>(cells),
                        0) == 0;
  };
  for (std::size_t i = 0; i < list.simple.size(); ++i) {
    if (no_layouts(list.simple[i].num_cells())) {
      add_finding(findings, source, record_position(simple_pos, i),
                  "zero-instances",
                  "simple fault '" + list.simple[i].name +
                      "' has no instances" + at_n);
    }
  }
  for (std::size_t i = 0; i < list.linked.size(); ++i) {
    if (no_layouts(list.linked[i].num_cells())) {
      add_finding(findings, source, record_position(linked_pos, i),
                  "zero-instances",
                  "linked fault '" + list.linked[i].name() +
                      "' has no instances" + at_n);
    }
  }
  for (std::size_t i = 0; i < list.decoder.size(); ++i) {
    const DecoderFault& fault = list.decoder[i];
    if (decoder_address_count(fault, options.memory_size) == 0) {
      std::string hint;
      if (fault.bit < 63) {
        hint = " (first instantiable at n=" +
               std::to_string((std::size_t{1} << fault.bit) + 1) + ")";
      }
      add_finding(findings, source, record_position(decoder_pos, i),
                  "zero-instances",
                  "decoder fault '" + fault.name() + "' has no instances" +
                      at_n + hint);
    }
  }
  return findings;
}

std::vector<LintFinding> lint_march_test(const MarchTest& test,
                                         const FaultList& list,
                                         const LintOptions& options,
                                         const std::string& source,
                                         const SuiteTestPosition* positions) {
  SimulatorOptions sim_options;
  sim_options.memory_size = options.memory_size;
  sim_options.coverage_threads = 1;
  const FaultSimulator simulator(sim_options);  // rejects n < 3
  std::vector<LintFinding> findings;
  if (!test_well_formed(test)) return findings;
  const std::vector<bool> baseline = covered_flags(test, list, simulator);

  const auto element_position =
      [positions](std::size_t index) -> std::optional<TextPosition> {
    if (positions == nullptr || index >= positions->elements.size()) {
      return std::nullopt;
    }
    return positions->elements[index];
  };
  const auto verdicts_unchanged = [&](const MarchTest& trial) {
    return test_well_formed(trial) &&
           covered_flags(trial, list, simulator) == baseline;
  };

  std::vector<bool> element_redundant(test.elements().size(), false);
  for (std::size_t e = 0; e < test.elements().size(); ++e) {
    MarchTest trial = test;
    trial.elements().erase(trial.elements().begin() + static_cast<long>(e));
    if (!verdicts_unchanged(trial)) continue;
    element_redundant[e] = true;
    add_finding(findings, source, element_position(e), "redundant-element",
                "element #" + std::to_string(e) + " " +
                    test.elements()[e].to_string() + " of test '" +
                    test.name() +
                    "' is removable: no static verdict changes against "
                    "list '" +
                    list.name + "'");
  }

  for (std::size_t e = 0; e < test.elements().size(); ++e) {
    if (element_redundant[e]) continue;  // already reported wholesale
    const MarchElement& element = test.elements()[e];
    if (element.ops().size() == 1) continue;  // would be redundant-element
    for (std::size_t i = 0; i < element.ops().size(); ++i) {
      std::vector<Op> ops = element.ops();
      ops.erase(ops.begin() + static_cast<long>(i));
      MarchTest trial = test;
      trial.elements()[e] = MarchElement(element.order(), std::move(ops));
      if (!verdicts_unchanged(trial)) continue;
      add_finding(findings, source, element_position(e), "dead-op",
                  "op #" + std::to_string(i) + " (" +
                      to_string(element.ops()[i]) + ") of element #" +
                      std::to_string(e) + " " + element.to_string() +
                      " in test '" + test.name() +
                      "' is dead: removable with no static verdict changes");
    }
  }
  return findings;
}

}  // namespace mtg
