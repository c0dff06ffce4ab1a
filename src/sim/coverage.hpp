// Fault coverage evaluation: a march test against a whole fault list.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "march/march_test.hpp"
#include "sim/fault_instance.hpp"
#include "sim/simulator.hpp"

namespace mtg {

class CancelToken;       // common/cancel.hpp
struct CompiledTest;     // sim/packed_engine.hpp

/// Per-fault coverage outcome.
struct CoverageEntry {
  std::size_t fault_index = 0;
  std::string fault;               ///< fault name
  std::size_t instances = 0;       ///< sampled concrete instances
  std::size_t detected = 0;        ///< instances detected
  bool covered = false;            ///< all instances detected
  std::string escape_description;  ///< the first undetected instance, if any
};

struct CoverageReport {
  std::string test_name;
  std::string list_name;
  std::size_t test_complexity = 0;
  std::vector<CoverageEntry> entries;

  std::size_t faults_total() const noexcept { return entries.size(); }
  std::size_t faults_covered() const;
  std::size_t instances_total() const;
  std::size_t instances_detected() const;

  /// True when the report covers no faults at all — an empty fault list.
  /// Coverage of nothing is reported as 0% and not-full (not the vacuous
  /// 100%/full a plain ratio would claim); summary() flags it explicitly.
  bool empty() const noexcept { return entries.empty(); }
  bool full_coverage() const {
    return !empty() && faults_covered() == faults_total();
  }

  /// Fault coverage in percent, at fault granularity (0 for an empty list).
  double fault_coverage_percent() const;
  /// Fault coverage in percent, at instance granularity (0 with no
  /// instances).
  double instance_coverage_percent() const;

  /// Names of uncovered faults.
  std::vector<std::string> missed_faults() const;

  /// Multi-line human-readable summary.
  std::string summary() const;
};

std::ostream& operator<<(std::ostream& os, const CoverageReport& report);

/// Precomputed evaluation artifacts the matrix service shares across jobs
/// (service/matrix_service.hpp).  The pointer is optional; when set it MUST
/// match the test of the call — the service guarantees that by keying its
/// cache on the canonical-form stable hash.  The borrowed artifact is
/// read-only and may be shared by any number of concurrent evaluations.
struct CoverageContext {
  /// compile_march_test(test) — the compiled traces and ⇕ numbering.
  const CompiledTest* compiled = nullptr;
};

/// The report of `test` against `list` from per-class verdicts:
/// `detected[i]` is non-zero iff `test` detects `classes[i]` (every
/// scenario).  `classes` are behaviour_classes() of `list`, in that order or
/// any order that keeps each fault's classes in their relative order (the
/// first escaping class of a fault holds its first escaping instance).  Each
/// class adds its weight to its fault's instance (and, if detected, the
/// detected) count; a fault with no class gets the "no instances fit the
/// simulated memory" row.  Shared by evaluate_coverage and the generator's
/// final report, which reads the verdicts from its certification engine.
CoverageReport coverage_report(const MarchTest& test, const FaultList& list,
                               const std::vector<BehaviourClass>& classes,
                               const std::vector<std::uint8_t>& detected);

/// Coverage of every fault of `list` by `test`, as if every sampled
/// instance (instantiate_all(list, n, max_instances_per_fault); 0 = full
/// enumeration) were simulated: per-fault verdicts refer to that
/// deterministic layout sample, not the full layout space.
///
/// No instance is materialized beyond one representative per *behaviour
/// class* — the instances of a fault with equal PackedFaultSim::signature(),
/// which evolve identically against every test.  An FP fault is one class
/// (all its layouts share their relative cell order), weighted by
/// kept_layouts(); a decoder fault has at most two, split by bit `bit` of
/// the corrupted address, counted in closed form over the whole address set
/// (a smaller capped sample is tallied over decoder_sample()).  Each class
/// adds its weight to the instance (and, if detected, the detected) count,
/// and the escape description is the first sampled instance of the first
/// escaping class — byte-identical to simulating every instance.
///
/// `cancel` (optional) is polled at chunk granularity: once the token trips,
/// the evaluation throws CancelledError in bounded time — a handful of
/// class simulations — and NO report is produced (an interrupted evaluation
/// never returns partial counts).  `context` (optional) supplies the
/// pre-compiled test; see CoverageContext.  Reports are identical for every
/// thread count.
CoverageReport evaluate_coverage(const FaultSimulator& simulator,
                                 const MarchTest& test, const FaultList& list,
                                 std::size_t max_instances_per_fault = 0,
                                 const CancelToken* cancel = nullptr,
                                 const CoverageContext* context = nullptr);

}  // namespace mtg
