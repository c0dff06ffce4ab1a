#include "sim/coverage.hpp"

#include <array>
#include <iomanip>
#include <optional>
#include <ostream>
#include <sstream>

#include "common/cancel.hpp"
#include "common/parallel.hpp"
#include "sim/packed_engine.hpp"

namespace mtg {

std::size_t CoverageReport::faults_covered() const {
  std::size_t covered = 0;
  for (const CoverageEntry& e : entries) covered += e.covered ? 1 : 0;
  return covered;
}

std::size_t CoverageReport::instances_total() const {
  std::size_t total = 0;
  for (const CoverageEntry& e : entries) total += e.instances;
  return total;
}

std::size_t CoverageReport::instances_detected() const {
  std::size_t detected = 0;
  for (const CoverageEntry& e : entries) detected += e.detected;
  return detected;
}

double CoverageReport::fault_coverage_percent() const {
  // An empty fault list covers nothing: report 0, not the vacuous 100 the
  // plain ratio convention used to produce (summary() carries the flag).
  if (entries.empty()) return 0.0;
  return 100.0 * static_cast<double>(faults_covered()) /
         static_cast<double>(faults_total());
}

double CoverageReport::instance_coverage_percent() const {
  const std::size_t total = instances_total();
  if (total == 0) return 0.0;
  return 100.0 * static_cast<double>(instances_detected()) /
         static_cast<double>(total);
}

std::vector<std::string> CoverageReport::missed_faults() const {
  std::vector<std::string> missed;
  for (const CoverageEntry& e : entries) {
    if (!e.covered) missed.push_back(e.fault);
  }
  return missed;
}

std::string CoverageReport::summary() const {
  std::ostringstream out;
  if (empty()) {
    out << test_name << " (" << test_complexity << "n) vs " << list_name
        << ": empty fault list — nothing to cover (coverage reported as 0%)";
    return out.str();
  }
  out << test_name << " (" << test_complexity << "n) vs " << list_name << ": "
      << faults_covered() << "/" << faults_total() << " faults covered ("
      << std::fixed << std::setprecision(2) << fault_coverage_percent()
      << "%), " << instances_detected() << "/" << instances_total()
      << " instances (" << std::setprecision(2) << instance_coverage_percent()
      << "%)";
  const auto missed = missed_faults();
  if (!missed.empty()) {
    out << "\n  missed:";
    const std::size_t shown = std::min<std::size_t>(missed.size(), 20);
    for (std::size_t i = 0; i < shown; ++i) out << "\n    " << missed[i];
    if (missed.size() > shown) {
      out << "\n    ... and " << missed.size() - shown << " more";
    }
  }
  return out.str();
}

std::ostream& operator<<(std::ostream& os, const CoverageReport& report) {
  return os << report.summary();
}

CoverageReport coverage_report(const MarchTest& test, const FaultList& list,
                               const std::vector<BehaviourClass>& classes,
                               const std::vector<std::uint8_t>& detected) {
  CoverageReport report;
  report.test_name = test.name().empty() ? test.to_string() : test.name();
  report.list_name = list.name;
  report.test_complexity = test.complexity();

  const std::size_t faults = fault_count(list);
  report.entries.resize(faults);
  for (std::size_t i = 0; i < faults; ++i) {
    report.entries[i].fault_index = i;
    report.entries[i].fault = fault_name(list, i);
    report.entries[i].covered = true;
  }

  // Deterministic aggregation in class order, regardless of how the
  // verdicts were computed.  A fault's classes are ordered by first sampled
  // instance, so the first escaping class holds the first escaping instance
  // of the per-instance enumeration.
  for (std::size_t i = 0; i < classes.size(); ++i) {
    const BehaviourClass& cls = classes[i];
    CoverageEntry& entry = report.entries[cls.representative.fault_index];
    entry.instances += cls.weight;
    if (detected[i] != 0) {
      entry.detected += cls.weight;
    } else {
      entry.covered = false;
      if (entry.escape_description.empty()) {
        entry.escape_description = cls.representative.description;
      }
    }
  }
  // Faults with zero instances (memory too small) count as uncovered.
  for (CoverageEntry& entry : report.entries) {
    if (entry.instances == 0) {
      entry.covered = false;
      entry.escape_description = "no instances fit the simulated memory";
    }
  }
  return report;
}

CoverageReport evaluate_coverage(const FaultSimulator& simulator,
                                 const MarchTest& test, const FaultList& list,
                                 std::size_t max_instances_per_fault,
                                 const CancelToken* cancel,
                                 const CoverageContext* context) {
  FaultSimulator::validate(test);
  require_any_order_cap(FaultSimulator::any_order_count(test));
  if (cancel != nullptr) cancel->check();

  const std::vector<BehaviourClass> classes = behaviour_classes(
      list, simulator.options().memory_size, max_instances_per_fault);
  std::vector<std::uint8_t> detected(classes.size(), 0);

  // Compile the test once (shared good-machine trace and ⇕ numbering), then
  // spread the representatives over a bounded thread pool.  Per-class state
  // is stack-only, so workers share nothing but the compiled test and the
  // verdict array.
  std::optional<CompiledTest> owned_compiled;
  const CompiledTest* compiled =
      context != nullptr ? context->compiled : nullptr;
  if (compiled == nullptr) {
    owned_compiled.emplace(compile_march_test(test));
    compiled = &*owned_compiled;
  }
  const auto evaluate = [&](std::size_t, std::size_t begin, std::size_t end) {
    // The per-chunk poll is the cooperative cancellation point: a tripped
    // token stops every worker within one chunk (the throw lands in the
    // pool's first_error and is rethrown on the calling thread).
    if (cancel != nullptr) cancel->check();
    for (std::size_t i = begin; i < end; ++i) {
      detected[i] =
          simulator.detects(test, classes[i].representative, compiled);
    }
  };
  const std::size_t chunk = 16;
  const std::size_t threads =
      ThreadPool::resolve_thread_count(simulator.options().coverage_threads);
  // The caller participates, so the pool only needs enough workers to cover
  // the remaining chunks; small lists skip pool construction (and its
  // thread create/join cost) entirely.
  const std::size_t workers = std::min(threads - 1, classes.size() / chunk);
  if (workers == 0) {
    // Sequential path: chunk manually so the poll frequency matches the
    // pooled path's cancellation latency.
    for (std::size_t begin = 0; begin < classes.size(); begin += chunk) {
      evaluate(0, begin, std::min(classes.size(), begin + chunk));
    }
  } else {
    ThreadPool pool(workers);
    pool.parallel_for(classes.size(), chunk, evaluate);
  }

  return coverage_report(test, list, classes, detected);
}

}  // namespace mtg
