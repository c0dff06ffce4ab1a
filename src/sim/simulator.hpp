// The memory fault simulator (rebuild of the paper's in-house simulator
// [13]): executes march tests against an n-cell memory with one injected
// fault instance, in lock-step with a fault-free reference machine.
//
// Detection semantics:
//  * A march test *detects* a fault instance when at least one read returns
//    a value different from the fault-free machine's value.
//  * The memory powers on with unknown content, and ⇕ march elements leave
//    the address order to the tester; a test therefore *covers* an instance
//    only if it detects it for EVERY power-on content in {all-0, all-1} and
//    EVERY assignment of concrete orders to the ⇕ elements.
//
// Masking between linked FPs needs no special handling: both FPs of a
// linked instance are active in the faulty machine (fp/semantics.hpp), so a
// masked sensitization simply produces no read mismatch.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "march/march_test.hpp"
#include "sim/fault_instance.hpp"

namespace mtg {

struct CompiledTest;  // sim/packed_engine.hpp

/// Cap on the ⇕ elements of a simulated test.  Each one doubles the
/// scenario set (2 power-on contents × 2^⇕ order assignments), so the cap
/// guards user input against an exponential blow-up.
inline constexpr std::size_t kMaxAnyOrderElements = 10;

/// Throws mtg::Error when `any_count` ⇕ elements exceed kMaxAnyOrderElements.
void require_any_order_cap(std::size_t any_count);

/// The scenario space is not an option: both power-on contents are always
/// tried, and a test may have at most kMaxAnyOrderElements ⇕ elements.
struct SimulatorOptions {
  std::size_t memory_size = 8;  ///< n — number of simulated cells
  /// Worker threads for evaluate_coverage; 0 picks the hardware concurrency.
  std::size_t coverage_threads = 0;
};

/// Where a detection happened, for diagnostics.
struct DetectionEvent {
  std::size_t element_index = 0;  ///< march element
  std::size_t address = 0;        ///< cell being visited
  std::size_t op_index = 0;       ///< operation within the element
  Bit expected = Bit::Zero;       ///< fault-free value
  Bit observed = Bit::Zero;       ///< faulty machine value

  std::string to_string() const;
};

/// One operation of a run_scenario replay, as a ScenarioRecorder sees it
/// right after the operation executed on both machines.
struct ReplayedOp {
  std::size_t element_index;
  std::size_t address;
  std::size_t op_index;
  Op op;
  bool mismatch;               ///< a read returned a wrong value here
  const MemoryState& good;     ///< fault-free machine
  const FaultyMemory& faulty;  ///< faulty machine
};

/// Per-operation observer of run_scenario (trace_run records with one).
using ScenarioRecorder = std::function<void(const ReplayedOp&)>;

class FaultSimulator {
 public:
  explicit FaultSimulator(SimulatorOptions options = {});

  const SimulatorOptions& options() const noexcept { return options_; }

  /// Checks the test against the fault-free machine with unknown power-on
  /// content: every r0/r1 must read a cell whose value is determined and
  /// matching.  Returns an explanation of the first violation, or an empty
  /// string for a valid test.
  static std::string validity_violation(const MarchTest& test);

  /// Throws mtg::Error when the test is invalid (see validity_violation).
  static void validate(const MarchTest& test);

  /// Full detection semantics (all power-on states, all ⇕ orders) on the
  /// packed engine (sim/packed_engine.hpp).  `compiled`, when given, must be
  /// compile_march_test(test): batch callers compile once and share it.
  bool detects(const MarchTest& test, const FaultInstance& instance,
               const CompiledTest* compiled = nullptr) const;

  /// detects() on the scalar reference machine, one run_scenario per
  /// scenario with an early exit at the first escape: the
  /// differential-testing oracle for the packed engine.
  bool detects_scalar(const MarchTest& test,
                      const FaultInstance& instance) const;

  /// Single scenario run: fixed power-on value and a bitmask choosing the
  /// concrete order of each ⇕ element (bit i = 1 → the i-th ⇕ element runs
  /// Down).  Returns the first detection event, if any.  Without a recorder
  /// the run stops there; with one it runs to the end of the test and calls
  /// `recorder` after every operation.
  std::optional<DetectionEvent> run_scenario(
      const MarchTest& test, const FaultInstance& instance, Bit power_on,
      std::size_t any_order_mask, const ScenarioRecorder& recorder = {}) const;

  /// Number of ⇕ elements in the test (scenario mask width).
  static std::size_t any_order_count(const MarchTest& test);

 private:
  SimulatorOptions options_;
};

}  // namespace mtg
