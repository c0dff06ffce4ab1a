// Execution tracing: op-by-op replay of a march test against a fault
// instance, recording both machines' states, fault firings and the first
// detection.  This is the diagnostic side of the fault simulator — the tool
// an engineer reaches for to understand *why* a fault escapes a test
// (e.g. to watch the masking of Figure 1 happen step by step).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "march/march_test.hpp"
#include "sim/fault_instance.hpp"

namespace mtg {

/// One traced memory operation.
struct TraceStep {
  std::size_t element_index = 0;
  std::size_t address = 0;
  std::size_t op_index = 0;
  Op op = Op::R;
  std::string good_state;    ///< fault-free memory after the operation
  std::string faulty_state;  ///< faulty memory after the operation
  bool fired = false;        ///< some bound FP fired during this operation
  bool mismatch = false;     ///< a read returned a wrong value here

  std::string to_string() const;
};

struct Trace {
  MarchTest test;
  std::string instance;         ///< description of the traced fault instance
  Bit power_on = Bit::Zero;
  std::vector<TraceStep> steps;
  bool detected = false;
  std::size_t first_mismatch = 0;  ///< index into steps (valid iff detected)
  std::size_t total_fires = 0;

  /// Multi-line rendering; `only_interesting` keeps firings/mismatches and
  /// their immediate context instead of every operation.
  std::string to_string(bool only_interesting = false) const;
};

std::ostream& operator<<(std::ostream& os, const Trace& trace);

/// Replays `test` (with every ⇕ element resolved by `any_order_mask`, bit i
/// = 1 meaning the i-th ⇕ element runs Down) on an `n`-cell memory holding
/// `power_on` everywhere, with `instance` injected: the scenario
/// FaultSimulator::run_scenario replays, recorded operation by operation.
/// Throws mtg::Error when n < 3 or a fault address does not fit.
Trace trace_run(const MarchTest& test, const FaultInstance& instance,
                std::size_t n, Bit power_on, std::size_t any_order_mask = 0);

}  // namespace mtg
