#include "sim/trace.hpp"

#include <ostream>
#include <sstream>

#include "sim/packed_engine.hpp"
#include "sim/simulator.hpp"

namespace mtg {

std::string TraceStep::to_string() const {
  std::ostringstream out;
  out << "e" << element_index << " @" << address << " " << mtg::to_string(op)
      << "  good=" << good_state << " faulty=" << faulty_state;
  if (fired) out << "  [FP fired]";
  if (mismatch) out << "  [MISMATCH]";
  return out.str();
}

std::string Trace::to_string(bool only_interesting) const {
  std::ostringstream out;
  out << "trace of " << (test.name().empty() ? test.to_string() : test.name())
      << " on " << instance << ", power-on " << to_char(power_on) << ":\n";
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const TraceStep& step = steps[i];
    if (only_interesting && !step.fired && !step.mismatch) continue;
    out << "  [" << i << "] " << step.to_string() << "\n";
  }
  out << (detected ? "  => detected at step " + std::to_string(first_mismatch)
                   : "  => NOT detected")
      << " (" << total_fires << " FP firings)\n";
  return out.str();
}

std::ostream& operator<<(std::ostream& os, const Trace& trace) {
  return os << trace.to_string();
}

Trace trace_run(const MarchTest& test, const FaultInstance& instance,
                std::size_t n, Bit power_on, std::size_t any_order_mask) {
  const FaultSimulator simulator(SimulatorOptions{n});
  require_addresses_fit(instance, n);

  Trace trace;
  trace.test = test;
  trace.instance =
      instance.description.empty() ? "fault-free run" : instance.description;
  trace.power_on = power_on;

  const ScenarioRecorder record = [&](const ReplayedOp& replayed) {
    TraceStep step;
    step.element_index = replayed.element_index;
    step.address = replayed.address;
    step.op_index = replayed.op_index;
    step.op = replayed.op;
    step.fired = replayed.faulty.total_fires() > trace.total_fires;
    step.mismatch = replayed.mismatch;
    step.good_state = replayed.good.to_string();
    step.faulty_state = replayed.faulty.state().to_string();
    if (step.mismatch && !trace.detected) {
      trace.detected = true;
      trace.first_mismatch = trace.steps.size();
    }
    trace.total_fires = replayed.faulty.total_fires();
    trace.steps.push_back(std::move(step));
  };
  simulator.run_scenario(test, instance, power_on, any_order_mask, record);
  return trace;
}

}  // namespace mtg
