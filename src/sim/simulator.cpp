#include "sim/simulator.hpp"

#include <sstream>

#include "common/error.hpp"
#include "sim/packed_engine.hpp"

namespace mtg {

void require_any_order_cap(std::size_t any_count) {
  require(any_count <= kMaxAnyOrderElements,
          "too many ⇕ elements to enumerate order assignments");
}

std::string DetectionEvent::to_string() const {
  std::ostringstream out;
  out << "element #" << element_index << ", cell " << address << ", op #"
      << op_index << ": read " << observed << ", expected " << expected;
  return out.str();
}

FaultSimulator::FaultSimulator(SimulatorOptions options) : options_(options) {
  require(options_.memory_size >= 3,
          "the simulator needs at least 3 cells to host three-cell faults");
}

std::string FaultSimulator::validity_violation(const MarchTest& test) {
  // Symbolic fault-free machine: every cell starts unknown ('-').
  // March elements keep all cells in lock-step, so one symbolic value
  // suffices per sweep position; we still model cells individually to stay
  // faithful for exotic hand-written tests.
  std::vector<Tri> cells(4, Tri::X);  // 4 cells are enough to be faithful
  for (std::size_t e = 0; e < test.elements().size(); ++e) {
    const MarchElement& element = test.elements()[e];
    for (std::size_t cell = 0; cell < cells.size(); ++cell) {
      for (std::size_t i = 0; i < element.ops().size(); ++i) {
        const Op op = element.ops()[i];
        if (is_write(op)) {
          cells[cell] = to_tri(written_value(op));
        } else if (is_read(op)) {
          const auto expected = expected_value(op);
          if (!expected.has_value()) continue;  // bare read: no claim
          if (cells[cell] == Tri::X) {
            return "element #" + std::to_string(e) + " (" +
                   element.to_string() + "), op #" + std::to_string(i) +
                   ": reads an expected value from an undetermined cell";
          }
          if (to_bit(cells[cell]) != *expected) {
            return "element #" + std::to_string(e) + " (" +
                   element.to_string() + "), op #" + std::to_string(i) +
                   ": expects " + std::string(1, to_char(*expected)) +
                   " but the fault-free machine holds " +
                   std::string(1, to_char(cells[cell]));
          }
        }
      }
    }
  }
  return {};
}

void FaultSimulator::validate(const MarchTest& test) {
  const std::string violation = validity_violation(test);
  require(violation.empty(),
          "march test '" + test.name() + "' is invalid: " + violation);
}

std::size_t FaultSimulator::any_order_count(const MarchTest& test) {
  std::size_t count = 0;
  for (const MarchElement& e : test.elements()) {
    if (e.order() == AddressOrder::Any) ++count;
  }
  return count;
}

std::optional<DetectionEvent> FaultSimulator::run_scenario(
    const MarchTest& test, const FaultInstance& instance, Bit power_on,
    std::size_t any_order_mask, const ScenarioRecorder& recorder) const {
  const std::size_t n = options_.memory_size;
  FaultyMemory faulty(n, instance.fps, instance.decoders);
  faulty.power_on_uniform(power_on);
  MemoryState good(n, power_on);

  std::optional<DetectionEvent> first;
  std::size_t any_index = 0;
  for (std::size_t e = 0; e < test.elements().size(); ++e) {
    const MarchElement& element = test.elements()[e];
    AddressOrder order = element.order();
    if (order == AddressOrder::Any) {
      order = (any_order_mask >> any_index) & 1u ? AddressOrder::Down
                                                 : AddressOrder::Up;
      ++any_index;
    }
    for (std::size_t step = 0; step < n; ++step) {
      const std::size_t address =
          order == AddressOrder::Up ? step : n - 1 - step;
      for (std::size_t i = 0; i < element.ops().size(); ++i) {
        const Op op = element.ops()[i];
        bool mismatch = false;
        if (is_write(op)) {
          const Bit value = written_value(op);
          good.set(address, value);
          faulty.write(address, value);
        } else if (is_read(op)) {
          const Bit expected = good.get(address);
          const Bit observed = faulty.read(address);
          if (observed != expected) {
            mismatch = true;
            if (!first.has_value()) {
              first = DetectionEvent{e, address, i, expected, observed};
            }
            if (!recorder) return first;
          }
        } else {
          faulty.wait(address);
        }
        if (recorder) {
          recorder(ReplayedOp{e, address, i, op, mismatch, good, faulty});
        }
      }
    }
  }
  return first;
}

bool FaultSimulator::detects(const MarchTest& test,
                             const FaultInstance& instance,
                             const CompiledTest* compiled) const {
  require_any_order_cap(compiled != nullptr ? compiled->any_count
                                            : any_order_count(test));
  std::optional<CompiledTest> owned;
  if (compiled == nullptr) compiled = &owned.emplace(compile_march_test(test));
  require_addresses_fit(instance, options_.memory_size);
  return packed_run(test, *compiled, PackedFaultSim(instance));
}

bool FaultSimulator::detects_scalar(const MarchTest& test,
                                    const FaultInstance& instance) const {
  const std::size_t any_count = any_order_count(test);
  require_any_order_cap(any_count);
  const std::size_t combos = std::size_t{1} << any_count;
  for (const Bit power_on : {Bit::Zero, Bit::One}) {
    for (std::size_t mask = 0; mask < combos; ++mask) {
      if (!run_scenario(test, instance, power_on, mask).has_value()) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace mtg
