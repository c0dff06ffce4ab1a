#include "coverage_helpers.hpp"

#include "march/parser.hpp"
#include "sim/fault_instance.hpp"
#include "sim/packed_engine.hpp"

namespace mtg {

CoverageReport evaluate_coverage_per_instance(
    const FaultSimulator& simulator, const MarchTest& test,
    const FaultList& list, std::size_t max_instances_per_fault) {
  FaultSimulator::validate(test);
  CoverageReport report;
  report.test_name = test.name().empty() ? test.to_string() : test.name();
  report.list_name = list.name;
  report.test_complexity = test.complexity();
  report.entries.resize(fault_count(list));
  for (std::size_t i = 0; i < report.entries.size(); ++i) {
    report.entries[i].fault_index = i;
    report.entries[i].fault = fault_name(list, i);
    report.entries[i].covered = true;
  }
  const std::vector<FaultInstance> instances = instantiate_all(
      list, simulator.options().memory_size, max_instances_per_fault);
  const CompiledTest compiled = compile_march_test(test);
  for (const FaultInstance& instance : instances) {
    CoverageEntry& entry = report.entries[instance.fault_index];
    ++entry.instances;
    if (simulator.detects_compiled(test, compiled, instance)) {
      ++entry.detected;
    } else {
      entry.covered = false;
      if (entry.escape_description.empty()) {
        entry.escape_description = instance.description;
      }
    }
  }
  for (CoverageEntry& entry : report.entries) {
    if (entry.instances == 0) {
      entry.covered = false;
      entry.escape_description = "no instances fit the simulated memory";
    }
  }
  return report;
}

MarchTest slow_coverage_test() {
  return parse_march_test(
      "{c(w0); c(r0,w1); c(r1,w0); c(r0,w1); c(r1,w0); c(r0,w1); c(r1,w0); "
      "c(r0,w1); c(r1,w0); c(r0)}",
      "ten any-order elements");
}

FaultList slow_coverage_list() {
  const FaultList once = fault_list_1();
  FaultList list;
  list.name = "Fault List #1, 16 times";
  for (int copy = 0; copy < 16; ++copy) {
    list.simple.insert(list.simple.end(), once.simple.begin(),
                       once.simple.end());
    list.linked.insert(list.linked.end(), once.linked.begin(),
                       once.linked.end());
  }
  return list;
}

}  // namespace mtg
