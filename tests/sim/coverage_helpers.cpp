#include "coverage_helpers.hpp"

#include <array>

#include "march/parser.hpp"
#include "sim/fault_instance.hpp"
#include "sim/packed_engine.hpp"

namespace mtg {

CoverageReport evaluate_coverage_per_instance(
    const FaultSimulator& simulator, const MarchTest& test,
    const FaultList& list, std::size_t max_instances_per_fault, bool scalar) {
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
    const bool detected =
        scalar ? simulator.detects_scalar(test, instance)
               : simulator.detects(test, instance, &compiled);
    if (detected) {
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

std::vector<BehaviourClass> decoder_classes_by_walk(const DecoderFault& fault,
                                                    std::size_t n,
                                                    std::size_t cap,
                                                    std::size_t fault_index) {
  std::vector<BehaviourClass> classes;
  std::array<std::size_t, 2> slot_of_bit = {0, 0};  // 1 + class position
  for (const std::size_t a : decoder_sample(fault, n, cap)) {
    std::size_t& slot = slot_of_bit[(a >> fault.bit) & 1u];
    if (slot == 0) {
      classes.push_back(
          BehaviourClass{bind_decoder(fault, a, fault_index), 0});
      slot = classes.size();
    }
    ++classes[slot - 1].weight;
  }
  return classes;
}

std::vector<BehaviourClass> instance_classes(
    const std::vector<FaultInstance>& instances) {
  std::vector<BehaviourClass> classes;
  classes.reserve(instances.size());
  for (const FaultInstance& instance : instances) {
    classes.push_back(BehaviourClass{instance, 1});
  }
  return classes;
}

std::vector<std::size_t> reference_gains(
    const std::vector<FaultInstance>& instances, const MarchTest& prefix,
    const std::vector<MarchElement>& candidates) {
  const CompiledTest compiled = compile_march_test(prefix);
  const std::size_t combos = std::size_t{1} << compiled.any_count;
  const std::size_t total = 2 * combos;
  std::vector<ElementTrace> traces;
  for (const MarchElement& candidate : candidates) {
    traces.push_back(compile_element_trace(candidate));
  }
  std::vector<std::size_t> gains(candidates.size(), 0);
  for (const FaultInstance& instance : instances) {
    const PackedFaultSim sim(instance);
    for (std::size_t base = 0; base < total; base += 64) {
      PackedFaultSim::Lanes block;
      sim.power_on_block(block, base, combos);
      for (std::size_t e = 0; e < prefix.elements().size(); ++e) {
        const MarchElement& element = prefix.elements()[e];
        sim.run_element(block, element, compiled.traces[e],
                        element_down_word(element, compiled.any_ordinal[e],
                                          base, combos));
      }
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        PackedFaultSim::Lanes trial = block;
        const std::uint64_t down =
            candidates[c].order() == AddressOrder::Down ? ~std::uint64_t{0}
                                                        : 0;
        gains[c] += popcount64(
            sim.run_element(trial, candidates[c], traces[c], down));
      }
    }
  }
  return gains;
}

bool detects_every(const FaultSimulator& simulator, const MarchTest& test,
                   const std::vector<FaultInstance>& instances) {
  const CompiledTest compiled = compile_march_test(test);
  for (const FaultInstance& instance : instances) {
    if (!simulator.detects(test, instance, &compiled)) return false;
  }
  return true;
}

std::vector<std::uint64_t> packed_detected_words(const MarchTest& test,
                                                 const PackedFaultSim& sim) {
  const CompiledTest compiled = compile_march_test(test);
  const std::size_t combos = std::size_t{1} << compiled.any_count;
  std::vector<std::uint64_t> words;
  for (std::size_t base = 0; base < 2 * combos; base += 64) {
    PackedFaultSim::Lanes lanes;
    sim.power_on_block(lanes, base, combos);
    for (std::size_t e = 0; e < test.elements().size(); ++e) {
      const MarchElement& element = test.elements()[e];
      sim.run_element(
          lanes, element, compiled.traces[e],
          element_down_word(element, compiled.any_ordinal[e], base, combos));
    }
    words.push_back(lanes.detected);
  }
  return words;
}

std::vector<std::uint64_t> scalar_detected_words(
    const FaultSimulator& simulator, const MarchTest& test,
    const FaultInstance& instance) {
  const std::size_t combos = std::size_t{1}
                             << FaultSimulator::any_order_count(test);
  std::vector<std::uint64_t> words((2 * combos + 63) / 64, 0);
  for (std::size_t sc = 0; sc < 2 * combos; ++sc) {
    const Bit power_on = sc >= combos ? Bit::One : Bit::Zero;
    if (simulator.run_scenario(test, instance, power_on, sc % combos)) {
      words[sc / 64] |= std::uint64_t{1} << (sc % 64);
    }
  }
  return words;
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
