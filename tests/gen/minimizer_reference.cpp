#include "minimizer_reference.hpp"

#include "../sim/coverage_helpers.hpp"
#include "sim/prefix_sim.hpp"

namespace mtg {

bool covers_all(const FaultSimulator& simulator, const MarchTest& test,
                const std::vector<FaultInstance>& instances) {
  if (!FaultSimulator::validity_violation(test).empty()) return false;
  return detects_every(simulator, test, instances);
}

MarchTest minimize_classes(const MarchTest& test,
                           const std::vector<BehaviourClass>& classes,
                           std::size_t memory_size,
                           std::vector<std::string>* log,
                           MinimizeStats* stats) {
  PrefixEngine engine(memory_size, classes, test,
                      /*record_checkpoints=*/true);
  return minimize_test(test, engine, /*pool=*/nullptr, log, stats);
}

MarchTest minimize_test_rescan(const FaultSimulator& simulator,
                               const MarchTest& test,
                               const std::vector<FaultInstance>& instances,
                               std::vector<std::string>* log,
                               std::size_t* trials) {
  const auto keeps_coverage = [&](const MarchTest& trial) {
    if (trials != nullptr) ++*trials;
    return covers_all(simulator, trial, instances);
  };
  const auto note = [&](const std::string& line) {
    if (log != nullptr) log->push_back(line);
  };

  MarchTest current = test;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < current.elements().size() && !changed; ++i) {
      if (current.elements().size() == 1) break;
      MarchTest trial = current;
      trial.elements().erase(trial.elements().begin() +
                             static_cast<std::ptrdiff_t>(i));
      if (keeps_coverage(trial)) {
        note("dropped element " + current.elements()[i].to_string());
        current = std::move(trial);
        changed = true;
      }
    }
    for (std::size_t i = 0; i < current.elements().size() && !changed; ++i) {
      const MarchElement element = current.elements()[i];
      if (element.ops().size() == 1) continue;
      for (std::size_t j = 0; j < element.ops().size() && !changed; ++j) {
        std::vector<Op> ops = element.ops();
        ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(j));
        MarchTest trial = current;
        trial.elements()[i] = MarchElement(element.order(), std::move(ops));
        if (keeps_coverage(trial)) {
          note("dropped op " + to_string(element.ops()[j]) + " from " +
               element.to_string());
          current = std::move(trial);
          changed = true;
        }
      }
    }
  }
  return current;
}

}  // namespace mtg
