#include "gen/minimizer.hpp"

#include "sim/prefix_sim.hpp"
#include "sim/simulator.hpp"

namespace mtg {
namespace {

void note(std::vector<std::string>* log, const std::string& line) {
  if (log != nullptr) log->push_back(line);
}

}  // namespace

MarchTest minimize_test(const MarchTest& test, PrefixEngine& engine,
                        ThreadPool* pool, std::vector<std::string>* log,
                        MinimizeStats* stats) {
  // Every trial below replays only the suffix after its edit point; report
  // trial/rewind work, not the sync to `test`.
  engine.advance(test, pool);
  const std::size_t replays_before = engine.element_replays();

  // A trial keeps the removal iff the trial test is valid and every class
  // stays detected: element `edit` dropped (replacement == nullptr) or
  // swapped for `replacement`.
  const auto keeps_coverage = [&](const MarchTest& trial, std::size_t edit,
                                  const MarchElement* replacement) {
    if (stats != nullptr) ++stats->trials;
    if (!FaultSimulator::validity_violation(trial).empty()) return false;
    return engine.trial_covers(edit, replacement, pool);
  };

  MarchTest current = test;
  bool changed = true;
  while (changed) {
    changed = false;

    // Try dropping whole elements, in position order.
    for (std::size_t i = 0; i < current.elements().size(); ++i) {
      if (current.elements().size() == 1) break;
      MarchTest trial = current;
      trial.elements().erase(trial.elements().begin() + i);
      if (keeps_coverage(trial, i, nullptr)) {
        note(log, "dropped element " + current.elements()[i].to_string());
        current = std::move(trial);
        engine.advance(current, pool);  // checkpoint rewind + re-record
        changed = true;
        break;
      }
    }
    if (changed) continue;

    // Try dropping single operations.
    for (std::size_t i = 0; i < current.elements().size() && !changed; ++i) {
      const MarchElement& element = current.elements()[i];
      if (element.ops().size() == 1) continue;  // handled by element removal
      for (std::size_t j = 0; j < element.ops().size(); ++j) {
        std::vector<Op> ops = element.ops();
        const Op removed = ops[j];
        ops.erase(ops.begin() + j);
        const MarchElement replacement(element.order(), std::move(ops));
        MarchTest trial = current;
        trial.elements()[i] = replacement;
        if (keeps_coverage(trial, i, &replacement)) {
          note(log, "dropped op " + to_string(removed) + " from " +
                        element.to_string());
          current = std::move(trial);
          engine.advance(current, pool);
          changed = true;
          break;
        }
      }
    }
  }
  if (stats != nullptr) {
    stats->element_replays +=
        engine.element_replays() - replays_before;
  }
  return current;
}

}  // namespace mtg
