// The from-scratch reference minimizer: every trial re-simulates the whole
// trial test against every instance (FaultSimulator::detects), with
// its own copy of the greedy removal loop.  minimize_test
// (gen/minimizer.hpp) runs checkpointed trials on behaviour classes and
// must return the same test and log; minimize_classes() is how the tests
// call it.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "gen/minimizer.hpp"
#include "march/march_test.hpp"
#include "sim/fault_instance.hpp"
#include "sim/simulator.hpp"

namespace mtg {

/// True when `test` is valid and detects every instance in `instances`.
bool covers_all(const FaultSimulator& simulator, const MarchTest& test,
                const std::vector<FaultInstance>& instances);

/// minimize_test on a fresh checkpointed `memory_size`-cell prefix engine
/// over `classes`, scanned in the given order.
MarchTest minimize_classes(const MarchTest& test,
                           const std::vector<BehaviourClass>& classes,
                           std::size_t memory_size,
                           std::vector<std::string>* log = nullptr,
                           MinimizeStats* stats = nullptr);

/// Drops whole elements (in position order), then single operations, while
/// covers_all() holds; restarts after every kept removal.  Appends the same
/// log lines as minimize_test; counts removal attempts in `trials` when
/// non-null.
MarchTest minimize_test_rescan(const FaultSimulator& simulator,
                               const MarchTest& test,
                               const std::vector<FaultInstance>& instances,
                               std::vector<std::string>* log = nullptr,
                               std::size_t* trials = nullptr);

}  // namespace mtg
