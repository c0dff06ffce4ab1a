// Redundancy elimination for generated march tests.
//
// The paper claims the methodology "allows generating non-redundant March
// Tests".  The minimizer enforces this a posteriori: it repeatedly attempts
// to drop whole march elements and individual operations, keeping a removal
// whenever the shortened test remains valid and still detects every target
// fault instance.  The result is locally minimal: no single element or
// operation can be removed without losing coverage.
//
// The targets are behaviour classes (sim/fault_instance.hpp
// behaviour_classes()): one representative per class stands for every
// instance of it, as in generator phases A and B.  Trials run on the
// incremental prefix engine (sim/prefix_sim.hpp): the representatives are
// simulated once to the end of the current test with per-element
// checkpoints, and a "drop element i / drop op j" trial restores the
// checkpoint before the edit and replays only the suffix, bailing out at
// the first surviving undetected class.  Classes detected strictly before
// the edit are skipped outright.  Verdicts — and therefore the minimized
// test — are identical to re-simulating every instance per trial (the
// from-scratch reference in tests/gen/ checks this).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "march/march_test.hpp"
#include "sim/fault_instance.hpp"

namespace mtg {

/// Work counters of one minimize_test call.
struct MinimizeStats {
  std::size_t trials = 0;  ///< element/op removal attempts
  /// (class, element) replays the trials cost.  A from-scratch rescan
  /// would cost ~ trials × instances × test length; checkpointed trials pay
  /// only the replayed suffix of the classes not already detected by the
  /// untouched prefix.
  std::size_t element_replays = 0;
};

/// Returns a locally minimal test that still detects every class in
/// `classes` on a `memory_size`-cell memory.  Every representative must fit
/// the packed engine (the PackedFaultSim constructor).  The class order is
/// the trial scan order: put the classes most likely to escape first.
/// Appends a human-readable action trace to `log` when non-null; fills
/// `stats` when non-null.
MarchTest minimize_test(const MarchTest& test,
                        const std::vector<BehaviourClass>& classes,
                        std::size_t memory_size,
                        std::vector<std::string>* log = nullptr,
                        MinimizeStats* stats = nullptr);

}  // namespace mtg
