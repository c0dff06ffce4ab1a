// Redundancy elimination for generated march tests.
//
// The paper claims the methodology "allows generating non-redundant March
// Tests".  The minimizer enforces this a posteriori: it repeatedly attempts
// to drop whole march elements and individual operations, keeping a removal
// whenever the shortened test remains valid and still detects every target
// fault instance.  The result is locally minimal: no single element or
// operation can be removed without losing coverage.
//
// The targets are the items of an exact, checkpointed prefix engine
// (sim/prefix_sim.hpp) — in the generator, the persistent certification
// engine itself, so phase C proves every removal at the certify size on the
// behaviour classes phase B already simulated.  A "drop element i / drop
// op j" trial restores the checkpoint before the edit and replays only the
// suffix (PrefixEngine::trial_covers), bailing out at the first surviving
// undetected class; classes detected strictly before the edit are skipped
// outright.  Trials and the rewinds of accepted removals spread the classes
// over a thread pool; their verdicts and replay counts do not depend on the
// thread count.  Verdicts — and therefore the minimized test — are
// identical to re-simulating every instance per trial (the from-scratch
// reference in tests/gen/ checks this).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "march/march_test.hpp"

namespace mtg {

class PrefixEngine;  // sim/prefix_sim.hpp
class ThreadPool;    // common/parallel.hpp

/// Work counters of one minimize_test call.
struct MinimizeStats {
  std::size_t trials = 0;  ///< element/op removal attempts
  /// (class, element) replays the trials and accepted removals cost.  A
  /// from-scratch rescan would cost ~ trials × instances × test length;
  /// checkpointed trials pay only the replayed suffix of the classes not
  /// already detected by the untouched prefix.
  std::size_t element_replays = 0;
};

/// Returns a locally minimal test that still detects every (non-excluded)
/// item of `engine`.  The engine must be exact and record checkpoints
/// (PrefixEngine::trial_covers); it is first synced to `test` with
/// advance() and is left synced to the returned test.  Its item order is
/// the trial scan order: put the classes most likely to escape first.
/// Trials and syncs run on `pool` (inline when null); the result, log and
/// stats are identical for every thread count.  Appends a human-readable
/// action trace to `log` when non-null; fills `stats` when non-null.
MarchTest minimize_test(const MarchTest& test, PrefixEngine& engine,
                        ThreadPool* pool,
                        std::vector<std::string>* log = nullptr,
                        MinimizeStats* stats = nullptr);

}  // namespace mtg
