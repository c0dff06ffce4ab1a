// The automatic march test generator (Section 5 of the paper).
//
// The published algorithm (Figure 5) greedily assembles valid Sequences of
// Operations — one per march element — until every faulty edge of the
// pattern graph is covered, reporting faults that cannot be covered.  This
// implementation realizes the same greedy loop with the fault simulator as
// the coverage oracle (the paper itself certifies all generated tests with
// its fault simulator [13]):
//
//   1. Seed the test with the canonical initialization element ⇕(w0).
//   2. Greedy rounds: among all valid SOs (gen/candidates.hpp) that are
//      compatible with the memory state the test leaves behind, append the
//      march element that newly covers the most fault instances per
//      operation; repeat until the working fault set is covered or no
//      candidate helps (the latter faults are reported uncoverable —
//      step d.i of Figure 5).
//   3. Certification (CEGIS loop): re-simulate on a larger memory with every
//      address layout instantiated; feed escaped instances back to the
//      greedy loop.
//   4. Redundancy elimination (gen/minimizer.hpp) — the paper's
//      "non-redundant March Tests" claim — on the certification engine of
//      step 3, so every removal is proven at the certify size; a final
//      certification pass re-runs step 3 on the result, and the coverage
//      report reads its verdicts from that engine.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "fp/fault_list.hpp"
#include "march/march_test.hpp"
#include "sim/coverage.hpp"

namespace mtg {

/// Every phase requires detection under both power-on contents and every
/// ⇕ resolution, like the simulators (sim/simulator.hpp); the scenario
/// space is fixed, not an option.
struct GeneratorOptions {
  /// Memory size used by the greedy working phase.  Small is fast; escapes
  /// are caught by certification.
  std::size_t working_memory_size = 3;
  /// Memory size used by certification, by the redundancy minimizer (which
  /// runs its trials on the certification engine) and by the reported
  /// coverage.  Layout behaviour only depends on relative address order,
  /// which n=6 already exercises at every boundary; raise for extra
  /// assurance.
  std::size_t certify_memory_size = 6;
  /// Longest candidate march element enumerated.  6 suffices for every
  /// static linked fault list we target (the published 7-op ABL elements
  /// decompose into shorter SOs); raise for exotic user-defined faults.
  std::size_t max_element_length = 6;
  /// Run the redundancy minimizer.
  bool minimize = true;
  /// Threads for the greedy engine: each round's candidate gain scan
  /// spreads its 128-lane batch words (128 candidates of one direction and
  /// one cost each, cheapest first, packed once per generation and memory
  /// entry value) over a bounded pool, all threads pruning against one
  /// shared bound, and the winner's commit spreads the engine's items over
  /// the same pool.  0 picks the hardware concurrency, 1 runs everything on
  /// the calling thread.  The generated test is identical for every thread
  /// count.
  std::size_t gain_threads = 0;
  /// Threads for the persistent certification engine and everything that
  /// runs on it: building the packed prefix state, replaying appended
  /// suffixes (phase B), the minimizer's trials and rewinds (phase C), and
  /// the final sync the coverage report reads its verdicts from.  Each
  /// spreads the surviving instances over a bounded pool.  Same 0/1 convention as gain_threads; the generated
  /// test, log and stats are identical for every thread count.
  std::size_t certify_threads = 0;
  /// Per-fault layout bound for every instantiation (working, certification,
  /// minimization and the final report); 0 = full enumeration.  Lets the
  /// certify size scale past the O(n²) two-cell layout blow-up — the memory
  /// sizes above pass through unclamped, so certify_memory_size may exceed
  /// 64 freely (the simulators have no n ceiling).
  std::size_t max_instances_per_fault = 0;
};

struct GenerationStats {
  std::size_t candidate_pool = 0;
  std::size_t greedy_rounds = 0;
  std::size_t working_instances = 0;
  std::size_t certify_instances = 0;
  std::size_t certify_iterations = 0;
  std::size_t complexity_before_minimize = 0;
  /// Certify-size instances dropped permanently by the persistent
  /// certification engine (detected under every scenario; fault dropping).
  std::size_t instances_dropped = 0;
  /// Minimizer trials attempted and (instance, element) suffix replays they
  /// cost — the checkpointed minimizer's work unit (a from-scratch rescan
  /// would cost ~ trials × instances × test length replays).
  std::size_t minimize_trials = 0;
  std::size_t minimize_element_replays = 0;
  /// Steady-clock wall time of the whole generation (not CPU time: the
  /// scans run on gain_threads/certify_threads workers).
  double elapsed_seconds = 0.0;
  // Per-phase wall times (see the phase walkthrough in gen/generator.hpp's
  // file comment and README "Generator pipeline").  cert_prep_seconds is
  // the one-time construction of the persistent certification state — the
  // full-prefix simulation every certification scheme pays exactly once;
  // the B/B2 rounds themselves only replay appended suffixes and restored
  // checkpoints.
  double phase_a_seconds = 0.0;
  double cert_prep_seconds = 0.0;
  double phase_b_seconds = 0.0;
  double phase_c_seconds = 0.0;
  double phase_b2_seconds = 0.0;
  std::vector<std::string> log;  ///< human-readable generation trace
};

struct GenerationResult {
  MarchTest test;
  bool full_coverage = false;            ///< over the coverable faults
  std::vector<std::string> uncoverable;  ///< faults reported per Fig. 5 d.i
  /// Final coverage of the test at the certify size, named "generated"
  /// (the test's name when the report is made).  Read from the
  /// certification engine's per-class verdicts; only classes outside it
  /// (faults reported uncoverable) are simulated for it.  Equal to
  /// evaluate_coverage(FaultSimulator({certify_memory_size}), test, list,
  /// max_instances_per_fault) for the test under that name.
  CoverageReport certification;
  GenerationStats stats;
};

/// Generates a march test covering `list`.  Deterministic for a given list
/// and options.
GenerationResult generate_march_test(const FaultList& list,
                                     const GeneratorOptions& options = {});

}  // namespace mtg
