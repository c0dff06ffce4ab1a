// Memory-size sweep workload: one march test × one fault list evaluated
// across many simulated memory sizes (n ≫ 64 included).
//
// The packed engine's cost per fault instance is independent of n (cell
// collapsing keeps only the ≤ 3 involved cells), and evaluate_coverage
// simulates one instance per behaviour class — one per FP fault, at most two
// per decoder fault — so a point costs about one packed run per fault.  Only
// the decoder sample walk grows with `max_instances_per_fault`, never with n.
// Sweep points are independent, so they are spread over the bounded thread
// pool (common/parallel.hpp); each point evaluates sequentially on its
// worker, and results land in size-list order, so the sweep output is
// byte-identical for every thread count.
//
// Whether the curve moves with n depends on the fault list.  Pure cell-array
// (FP) faults are order-only — march elements treat cells uniformly, so
// their detection depends only on the relative order of the involved cells
// and the sweep is provably flat over n.  Address-decoder faults
// (fp/decoder_fault.hpp, decoder_fault_list()) are what bend it: a fault on
// address line `bit` exists only in memories with 2^bit < n, so the
// instantiable — and coverable — fraction of the list grows with the memory
// size, and the per-point instance counts (analytic sample sizes, not
// simulated instances) track the address space.  See
// tests/sim/test_decoder.cpp (CoverageCurveVariesWithMemorySize).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/coverage.hpp"

namespace mtg {

class CancelToken;  // common/cancel.hpp
class SweepStore;

/// Every point runs the simulator's fixed scenario space (both power-on
/// contents, every ⇕ resolution), so a stored record never depends on an
/// option the store key (store/sweep_store.hpp) does not carry.
struct SweepOptions {
  /// Per-fault layout bound per sweep point (0 = full enumeration: counts
  /// cover all O(n²) layouts of a two-cell fault and every corrupted
  /// address of a decoder fault, both counted in closed form).
  std::size_t max_instances_per_fault = 4096;
  /// Worker threads across sweep points; 0 picks the hardware concurrency.
  std::size_t threads = 0;
  /// Optional persistent result cache (store/sweep_store.hpp, opened by the
  /// caller).  Every completed point is persisted as it lands; points whose
  /// verified record already exists load instead of recomputing — resumable
  /// partial grids.  The reports are byte-identical with or without a
  /// (possibly failing) store: a damaged or unavailable store only costs
  /// recomputation, never correctness.
  SweepStore* store = nullptr;
  /// Optional cooperative cancellation (common/cancel.hpp).  Once the token
  /// trips, points not yet completed are skipped (marked cancelled) and the
  /// one mid-evaluation stops within a few class simulations; completed
  /// points are returned intact — with a store, an interrupted sweep has
  /// already persisted them and a re-run resumes from there.
  const CancelToken* cancel = nullptr;
};

/// Coverage of one sweep point.
struct SweepPoint {
  std::size_t memory_size = 0;
  CoverageReport report;
  /// True when the report was loaded from SweepOptions::store instead of
  /// evaluated — the per-point "engine call" indicator the warm-resume
  /// tests and benchmarks count.
  bool from_store = false;
  /// True when SweepOptions::cancel tripped before this point completed;
  /// `report` is then empty (never partial).
  bool cancelled = false;
};

/// Number of points actually evaluated (not loaded from the store): 0 on a
/// fully warm resume.
std::size_t sweep_points_evaluated(const std::vector<SweepPoint>& points);

/// Evaluates `test` against `list` at every memory size of `sizes`
/// (each ≥ 3, the simulator's minimum; duplicates allowed, order kept).
/// Deterministic: the result is identical for every `threads` value.
std::vector<SweepPoint> sweep_coverage(const MarchTest& test,
                                       const FaultList& list,
                                       const std::vector<std::size_t>& sizes,
                                       const SweepOptions& options = {});

/// Compact per-size table (one line per sweep point).
std::string sweep_summary(const std::vector<SweepPoint>& points);

}  // namespace mtg
