// Layer probes and per-layer metrics of the traced run.
//
// A probe makes the benchmark's own calls into one layer's public functions
// for a handful of (test, list, n, cap) points, inside spans, and checks the
// answers against each other.  Each workload's traced run probes the layers
// its own body does not reach, so every per-layer metric is measured on
// every workload (the table in perfbench/README.md says which calls feed
// which metric on which workload).
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "fp/fault_list.hpp"
#include "gen/generator.hpp"
#include "march/march_test.hpp"
#include "service/matrix_service.hpp"
#include "sim/coverage.hpp"
#include "store/sweep_store.hpp"

namespace mtg {
struct StaticCoverage;
}

namespace perfbench {

/// One coverage evaluation: the fields of a matrix job and a sweep-store key.
struct Point {
  mtg::MarchTest test;
  std::shared_ptr<const mtg::FaultList> list;
  std::size_t n = 0;
  std::size_t cap = 0;
};

mtg::SweepKey key_of(const Point& point);

/// The generator's output for Fault Lists #1 and #2 under default options
/// (ASCII notation), as pinned by tests/gen/test_incremental.cpp.
inline constexpr const char* kList1Golden =
    "{c(w0); ^(r0,w1,r1); ^(r1,w0,r0); ^(r0); v(r0,w1,w1,r1); "
    "v(r1,w1,r1,w0); ^(r0); ^(w0); ^(r0,w0,r0,r0,w1); ^(r1,w0,w0,w1); "
    "^(r1); v(r1,w0,r0,w1); ^(r1)}";
inline constexpr const char* kList2Golden =
    "{c(w0); ^(r0); ^(r0); ^(w1,r1); ^(r1); ^(w1,r1)}";

/// SimulatorOptions for `n` with `threads` coverage threads; every other
/// field keeps the library default.
mtg::SimulatorOptions simulator_options(std::size_t n, std::size_t threads);

/// GeneratorOptions with both thread options set to `threads`.
mtg::GeneratorOptions generator_options(std::size_t threads);

/// True when every definite static verdict agrees with the simulated
/// `covered` flag of the same fault; `why` names the first disagreement.
bool verdicts_agree(const mtg::StaticCoverage& verdicts,
                    const mtg::CoverageReport& report, std::string* why);

/// The static serving tier's report, or nothing when the library declines
/// (or no longer provides the tier).
bool static_report(const Point& point, mtg::CoverageReport& out);

/// The instantiation-cache misses of a service, or -1 when the service has
/// no instantiation cache.
double instances_cache_misses(const mtg::MatrixServiceStats& stats);

// -- Probes (traced run only) -----------------------------------------------

/// Splits evaluate_coverage into compile, instantiate and simulate, then
/// times plain 1-thread and nproc-thread evaluations.  All three reports
/// must be byte-identical.  Returns the 1-thread reports.
std::vector<mtg::CoverageReport> probe_sim(const std::vector<Point>& points,
                                           std::size_t nproc, Tracer& tracer,
                                           Ledger& ledger);

/// analyze_coverage per point; verdicts must agree with `reports`.
void probe_analyze(const std::vector<Point>& points,
                   const std::vector<mtg::CoverageReport>& reports,
                   Tracer& tracer, Ledger& ledger);

/// static_coverage_report per point; a served report must be
/// byte-identical to the simulated one.
void probe_static_report(const std::vector<Point>& points,
                         const std::vector<mtg::CoverageReport>& reports,
                         Tracer& tracer, Ledger& ledger);

/// Saves then loads every report in a fresh store under `dir`; the loaded
/// records must equal the saved ones.  With `count_stats` the store's
/// counters feed store.hits/saves/save_retries.
void probe_store(const std::vector<Point>& points,
                 const std::vector<mtg::CoverageReport>& reports,
                 const std::string& dir, bool count_stats, Tracer& tracer,
                 Ledger& ledger);

/// The points as one MatrixService batch (nproc threads, no store); every
/// job must complete with its report byte-identical to `reports`.
void probe_service(const std::vector<Point>& points,
                   const std::vector<mtg::CoverageReport>& reports,
                   std::size_t nproc, Tracer& tracer, Ledger& ledger);

/// Generates Fault List #2 `reps` times and enumerates the candidate
/// elements once per generation.
void probe_generate(std::size_t reps, std::size_t nproc, Tracer& tracer,
                    Ledger& ledger);

// -- Recording ---------------------------------------------------------------

/// Adds one generation's GenerationStats to the gen.* counters.
void record_generation(const mtg::GenerationResult& result, Tracer& tracer);

/// One MatrixService lifetime: its results, counters and wall time.
void record_service(const std::vector<mtg::MatrixJobResult>& results,
                    const mtg::MatrixServiceStats& stats, double wall_s,
                    std::size_t threads, Tracer& tracer);

void record_store(const mtg::SweepStoreStats& stats, Tracer& tracer);

/// Every per-layer metric from the traced run.  `untraced_s` and
/// `traced_s` are the walls of the same iterations without and with spans.
std::map<std::string, Metric> per_layer_metrics(const Tracer& tracer,
                                                std::size_t nproc,
                                                double untraced_s,
                                                double traced_s);

}  // namespace perfbench
