#include "sim/sweep.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "store/sweep_store.hpp"

namespace mtg {

std::vector<SweepPoint> sweep_coverage(const MarchTest& test,
                                       const FaultList& list,
                                       const std::vector<std::size_t>& sizes,
                                       const SweepOptions& options) {
  FaultSimulator::validate(test);
  for (const std::size_t n : sizes) {
    require(n >= 3, "sweep_coverage: every memory size must be >= 3, got " +
                        std::to_string(n));
  }

  // Content hashes are the store key halves; computed once per sweep, they
  // are what makes a record from a previous process reusable (names are
  // metadata and deliberately not part of the identity).
  const std::uint64_t test_hash = options.store ? stable_hash(test) : 0;
  const std::uint64_t list_hash = options.store ? stable_hash(list) : 0;
  const auto key_for = [&](std::size_t n) {
    SweepKey key;
    key.test_hash = test_hash;
    key.list_hash = list_hash;
    key.memory_size = n;
    key.max_instances_per_fault = options.max_instances_per_fault;
    return key;
  };

  std::vector<SweepPoint> points(sizes.size());
  const auto evaluate = [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      points[i].memory_size = sizes[i];
      // A tripped token drains the remaining points immediately; the report
      // stays empty — a cancelled point is absent, never partial.
      if (options.cancel != nullptr && options.cancel->cancelled()) {
        points[i].cancelled = true;
        continue;
      }
      if (options.store != nullptr &&
          options.store->load(key_for(sizes[i]), points[i].report)) {
        // The record stores content, the caller supplies presentation: a
        // cached report must be byte-identical to a fresh evaluation even
        // when the hit comes from a run that named the test differently.
        points[i].report.test_name = test.name();
        points[i].report.list_name = list.name;
        points[i].from_store = true;
        continue;
      }
      SimulatorOptions sim_options;
      sim_options.memory_size = sizes[i];
      // Each point evaluates sequentially on its worker: the parallelism
      // lives across sweep points, not inside them.
      sim_options.coverage_threads = 1;
      try {
        points[i].report = evaluate_coverage(FaultSimulator(sim_options),
                                             test, list,
                                             options.max_instances_per_fault,
                                             options.cancel);
      } catch (const CancelledError&) {
        points[i].report = CoverageReport{};
        points[i].cancelled = true;
        continue;
      }
      if (options.store != nullptr) {
        // Persist the point as it lands: an interrupted sweep resumes from
        // every record that completed the atomic-replace protocol.  A save
        // failure only degrades the store, never this result.
        options.store->save(key_for(sizes[i]), points[i].report);
      }
    }
  };

  // The caller participates (coverage.cpp's pattern), so the pool only needs
  // workers for the other sweep points; single-point sweeps and threads == 1
  // skip pool construction entirely.
  const std::size_t threads = ThreadPool::resolve_thread_count(options.threads);
  const std::size_t workers =
      std::min(threads - 1, sizes.size() > 0 ? sizes.size() - 1 : 0);
  if (workers == 0) {
    evaluate(0, 0, sizes.size());
  } else {
    ThreadPool pool(workers);
    pool.parallel_for(sizes.size(), /*chunk=*/1, evaluate);
  }
  return points;
}

std::size_t sweep_points_evaluated(const std::vector<SweepPoint>& points) {
  std::size_t evaluated = 0;
  for (const SweepPoint& point : points) {
    if (!point.from_store) ++evaluated;
  }
  return evaluated;
}

std::string sweep_summary(const std::vector<SweepPoint>& points) {
  std::ostringstream out;
  out << "      n   faults covered   instances detected   coverage\n";
  for (const SweepPoint& point : points) {
    if (point.cancelled) {
      out << std::setw(7) << point.memory_size
          << "   (cancelled before completion)\n";
      continue;
    }
    const CoverageReport& r = point.report;
    out << std::setw(7) << point.memory_size << "   " << std::setw(6)
        << r.faults_covered() << "/" << r.faults_total() << "        "
        << std::setw(8) << r.instances_detected() << "/" << r.instances_total()
        << "        " << std::fixed << std::setprecision(2)
        << r.fault_coverage_percent() << "%\n";
  }
  return out.str();
}

}  // namespace mtg
