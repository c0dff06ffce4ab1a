// Matrix-service throughput (service/matrix_service.hpp): a saturated batch
// of (test × list × n) coverage jobs pushed through the deadline-aware job
// queue.  Jobs evaluate sequentially on their worker (that is what keeps
// reports byte-identical), so the service's scaling story is ACROSS jobs —
// the thread sweep below is the measurement.
//
// Two front ends in one binary (the repo's bench convention):
//
//  * default — the google-benchmark suite (BM_*);
//  * --json / --quick — the canonical saturation measurement the CI
//    bench-smoke job records as BENCH_service.json (compared against
//    bench/BENCH_service_baseline.json by scripts/compare_bench_service.py).
//    The run *fails* if any job ends in a non-Completed state or the shared
//    compiled-test cache misses more than once per test — those are
//    correctness bars, not timings.
//
// Usage: bench_service [--quick] [--json <path|->]
//        bench_service [google-benchmark flags]
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "fp/fault_list.hpp"
#include "march/catalog.hpp"
#include "service/matrix_service.hpp"

namespace {

using namespace mtg;

/// The bench batch: every catalog test crossed with a few memory sizes
/// against one shared list.  Same-test jobs share compiled-test cache
/// entries.
struct Batch {
  std::shared_ptr<const FaultList> list;
  std::vector<MatrixJob> jobs;
};

Batch make_batch(std::size_t repeats) {
  Batch batch;
  batch.list = std::make_shared<const FaultList>(fault_list_2());
  const std::vector<MarchTest> tests = {mats_plus(), march_y(),
                                        march_c_minus(), march_sl()};
  const std::vector<std::size_t> sizes = {64, 256, 1024};
  for (std::size_t r = 0; r < repeats; ++r) {
    for (const MarchTest& test : tests) {
      for (const std::size_t n : sizes) {
        MatrixJob job;
        job.test = test;
        job.list = batch.list;
        job.memory_size = n;
        job.max_instances_per_fault = 256;
        batch.jobs.push_back(job);
      }
    }
  }
  return batch;
}

/// Submits the whole batch and drains; returns false if anything failed.
bool run_batch(MatrixService& service, const Batch& batch) {
  for (const MatrixJob& job : batch.jobs) {
    if (service.submit(job).rejected) return false;
  }
  for (const MatrixJobResult& result : service.drain()) {
    if (result.status != JobStatus::Completed) return false;
  }
  return true;
}

void BM_MatrixServiceSaturated(benchmark::State& state) {
  const Batch batch = make_batch(/*repeats=*/2);
  std::uint64_t instances = 0;
  for (auto _ : state) {
    MatrixServiceOptions options;
    options.threads = static_cast<std::size_t>(state.range(0));
    options.queue_capacity = batch.jobs.size();
    MatrixService service(options);
    if (!run_batch(service, batch)) {
      state.SkipWithError("a bench job did not complete");
      return;
    }
    instances = service.stats().instance_evaluations;
  }
  state.counters["jobs"] = static_cast<double>(batch.jobs.size());
  state.counters["jobs/s"] = benchmark::Counter(
      static_cast<double>(batch.jobs.size() * state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["instance_evals/s"] = benchmark::Counter(
      static_cast<double>(instances * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MatrixServiceSaturated)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(0)  // 0 = hardware concurrency
    ->Unit(benchmark::kMillisecond);

// --- canonical saturation measurement (CI bench-smoke) ----------------------

struct ThreadTiming {
  std::size_t threads = 0;
  double ms = 0;
  double jobs_per_sec = 0;
  double instance_evals_per_sec = 0;
};

void write_json(std::FILE* out, std::size_t jobs,
                const std::vector<ThreadTiming>& timings,
                const MatrixServiceStats& last) {
  std::fprintf(out,
               "{\n  \"bench\": \"matrix_service\",\n"
               "  \"jobs\": %zu,\n"
               "  \"compiled_cache_hits\": %llu,"
               " \"compiled_cache_misses\": %llu,\n"
               "  \"instance_evaluations\": %llu,\n"
               "  \"threads\": [\n",
               jobs, static_cast<unsigned long long>(last.compiled_cache_hits),
               static_cast<unsigned long long>(last.compiled_cache_misses),
               static_cast<unsigned long long>(last.instance_evaluations));
  for (std::size_t i = 0; i < timings.size(); ++i) {
    std::fprintf(out,
                 "    {\"threads\": %zu, \"ms\": %.3f, "
                 "\"jobs_per_sec\": %.1f, "
                 "\"instance_evals_per_sec\": %.1f}%s\n",
                 timings[i].threads, timings[i].ms, timings[i].jobs_per_sec,
                 timings[i].instance_evals_per_sec,
                 i + 1 < timings.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
}

int run_saturation_bench(bool quick, const char* json_path) {
  const Batch batch = make_batch(quick ? 2 : 6);
  const std::vector<std::size_t> thread_counts = {1, 2, 0};

  std::vector<ThreadTiming> timings;
  MatrixServiceStats last_stats;
  for (const std::size_t threads : thread_counts) {
    MatrixServiceOptions options;
    options.threads = threads;
    options.queue_capacity = batch.jobs.size();
    MatrixService service(options);
    const auto t0 = std::chrono::steady_clock::now();
    if (!run_batch(service, batch)) {
      std::fprintf(stderr,
                   "error: a bench job did not complete — the service "
                   "dropped or failed work under saturation\n");
      return 1;
    }
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    last_stats = service.stats();
    ThreadTiming timing;
    timing.threads = threads;
    timing.ms = ms;
    timing.jobs_per_sec =
        ms > 0 ? static_cast<double>(batch.jobs.size()) / (ms / 1000.0) : 0;
    timing.instance_evals_per_sec =
        ms > 0
            ? static_cast<double>(last_stats.instance_evaluations) /
                  (ms / 1000.0)
            : 0;
    timings.push_back(timing);
    std::printf("threads=%zu: %8.3f ms  (%.1f jobs/s, %.1f instance "
                "evals/s)\n",
                threads, ms, timing.jobs_per_sec,
                timing.instance_evals_per_sec);
  }

  // Correctness bar: the single-flight cache must compile each distinct
  // test exactly once per service.  More misses means the cache key or the
  // single-flight broke.
  const std::uint64_t distinct_tests = 4;
  if (last_stats.compiled_cache_misses != distinct_tests) {
    std::fprintf(stderr,
                 "error: compiled-test cache misses %llu, expected %llu — "
                 "the single-flight cache recompiled shared tests\n",
                 static_cast<unsigned long long>(
                     last_stats.compiled_cache_misses),
                 static_cast<unsigned long long>(distinct_tests));
    return 1;
  }

  if (json_path != nullptr) {
    if (std::strcmp(json_path, "-") == 0) {
      write_json(stdout, batch.jobs.size(), timings, last_stats);
    } else {
      std::FILE* out = std::fopen(json_path, "w");
      if (out == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", json_path);
        return 1;
      }
      write_json(out, batch.jobs.size(), timings, last_stats);
      std::fclose(out);
      std::printf("JSON summary written to %s\n", json_path);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  bool quick = false, saturation_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
      saturation_mode = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
      saturation_mode = true;
    }
  }
  if (saturation_mode) return run_saturation_bench(quick, json_path);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
