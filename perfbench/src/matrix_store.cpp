// Workload matrix_store: two `mtg_cli matrix` batches over one result store.
//
// Set-up draws two job files from catalog tests × {list1, list2, simple,
// decoder} × n ∈ {64, 256, 1024, 4096}, cap 256.  Per list, A holds every
// catalog test at two seeded sizes; B repeats a seeded third of A's keys
// and holds every test once more at a size A did not use.  So each seed
// gives the same mix of tests and lists, and only sizes and order vary.  No
// key repeats within a file, so the store hits of B are exactly its repeats.
// Both files are written as `jobs v1` text and parsed back.  Each iteration
// (a pass) runs A and then B through two successive MatrixService instances
// sharing one fresh PosixStorage SweepStore, with nproc threads and a queue
// of 2 × nproc under Block backpressure.
//
// Checks: every job completes, B's store hits are exactly its repeats, each
// service misses its caches once per distinct artifact, the store saves
// every computed job; on the first pass every definite static verdict
// agrees with the job's report, and one seeded job per list re-run solo
// gives byte-identical store records.
#include <malloc.h>

#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/static_analyzer.hpp"
#include "bench.hpp"
#include "layers.hpp"
#include "march/catalog.hpp"
#include "march/parser.hpp"
#include "service/job_file.hpp"
#include "store/storage.hpp"

namespace perfbench {
namespace {

using mtg::FaultList;
using mtg::MatrixJobResult;

constexpr std::size_t kCap = 256;
/// A pass takes seconds, so set-up is sampled a few times after each.
constexpr std::size_t kSetupRepsPerPass = 4;
constexpr std::size_t kRepeatsPerList = 11;  ///< a third of A's 34 per list
const std::vector<std::size_t> kSizes = {64, 256, 1024, 4096};
const char* const kLists[] = {"list1", "list2", "simple", "decoder"};

struct Job {
  Point point;
  std::size_t list = 0;  ///< index into kLists
  bool repeat = false;   ///< B only: the key also is in A
};

struct Inputs {
  std::vector<Job> a, b;
  std::size_t repeats = 0;
  bool resolved = true;  ///< the parsed files say what was written
};

struct Samples {
  std::vector<double> op_ms;         ///< run_ms of every job of every pass
  std::vector<double> faults_per_s;  ///< per pass: over A + B wall time
};

/// One service lifetime over a job file.
struct Batch {
  std::vector<MatrixJobResult> results;
  mtg::MatrixServiceStats stats;
  bool rejected = false;
  double wall_s = 0;  ///< service construction to destruction
};

std::shared_ptr<const FaultList> build_list(const std::string& name) {
  if (name == "list1") return std::make_shared<FaultList>(mtg::fault_list_1());
  if (name == "list2") return std::make_shared<FaultList>(mtg::fault_list_2());
  if (name == "simple") {
    return std::make_shared<FaultList>(mtg::standard_simple_static_faults());
  }
  return std::make_shared<FaultList>(mtg::decoder_fault_list());
}

struct Key {
  std::size_t test = 0;
  std::size_t list = 0;
  std::size_t n = 0;
  bool repeat = false;
};

std::string jobs_text(const std::vector<Key>& keys,
                      const std::vector<mtg::MarchTest>& tests) {
  std::string text = "jobs v1\n";
  for (const Key& key : keys) {
    text += "job test=\"" + tests[key.test].to_canonical_string() +
            "\" list=" + kLists[key.list] + " n=" + std::to_string(key.n) +
            " cap=" + std::to_string(kCap) + "\n";
  }
  return text;
}

/// Parses a jobs file and resolves it the way `mtg_cli matrix` does.
std::vector<Job> resolve(
    const std::string& text, const std::string& source,
    const std::vector<Key>& keys, const std::vector<mtg::MarchTest>& tests,
    const std::map<std::string, std::shared_ptr<const FaultList>>& lists,
    Tracer& tracer, bool& resolved) {
  mtg::JobFile file;
  {
    auto span = tracer.span("format.parse");
    file = mtg::parse_job_file_text(text, source);
  }
  resolved = resolved && file.jobs.size() == keys.size();
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < file.jobs.size() && i < keys.size(); ++i) {
    const mtg::JobFileRecord& record = file.jobs[i];
    Job job;
    {
      auto span = tracer.span("march.parse");
      job.point.test = mtg::parse_march_test(
          record.test_spec, source + ":" + std::to_string(record.line));
    }
    job.point.list = lists.at(record.list_name);
    job.point.n = record.memory_size;
    job.point.cap = record.max_instances_per_fault;
    job.list = keys[i].list;
    job.repeat = keys[i].repeat;
    resolved = resolved && job.point.test == tests[keys[i].test] &&
               record.list_name == kLists[keys[i].list] &&
               job.point.n == keys[i].n && job.point.cap == kCap;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// Shuffles the keys of each list, then deals them out list by list in a
/// fixed rotation: the seed changes which job fills a slot, not how the
/// expensive List #1 jobs cluster in the queue.
void interleave(std::vector<Key>& keys, Rng& rng) {
  std::vector<std::vector<Key>> by_list(std::size(kLists));
  for (const Key& key : keys) by_list[key.list].push_back(key);
  for (std::vector<Key>& group : by_list) rng.shuffle(group);
  const std::size_t total = keys.size();
  keys.clear();
  for (std::size_t i = 0; keys.size() < total; ++i) {
    for (const std::vector<Key>& group : by_list) {
      if (i < group.size()) keys.push_back(group[i]);
    }
  }
}

Inputs make_inputs(std::uint64_t seed, Tracer& tracer) {
  auto setup = tracer.span("setup");
  std::map<std::string, std::shared_ptr<const FaultList>> lists;
  for (const char* name : kLists) {
    auto span = tracer.span("fp.list_build");
    lists[name] = build_list(name);
  }
  const std::vector<mtg::MarchTest> tests = mtg::all_catalog_tests();

  // Stratified by list and test, so every seed gives the same mix.
  std::vector<Key> a, b;
  for (std::size_t l = 0; l < std::size(kLists); ++l) {
    Rng rng(seed, 10 + l);
    std::vector<Key> in_a;
    for (std::size_t t = 0; t < tests.size(); ++t) {
      std::vector<std::size_t> sizes = kSizes;
      rng.shuffle(sizes);
      in_a.push_back({t, l, sizes[0], false});
      in_a.push_back({t, l, sizes[1], false});
      b.push_back({t, l, sizes[2], false});
    }
    a.insert(a.end(), in_a.begin(), in_a.end());
    rng.shuffle(in_a);
    for (std::size_t r = 0; r < kRepeatsPerList; ++r) {
      b.push_back(in_a[r]);
      b.back().repeat = true;
    }
  }
  Rng order(seed, 20);
  interleave(a, order);
  interleave(b, order);

  Inputs in;
  in.a = resolve(jobs_text(a, tests), "A.jobs", a, tests, lists, tracer,
                 in.resolved);
  in.b = resolve(jobs_text(b, tests), "B.jobs", b, tests, lists, tracer,
                 in.resolved);
  in.repeats = kRepeatsPerList * std::size(kLists);
  return in;
}

Batch run_batch(const std::vector<Job>& jobs, mtg::SweepStore& store,
                std::size_t nproc, Tracer& tracer) {
  mtg::MatrixServiceOptions options;
  options.threads = nproc;
  options.queue_capacity = 2 * nproc;
  options.when_full = mtg::BackpressurePolicy::Block;
  options.store = &store;
  Batch batch;
  const Clock::time_point start = Clock::now();
  {
    auto span = tracer.span("service.batch");
    mtg::MatrixService service(options);
    for (const Job& job : jobs) {
      mtg::MatrixJob matrix_job;
      matrix_job.test = job.point.test;
      matrix_job.list = job.point.list;
      matrix_job.memory_size = job.point.n;
      matrix_job.max_instances_per_fault = job.point.cap;
      batch.rejected =
          service.submit(std::move(matrix_job)).rejected || batch.rejected;
    }
    batch.results = service.drain();
    batch.stats = service.stats();
  }
  batch.wall_s = seconds_since(start);
  record_service(batch.results, batch.stats, batch.wall_s, nproc, tracer);
  // Hand the freed caches back to the system, so peak_rss_mb measures one
  // service's working set rather than how earlier ones fragmented the heap.
  malloc_trim(0);
  return batch;
}

/// Checks one batch: statuses, store hits, and one cache miss per distinct
/// artifact among the jobs the store did not answer.
void check_batch(const std::string& name, const std::vector<Job>& jobs,
                 const Batch& batch, std::size_t expected_hits,
                 Ledger& ledger) {
  ledger.check(!batch.rejected && batch.results.size() == jobs.size(),
               name + ": jobs rejected or lost");
  std::set<std::uint64_t> tests;
  std::set<std::tuple<std::uint64_t, std::size_t, std::size_t>> instances;
  for (std::size_t i = 0; i < jobs.size() && i < batch.results.size(); ++i) {
    const MatrixJobResult& result = batch.results[i];
    ledger.op(result.status == mtg::JobStatus::Completed &&
                  result.from_store == jobs[i].repeat,
              name + " job " + std::to_string(i) + ": " +
                  mtg::to_string(result.status) + " " + result.error);
    if (jobs[i].repeat) continue;
    tests.insert(mtg::stable_hash(jobs[i].point.test));
    instances.emplace(mtg::stable_hash(*jobs[i].point.list), jobs[i].point.n,
                      jobs[i].point.cap);
  }
  ledger.check(batch.stats.store_hits == expected_hits,
               name + ": " + std::to_string(batch.stats.store_hits) +
                   " store hits, expected " + std::to_string(expected_hits));
  ledger.check(batch.stats.compiled_cache_misses == tests.size(),
               name + ": compiled-test cache misses != distinct tests");
  const double misses = instances_cache_misses(batch.stats);
  ledger.check(misses < 0 || misses == static_cast<double>(instances.size()),
               name + ": instantiation cache misses != distinct (list, n)");
}

/// One seeded job of A per list (indices into Inputs::a).
std::vector<std::size_t> solo_sample(const Inputs& in, std::uint64_t seed) {
  Rng rng(seed, 30);
  std::vector<std::size_t> picks;
  for (std::size_t l = 0; l < std::size(kLists); ++l) {
    std::vector<std::size_t> of_list;
    for (std::size_t i = 0; i < in.a.size(); ++i) {
      if (in.a[i].list == l) of_list.push_back(i);
    }
    if (!of_list.empty()) picks.push_back(of_list[rng.below(of_list.size())]);
  }
  return picks;
}

/// First-pass checks: static verdicts against every computed report, and a
/// seeded job per list re-run solo against its byte-identical record.
void check_reports(const Inputs& in, const Batch& a, const Batch& b,
                   const RunConfig& config, Tracer& tracer, Ledger& ledger) {
  for (const auto& [jobs, batch] :
       {std::pair{&in.a, &a}, std::pair{&in.b, &b}}) {
    for (std::size_t i = 0; i < jobs->size() && i < batch->results.size();
         ++i) {
      const Point& point = (*jobs)[i].point;
      if ((*jobs)[i].repeat) continue;
      mtg::StaticCoverage verdicts;
      {
        auto span = tracer.span("analysis.analyze");
        verdicts = mtg::analyze_coverage(point.test, *point.list, point.n);
      }
      std::string why;
      ledger.check(verdicts_agree(verdicts, batch->results[i].report, &why),
                   "analyzer disagrees with job " + point.test.name() + ": " +
                       why);
    }
  }
  for (const std::size_t i : solo_sample(in, config.seed)) {
    const Point& point = in.a[i].point;
    mtg::CoverageReport solo;
    {
      auto span = tracer.span("sim.evaluate");
      solo = mtg::evaluate_coverage(
          mtg::FaultSimulator(simulator_options(point.n, config.nproc)),
          point.test, *point.list, point.cap);
    }
    const mtg::SweepKey key = key_of(point);
    ledger.check(i < a.results.size() &&
                     mtg::SweepStore::encode_record(key, solo) ==
                         mtg::SweepStore::encode_record(key,
                                                        a.results[i].report),
                 "solo re-run differs from job " + point.test.name());
  }
}

}  // namespace

Outcome run_matrix_store(const RunConfig& config) {
  Outcome outcome;
  Ledger& ledger = outcome.ledger;
  Tracer untraced(false);
  const auto setup = [&] { return make_inputs(config.seed, untraced); };
  std::vector<double> setup_s;
  const Inputs in = timed(setup_s, setup);
  ledger.check(in.resolved, "job files do not parse back to their jobs");

  Samples samples;
  Batch first_a;
  const auto pass = [&](std::size_t p, Tracer& tracer) {
    const std::string dir = config.work_dir + "/store-" + std::to_string(p);
    Batch a, b;
    mtg::SweepStoreStats store_stats;
    {
      mtg::PosixStorage storage;
      mtg::SweepStore store(storage, dir);
      ledger.check(store.open(), "cannot open store " + dir);
      a = run_batch(in.a, store, config.nproc, tracer);
      b = run_batch(in.b, store, config.nproc, tracer);
      store_stats = store.stats();
      ledger.check(store.enabled(), "store degraded to store-less");
    }
    double faults = 0;
    for (const Batch* batch : {&a, &b}) {
      for (const MatrixJobResult& result : batch->results) {
        samples.op_ms.push_back(result.run_ms);
        faults += static_cast<double>(result.report.faults_total());
      }
    }
    samples.faults_per_s.push_back(faults / (a.wall_s + b.wall_s));
    record_store(store_stats, tracer);
    check_batch("A", in.a, a, 0, ledger);
    check_batch("B", in.b, b, in.repeats, ledger);
    const std::size_t computed = in.a.size() + in.b.size() - in.repeats;
    ledger.check(store_stats.saves == computed &&
                     store_stats.save_failures == 0 &&
                     store_stats.corrupt_records == 0,
                 "store saved " + std::to_string(store_stats.saves) + " of " +
                     std::to_string(computed) + " computed jobs");
    if (p == 0) {
      check_reports(in, a, b, config, tracer, ledger);
      first_a = std::move(a);
    }
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
  };

  if (!config.trace) {
    repeat_for(config.seconds, 2, [&](std::size_t p) {
      pass(p, untraced);
      for (std::size_t r = 0; r < kSetupRepsPerPass; ++r) {
        timed(setup_s, setup);
      }
    });
    add_end_to_end_metrics(outcome, median(setup_s), samples.faults_per_s,
                           samples.op_ms);
    return outcome;
  }

  Tracer tracer(true);
  make_inputs(config.seed, tracer);
  const TracedPasses passes = traced_passes(config.seconds, tracer, pass);

  // One seeded job per list split into layers and round-tripped through a
  // separate store; the static tier per computed job of A; a Fault List #2
  // generation stands in for the generator, which this workload does not run.
  std::vector<Point> sample;
  for (const std::size_t i : solo_sample(in, config.seed)) {
    sample.push_back(in.a[i].point);
  }
  const std::vector<mtg::CoverageReport> reports =
      probe_sim(sample, config.nproc, tracer, ledger);
  std::vector<Point> a_points;
  std::vector<mtg::CoverageReport> a_reports;
  for (std::size_t i = 0; i < in.a.size() && i < first_a.results.size();
       ++i) {
    a_points.push_back(in.a[i].point);
    a_reports.push_back(first_a.results[i].report);
  }
  probe_static_report(a_points, a_reports, tracer, ledger);
  probe_store(sample, reports, config.work_dir + "/probe-store", false,
              tracer, ledger);
  probe_generate(4, config.nproc, tracer, ledger);

  outcome.metrics = per_layer_metrics(tracer, config.nproc, passes.untraced_s,
                                      passes.traced_s);
  ledger.check(tracer.write_json(config.trace_path),
               "cannot write " + config.trace_path);
  return outcome;
}

}  // namespace perfbench
