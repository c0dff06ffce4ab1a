#include "layers.hpp"

#include <algorithm>
#include <filesystem>
#include <optional>

#include "analysis/static_analyzer.hpp"
#include "gen/candidates.hpp"
#include "sim/fault_instance.hpp"
#include "sim/packed_engine.hpp"
#include "store/storage.hpp"

namespace perfbench {

using mtg::CoverageReport;
using mtg::SweepStore;

namespace {

std::string describe(const Point& point) {
  return point.test.name() + " x " + point.list->name + " n=" +
         std::to_string(point.n) + " cap=" + std::to_string(point.cap);
}

std::string record(const Point& point, const CoverageReport& report) {
  return SweepStore::encode_record(key_of(point), report);
}

double ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

// -- Compatibility with planned deletions -----------------------------------
// The ROADMAP may delete the service's instantiation cache, the
// pre-instantiated coverage context and the static serving tier.  These
// shims keep the benchmark compiling, unchanged, on both sides of such a
// change: the member-detecting overloads fall back to "absent", and the
// fallback static_coverage_report below is found by ordinary lookup while
// the library's own overload, found by argument-dependent lookup, wins
// overload resolution whenever it exists (a non-template beats a template).

template <class Stats>
auto misses_of(const Stats& stats, int)
    -> decltype(static_cast<double>(stats.instances_cache_misses)) {
  return static_cast<double>(stats.instances_cache_misses);
}
template <class Stats>
double misses_of(const Stats&, long) {
  return -1;
}

template <class Context>
auto set_instances(Context& context,
                   const std::vector<mtg::FaultInstance>* instances, int)
    -> decltype(void(context.instances = instances)) {
  context.instances = instances;
}
template <class Context>
void set_instances(Context&, const std::vector<mtg::FaultInstance>*, long) {}

}  // namespace

namespace fallback {
template <class... Args>
std::optional<CoverageReport> static_coverage_report(const Args&...) {
  return std::nullopt;
}
}  // namespace fallback

mtg::SweepKey key_of(const Point& point) {
  mtg::SweepKey key;
  key.test_hash = mtg::stable_hash(point.test);
  key.list_hash = mtg::stable_hash(*point.list);
  key.memory_size = point.n;
  key.max_instances_per_fault = point.cap;
  return key;
}

mtg::SimulatorOptions simulator_options(std::size_t n, std::size_t threads) {
  mtg::SimulatorOptions options;
  options.memory_size = n;
  options.coverage_threads = threads;
  return options;
}

mtg::GeneratorOptions generator_options(std::size_t threads) {
  mtg::GeneratorOptions options;
  options.gain_threads = threads;
  options.certify_threads = threads;
  return options;
}

bool verdicts_agree(const mtg::StaticCoverage& verdicts,
                    const CoverageReport& report, std::string* why) {
  if (verdicts.entries.size() != report.entries.size()) {
    *why = "analyzer has " + std::to_string(verdicts.entries.size()) +
           " faults, report " + std::to_string(report.entries.size());
    return false;
  }
  std::map<std::size_t, const mtg::CoverageEntry*> by_index;
  for (const mtg::CoverageEntry& entry : report.entries) {
    by_index[entry.fault_index] = &entry;
  }
  for (const mtg::StaticCoverageEntry& entry : verdicts.entries) {
    const auto it = by_index.find(entry.fault_index);
    if (it == by_index.end()) {
      *why = "fault " + entry.fault_name + " missing from the report";
      return false;
    }
    const bool detected = entry.verdict == mtg::StaticVerdict::Detected;
    if (entry.verdict != mtg::StaticVerdict::Unknown &&
        detected != it->second->covered) {
      *why = "fault " + entry.fault_name + ": analyzer says " +
             mtg::to_string(entry.verdict) + ", simulation says " +
             (it->second->covered ? "covered" : "not covered");
      return false;
    }
  }
  return true;
}

bool static_report(const Point& point, CoverageReport& out) {
  using fallback::static_coverage_report;
  std::optional<CoverageReport> served =
      static_coverage_report(point.test, *point.list, point.n, point.cap);
  if (!served) return false;
  out = std::move(*served);
  return true;
}

double instances_cache_misses(const mtg::MatrixServiceStats& stats) {
  return misses_of(stats, 0);
}

// -- Probes ------------------------------------------------------------------

std::vector<CoverageReport> probe_sim(const std::vector<Point>& points,
                                      std::size_t nproc, Tracer& tracer,
                                      Ledger& ledger) {
  std::vector<CoverageReport> reports;
  for (const Point& point : points) {
    const mtg::FaultSimulator serial(simulator_options(point.n, 1));
    const mtg::FaultSimulator parallel(simulator_options(point.n, nproc));
    mtg::CompiledTest compiled;
    std::vector<mtg::FaultInstance> instances;
    CoverageReport split;
    {
      auto span = tracer.span("sim.compile");
      compiled = mtg::compile_march_test(point.test);
    }
    {
      auto span = tracer.span("sim.instantiate");
      instances = mtg::instantiate_all(*point.list, point.n, point.cap);
    }
    {
      mtg::CoverageContext context;
      context.compiled = &compiled;
      set_instances(context, &instances, 0);
      auto span = tracer.span("sim.simulate");
      split = mtg::evaluate_coverage(serial, point.test, *point.list,
                                     point.cap, nullptr, &context);
    }
    tracer.add("sim.instances", static_cast<double>(instances.size()));
    tracer.add("sim.element_steps",
               static_cast<double>(instances.size() * point.test.size()));
    instances = std::vector<mtg::FaultInstance>();  // free before the next

    CoverageReport one, all;
    {
      auto span = tracer.span("sim.evaluate_1t");
      one = mtg::evaluate_coverage(serial, point.test, *point.list, point.cap);
    }
    {
      auto span = tracer.span("sim.evaluate_nt");
      all =
          mtg::evaluate_coverage(parallel, point.test, *point.list, point.cap);
    }
    const std::string bytes = record(point, one);
    ledger.check(record(point, split) == bytes && record(point, all) == bytes,
                 "sim probe: split, 1-thread and nproc-thread reports differ "
                 "for " + describe(point));
    reports.push_back(std::move(one));
  }
  return reports;
}

void probe_analyze(const std::vector<Point>& points,
                   const std::vector<CoverageReport>& reports, Tracer& tracer,
                   Ledger& ledger) {
  for (std::size_t i = 0; i < points.size(); ++i) {
    mtg::StaticCoverage verdicts;
    {
      auto span = tracer.span("analysis.analyze");
      verdicts =
          mtg::analyze_coverage(points[i].test, *points[i].list, points[i].n);
    }
    std::string why;
    ledger.check(verdicts_agree(verdicts, reports[i], &why),
                 "analyzer disagrees on " + describe(points[i]) + ": " + why);
  }
}

void probe_static_report(const std::vector<Point>& points,
                         const std::vector<CoverageReport>& reports,
                         Tracer& tracer, Ledger& ledger) {
  for (std::size_t i = 0; i < points.size(); ++i) {
    CoverageReport served;
    bool ok = false;
    {
      auto span = tracer.span("analysis.static_report");
      ok = static_report(points[i], served);
    }
    if (ok) {
      ledger.check(record(points[i], served) == record(points[i], reports[i]),
                   "static report differs from simulation for " +
                       describe(points[i]));
    }
  }
}

void probe_store(const std::vector<Point>& points,
                 const std::vector<CoverageReport>& reports,
                 const std::string& dir, bool count_stats, Tracer& tracer,
                 Ledger& ledger) {
  {
    mtg::PosixStorage storage;
    SweepStore store(storage, dir);
    ledger.check(store.open(), "store probe: cannot open " + dir);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const mtg::SweepKey key = key_of(points[i]);
      bool saved = false, loaded = false;
      CoverageReport back;
      {
        auto span = tracer.span("store.save");
        saved = store.save(key, reports[i]);
      }
      {
        auto span = tracer.span("store.load");
        loaded = store.load(key, back);
      }
      const std::string bytes = record(points[i], reports[i]);
      tracer.add("store.record_bytes", static_cast<double>(bytes.size()));
      tracer.add("store.records", 1);
      ledger.check(saved && loaded && record(points[i], back) == bytes,
                   "store probe: round trip failed for " + describe(points[i]));
    }
    if (count_stats) record_store(store.stats(), tracer);
  }
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
}

void probe_service(const std::vector<Point>& points,
                   const std::vector<CoverageReport>& reports,
                   std::size_t nproc, Tracer& tracer, Ledger& ledger) {
  mtg::MatrixServiceOptions options;
  options.threads = nproc;
  options.queue_capacity = 2 * nproc;
  options.when_full = mtg::BackpressurePolicy::Block;
  std::vector<mtg::MatrixJobResult> results;
  mtg::MatrixServiceStats stats;
  const Clock::time_point start = Clock::now();
  {
    auto span = tracer.span("service.batch");
    mtg::MatrixService service(options);
    for (const Point& point : points) {
      mtg::MatrixJob job;
      job.test = point.test;
      job.list = point.list;
      job.memory_size = point.n;
      job.max_instances_per_fault = point.cap;
      service.submit(std::move(job));
    }
    results = service.drain();
    stats = service.stats();
  }
  record_service(results, stats, seconds_since(start), nproc, tracer);
  ledger.check(results.size() == points.size(),
               "service probe: lost jobs");
  for (std::size_t i = 0; i < results.size() && i < points.size(); ++i) {
    ledger.check(results[i].status == mtg::JobStatus::Completed &&
                     record(points[i], results[i].report) ==
                         record(points[i], reports[i]),
                 "service probe: job differs from solo evaluation for " +
                     describe(points[i]));
  }
}

void probe_generate(std::size_t reps, std::size_t nproc, Tracer& tracer,
                    Ledger& ledger) {
  const mtg::FaultList list = mtg::fault_list_2();
  const mtg::GeneratorOptions options = generator_options(nproc);
  for (std::size_t r = 0; r < reps; ++r) {
    {
      auto span = tracer.span("gen.candidates");
      mtg::enumerate_march_elements(options.max_element_length,
                                    mtg::targets_retention(list));
    }
    mtg::GenerationResult result;
    {
      auto span = tracer.span("gen.generate");
      result = mtg::generate_march_test(list, options);
    }
    record_generation(result, tracer);
    ledger.check(result.full_coverage &&
                     result.test.to_string(/*ascii=*/true) == kList2Golden,
                 "generation probe: Fault List #2 test differs from golden");
  }
}

// -- Recording ---------------------------------------------------------------

void record_generation(const mtg::GenerationResult& result, Tracer& tracer) {
  const mtg::GenerationStats& s = result.stats;
  tracer.add("gen.calls", 1);
  tracer.add("gen.phase_a_s", s.phase_a_seconds);
  tracer.add("gen.cert_prep_s", s.cert_prep_seconds);
  tracer.add("gen.phase_b_s", s.phase_b_seconds);
  tracer.add("gen.phase_c_s", s.phase_c_seconds);
  tracer.add("gen.phase_b2_s", s.phase_b2_seconds);
  tracer.add("gen.greedy_rounds", static_cast<double>(s.greedy_rounds));
  tracer.add("gen.candidate_pool", static_cast<double>(s.candidate_pool));
  tracer.add("gen.certify_instances",
             static_cast<double>(s.certify_instances));
  tracer.add("gen.minimize_trials", static_cast<double>(s.minimize_trials));
  tracer.add("gen.minimize_element_replays",
             static_cast<double>(s.minimize_element_replays));
}

void record_service(const std::vector<mtg::MatrixJobResult>& results,
                    const mtg::MatrixServiceStats& stats, double wall_s,
                    std::size_t threads, Tracer& tracer) {
  for (const mtg::MatrixJobResult& result : results) {
    tracer.sample("service.queue_ms", result.queue_ms);
    tracer.add("service.run_ms", result.run_ms);
  }
  tracer.add("service.capacity_ms",
             static_cast<double>(threads) * wall_s * 1e3);
  tracer.add("service.batches", 1);
  tracer.add("service.compiled_cache_misses",
             static_cast<double>(stats.compiled_cache_misses));
  tracer.add("service.instances_cache_misses",
             std::max(0.0, instances_cache_misses(stats)));
  tracer.add("service.instance_evaluations",
             static_cast<double>(stats.instance_evaluations));
}

void record_store(const mtg::SweepStoreStats& stats, Tracer& tracer) {
  tracer.add("store.stores", 1);
  tracer.add("store.hits", static_cast<double>(stats.hits));
  tracer.add("store.saves", static_cast<double>(stats.saves));
  tracer.add("store.save_retries", static_cast<double>(stats.save_retries));
}

std::map<std::string, Metric> per_layer_metrics(const Tracer& t,
                                                std::size_t nproc,
                                                double untraced_s,
                                                double traced_s) {
  std::map<std::string, Metric> m;
  const auto put = [&m](const std::string& name, double value,
                        const char* unit) { m[name] = Metric{value, unit}; };

  const double compile_s = t.total_s("sim.compile");
  const double instantiate_s = t.total_s("sim.instantiate");
  const double simulate_s = t.total_s("sim.simulate");
  const double serial_s = t.total_s("sim.evaluate_1t");
  put("sim.compile_us", t.mean_s("sim.compile") * 1e6, "us");
  put("sim.instantiate_ms", instantiate_s * 1e3, "ms");
  put("sim.instances", t.counter("sim.instances"), "count");
  put("sim.simulate_ms", simulate_s * 1e3, "ms");
  put("sim.ns_per_element_step",
      ratio(simulate_s * 1e9, t.counter("sim.element_steps")), "ns");
  put("sim.evaluate_ms", serial_s * 1e3, "ms");
  put("sim.unaccounted_frac",
      1.0 - ratio(compile_s + instantiate_s + simulate_s, serial_s), "ratio");
  put("sim.parallel_efficiency",
      ratio(serial_s,
            static_cast<double>(nproc) * t.total_s("sim.evaluate_nt")),
      "ratio");

  const double calls = t.counter("gen.calls");
  double phases = 0;
  for (const char* phase : {"gen.phase_a_s", "gen.cert_prep_s",
                            "gen.phase_b_s", "gen.phase_c_s",
                            "gen.phase_b2_s"}) {
    phases += t.counter(phase);
    put(phase, ratio(t.counter(phase), calls), "s");
  }
  put("gen.unaccounted_frac", 1.0 - ratio(phases, t.total_s("gen.generate")),
      "ratio");
  for (const char* count :
       {"gen.greedy_rounds", "gen.candidate_pool", "gen.certify_instances",
        "gen.minimize_trials", "gen.minimize_element_replays"}) {
    put(count, ratio(t.counter(count), calls), "count");
  }
  put("gen.candidates_ms", t.mean_s("gen.candidates") * 1e3, "ms");

  put("analysis.analyze_ms", t.mean_s("analysis.analyze") * 1e3, "ms");
  put("analysis.static_report_ms", t.mean_s("analysis.static_report") * 1e3,
      "ms");

  const double stores = t.counter("store.stores");
  put("store.load_ms", t.mean_s("store.load") * 1e3, "ms");
  put("store.save_ms", t.mean_s("store.save") * 1e3, "ms");
  put("store.record_bytes",
      ratio(t.counter("store.record_bytes"), t.counter("store.records")),
      "bytes");
  put("store.hits", ratio(t.counter("store.hits"), stores), "count");
  put("store.saves", ratio(t.counter("store.saves"), stores), "count");
  put("store.save_retries", ratio(t.counter("store.save_retries"), stores),
      "count");

  const double batches = t.counter("service.batches");
  const std::vector<double>& queue_ms = t.samples("service.queue_ms");
  put("service.queue_ms_p50", quantile(queue_ms, 0.5), "ms");
  put("service.queue_ms_p90", quantile(queue_ms, 0.9), "ms");
  put("service.utilization",
      ratio(t.counter("service.run_ms"), t.counter("service.capacity_ms")),
      "ratio");
  for (const char* count :
       {"service.compiled_cache_misses", "service.instances_cache_misses",
        "service.instance_evaluations"}) {
    put(count, ratio(t.counter(count), batches), "count");
  }

  const double setups = static_cast<double>(t.count("setup"));
  put("format.parse_ms", ratio(t.total_s("format.parse"), setups) * 1e3, "ms");
  put("march.parse_us", t.mean_s("march.parse") * 1e6, "us");
  put("fp.list_build_ms", ratio(t.total_s("fp.list_build"), setups) * 1e3,
      "ms");

  put("trace.untraced_s", untraced_s, "s");
  put("trace.traced_s", traced_s, "s");
  put("trace.overhead_frac", ratio(traced_s, untraced_s) - 1.0, "ratio");
  put("trace.spans", static_cast<double>(t.span_count()), "count");
  return m;
}

}  // namespace perfbench
