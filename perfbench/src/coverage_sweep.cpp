// Workload coverage_sweep: large-n coverage of catalog tests, the way
// `mtg_cli coverage` reports it.
//
// Set-up puts March SL first and the other catalog tests in a seeded order
// and writes that selection as `suite v1` text; it joins Fault List #1 and
// the address-decoder list into one list written as `faultlist v1` text;
// both are parsed back.  Iteration i takes the i-th test, calls
// sweep_coverage over n ∈ {64, 1024, 4096, 65536} with cap 256 and
// analyze_coverage at every point.  Every definite static verdict must agree
// with the simulated `covered` flag.  The decoder faults are there because
// their work grows with n, while the FP faults' work does not.
//
// An operation is one sweep_coverage call; joining the lists keeps the
// operations alike, so op_p50_ms and op_p90_ms describe one population.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "analysis/static_analyzer.hpp"
#include "bench.hpp"
#include "format/fault_list_text.hpp"
#include "format/suite_text.hpp"
#include "layers.hpp"
#include "march/catalog.hpp"
#include "march/parser.hpp"
#include "sim/sweep.hpp"

namespace perfbench {
namespace {

using mtg::FaultList;

constexpr std::size_t kCap = 256;
const std::vector<std::size_t> kSizes = {64, 1024, 4096, 65536};
/// The traced run's self-check: compile + instantiate + simulate must
/// account for at least this share of a 1-thread evaluate_coverage.
constexpr double kAccountedShare = 0.75;

struct Inputs {
  std::shared_ptr<const FaultList> faults;  ///< List #1 + decoder faults
  std::vector<mtg::MarchTest> tests;  ///< March SL first, then seeded order
  bool round_trip = true;
};

struct Samples {
  std::vector<double> op_ms;  ///< every sweep_coverage call
  /// Per iteration: per-fault verdicts over sweep + analyze wall time.
  std::vector<double> faults_per_s;
};

Inputs make_inputs(std::uint64_t seed, Tracer& tracer) {
  auto setup = tracer.span("setup");
  Inputs in;
  FaultList joined;
  {
    auto span = tracer.span("fp.list_build");
    joined = mtg::fault_list_1();
    joined.decoder = mtg::decoder_fault_list().decoder;
    joined.name = "Fault List #1 + address-decoder faults";
  }
  {
    const std::string header = "faultlist v1\n";
    const std::string text = header + "name " + joined.name + "\n" +
                             mtg::to_canonical_string(joined).substr(
                                 header.size());
    FaultList parsed;
    {
      auto span = tracer.span("format.parse");
      parsed = mtg::parse_fault_list_text(text, "joined.faults");
    }
    in.round_trip = parsed == joined && parsed.name == joined.name;
    in.faults = std::make_shared<const FaultList>(std::move(parsed));
  }
  mtg::MarchSuite selection;
  selection.tests = mtg::all_catalog_tests();
  const auto sl = std::find_if(
      selection.tests.begin(), selection.tests.end(),
      [](const mtg::MarchTest& test) { return test.name() == "March SL"; });
  std::iter_swap(selection.tests.begin(), sl);
  std::vector<mtg::MarchTest> rest(selection.tests.begin() + 1,
                                   selection.tests.end());
  Rng(seed, 1).shuffle(rest);
  std::copy(rest.begin(), rest.end(), selection.tests.begin() + 1);

  const std::string text = mtg::to_canonical_string(selection);
  mtg::MarchSuite parsed;
  {
    auto span = tracer.span("format.parse");
    parsed = mtg::parse_march_suite_text(text, "selection.suite");
  }
  in.round_trip = in.round_trip && parsed == selection;
  // The notation of each test, as `mtg_cli coverage "<notation>"` gets it.
  for (const mtg::MarchTest& test : parsed.tests) {
    mtg::MarchTest again;
    {
      auto span = tracer.span("march.parse");
      again = mtg::parse_march_test(test.to_canonical_string(), test.name());
    }
    in.round_trip = in.round_trip && again == test;
  }
  in.tests = std::move(parsed.tests);
  return in;
}

void iterate(const Inputs& in, std::size_t i, const RunConfig& config,
             Tracer& tracer, Ledger& ledger, Samples& samples) {
  const mtg::MarchTest& test = in.tests[i % in.tests.size()];
  const FaultList& list = *in.faults;
  mtg::SweepOptions options;
  options.max_instances_per_fault = kCap;
  options.threads = config.nproc;
  Clock::time_point start = Clock::now();
  std::vector<mtg::SweepPoint> points;
  {
    auto span = tracer.span("sim.sweep");
    points = mtg::sweep_coverage(test, list, kSizes, options);
  }
  const double sweep_s = seconds_since(start);
  std::vector<mtg::StaticCoverage> verdicts;
  start = Clock::now();
  for (const mtg::SweepPoint& point : points) {
    auto span = tracer.span("analysis.analyze");
    verdicts.push_back(mtg::analyze_coverage(test, list, point.memory_size));
  }
  const double busy_s = sweep_s + seconds_since(start);
  samples.op_ms.push_back(sweep_s * 1e3);

  bool ok = points.size() == kSizes.size();
  std::string why = ok ? "" : "wrong point count";
  double verdict_count = 0;
  for (std::size_t p = 0; ok && p < points.size(); ++p) {
    ok = !points[p].cancelled && points[p].memory_size == kSizes[p] &&
         verdicts_agree(verdicts[p], points[p].report, &why);
    verdict_count += static_cast<double>(points[p].report.faults_total());
  }
  ledger.op(ok, test.name() + ": " + why);
  samples.faults_per_s.push_back(verdict_count / busy_s);
}

}  // namespace

Outcome run_coverage_sweep(const RunConfig& config) {
  Outcome outcome;
  Ledger& ledger = outcome.ledger;
  Tracer untraced(false);
  const auto setup = [&] { return make_inputs(config.seed, untraced); };
  std::vector<double> setup_s;
  const Inputs in = timed(setup_s, setup);
  ledger.check(in.round_trip, "test selection does not round-trip as text");

  Samples samples;
  if (!config.trace) {
    repeat_for(config.seconds, 3, [&](std::size_t i) {
      iterate(in, i, config, untraced, ledger, samples);
      timed(setup_s, setup);
    });
    add_end_to_end_metrics(outcome, median(setup_s), samples.faults_per_s,
                           samples.op_ms);
    return outcome;
  }

  Tracer tracer(true);
  make_inputs(config.seed, tracer);
  const TracedPasses passes =
      traced_passes(config.seconds, tracer, [&](std::size_t i, Tracer& t) {
        iterate(in, i, config, t, ledger, samples);
      });

  // March SL's points, split into layers and served through the store and
  // the matrix service; a Fault List #2 generation stands in for the
  // generator, which this workload does not run.
  const mtg::MarchTest& sl = in.tests.front();
  const std::vector<Point> points = {{sl, in.faults, 4096, kCap},
                                     {sl, in.faults, 65536, kCap}};
  const std::vector<mtg::CoverageReport> reports =
      probe_sim(points, config.nproc, tracer, ledger);
  probe_static_report(points, reports, tracer, ledger);
  probe_store(points, reports, config.work_dir + "/probe-store", true, tracer,
              ledger);
  probe_service(points, reports, config.nproc, tracer, ledger);
  probe_generate(4, config.nproc, tracer, ledger);

  outcome.metrics = per_layer_metrics(tracer, config.nproc, passes.untraced_s,
                                      passes.traced_s);
  const double unaccounted = outcome.metrics["sim.unaccounted_frac"].value;
  ledger.check(unaccounted <= 1.0 - kAccountedShare,
               "compile + instantiate + simulate leave " +
                   std::to_string(unaccounted) +
                   " of evaluate_coverage unaccounted");
  ledger.check(tracer.write_json(config.trace_path),
               "cannot write " + config.trace_path);
  return outcome;
}

}  // namespace perfbench
