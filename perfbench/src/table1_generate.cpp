// Workload table1_generate: the paper's Table 1 experiment.
//
// Each iteration generates a march test for Fault List #1, for Fault List #2
// and for one of eight seeded halves of List #1, which set-up writes as
// `faultlist v1` text and parses back.  The List #1 and #2 tests must equal
// the goldens; each seeded test must re-verify at 100% with an independent
// evaluate_coverage at the certification memory size.
//
// An operation is one generation.  With one of each per iteration, op_p50_ms
// falls among the seeded generations and op_p90_ms among the List #1 ones.
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "format/fault_list_text.hpp"
#include "gen/candidates.hpp"
#include "layers.hpp"
#include "march/parser.hpp"

namespace perfbench {
namespace {

using mtg::FaultList;
using mtg::GenerationResult;

constexpr std::size_t kSubLists = 8;

struct Inputs {
  std::shared_ptr<const FaultList> list1, list2;
  std::vector<std::shared_ptr<const FaultList>> subs;
  mtg::MarchTest golden1, golden2;
  bool round_trip = true;  ///< every parsed sub-list equals its original
};

struct Samples {
  std::vector<double> op_ms;         ///< every generation
  std::vector<double> faults_per_s;  ///< per iteration
  mtg::MarchTest seeded_test;  ///< the last seeded generation (probe input)
  std::size_t seeded_index = 0;
};

/// Seeded half of List #1: each fault is kept with probability 1/2.
FaultList seeded_half(const FaultList& list1, std::uint64_t seed,
                      std::size_t index) {
  Rng rng(seed, 100 + index);
  FaultList sub;
  sub.name = "List #1 seeded half " + std::to_string(index);
  for (const mtg::SimpleFault& fault : list1.simple) {
    if (rng.below(2) == 0) sub.simple.push_back(fault);
  }
  for (const mtg::LinkedFault& fault : list1.linked) {
    if (rng.below(2) == 0) sub.linked.push_back(fault);
  }
  return sub;
}

/// `faultlist v1` text of `list`, its display name included.
std::string fault_list_text(const FaultList& list) {
  const std::string header = "faultlist v1\n";
  const std::string canonical = mtg::to_canonical_string(list);
  return header + "name " + list.name + "\n" +
         canonical.substr(header.size());
}

Inputs make_inputs(std::uint64_t seed, Tracer& tracer) {
  auto setup = tracer.span("setup");
  Inputs in;
  {
    auto span = tracer.span("fp.list_build");
    in.list1 = std::make_shared<const FaultList>(mtg::fault_list_1());
  }
  {
    auto span = tracer.span("fp.list_build");
    in.list2 = std::make_shared<const FaultList>(mtg::fault_list_2());
  }
  for (std::size_t i = 0; i < kSubLists; ++i) {
    const FaultList sub = seeded_half(*in.list1, seed, i);
    const std::string text = fault_list_text(sub);
    FaultList parsed;
    {
      auto span = tracer.span("format.parse");
      parsed = mtg::parse_fault_list_text(
          text, "seeded-" + std::to_string(i) + ".faults");
    }
    in.round_trip = in.round_trip && parsed == sub && parsed.name == sub.name;
    in.subs.push_back(std::make_shared<const FaultList>(std::move(parsed)));
  }
  {
    auto span = tracer.span("march.parse");
    in.golden1 = mtg::parse_march_test(kList1Golden, "List #1 golden");
  }
  {
    auto span = tracer.span("march.parse");
    in.golden2 = mtg::parse_march_test(kList2Golden, "List #2 golden");
  }
  return in;
}

GenerationResult generate(const FaultList& list,
                          const mtg::GeneratorOptions& options, Tracer& tracer,
                          double& seconds) {
  const Clock::time_point start = Clock::now();
  GenerationResult result;
  {
    auto span = tracer.span("gen.generate");
    result = mtg::generate_march_test(list, options);
  }
  seconds = seconds_since(start);
  record_generation(result, tracer);
  return result;
}

void iterate(const Inputs& in, std::size_t i, const RunConfig& config,
             Tracer& tracer, Ledger& ledger, Samples& samples) {
  const mtg::GeneratorOptions options = generator_options(config.nproc);
  {
    auto span = tracer.span("gen.candidates");
    mtg::enumerate_march_elements(options.max_element_length,
                                  mtg::targets_retention(*in.list1));
  }

  double seconds = 0, busy_s = 0;
  const GenerationResult list1 = generate(*in.list1, options, tracer, seconds);
  samples.op_ms.push_back(seconds * 1e3);
  busy_s += seconds;
  ledger.op(list1.full_coverage && list1.test == in.golden1 &&
                list1.test.to_string(/*ascii=*/true) == kList1Golden,
            "List #1 generated " + list1.test.to_string(true));

  const GenerationResult list2 = generate(*in.list2, options, tracer, seconds);
  samples.op_ms.push_back(seconds * 1e3);
  busy_s += seconds;
  ledger.op(list2.full_coverage && list2.test == in.golden2 &&
                list2.test.to_string(true) == kList2Golden,
            "List #2 generated " + list2.test.to_string(true));

  const std::size_t index = i % kSubLists;
  const FaultList& sub = *in.subs[index];
  const GenerationResult seeded = generate(sub, options, tracer, seconds);
  samples.op_ms.push_back(seconds * 1e3);
  busy_s += seconds;
  samples.faults_per_s.push_back(
      static_cast<double>(in.list1->size() + in.list2->size() + sub.size()) /
      busy_s);
  mtg::CoverageReport verify;
  {
    auto span = tracer.span("sim.evaluate");
    verify = mtg::evaluate_coverage(
        mtg::FaultSimulator(simulator_options(options.certify_memory_size,
                                              config.nproc)),
        seeded.test, sub, options.max_instances_per_fault);
  }
  ledger.op(seeded.full_coverage && verify.full_coverage(),
            sub.name + ": generated test does not re-verify at 100%");
  samples.seeded_test = seeded.test;
  samples.seeded_index = index;
}

}  // namespace

Outcome run_table1_generate(const RunConfig& config) {
  Outcome outcome;
  Ledger& ledger = outcome.ledger;
  Tracer untraced(false);
  const auto setup = [&] { return make_inputs(config.seed, untraced); };
  std::vector<double> setup_s;
  const Inputs in = timed(setup_s, setup);
  ledger.check(in.round_trip, "seeded sub-lists do not round-trip as text");

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

  // Layers the generator does not reach from here: the generated tests go
  // through the simulator, analyzer, store and service at certify size.
  const std::size_t certify_n = mtg::GeneratorOptions().certify_memory_size;
  const std::vector<Point> points = {
      {in.golden1, in.list1, certify_n, 0},
      {in.golden2, in.list2, certify_n, 0},
      {samples.seeded_test, in.subs[samples.seeded_index], certify_n, 0},
  };
  const std::vector<mtg::CoverageReport> reports =
      probe_sim(points, config.nproc, tracer, ledger);
  probe_analyze(points, reports, tracer, ledger);
  probe_static_report(points, reports, tracer, ledger);
  probe_store(points, reports, config.work_dir + "/probe-store", true, tracer,
              ledger);
  probe_service(points, reports, config.nproc, tracer, ledger);

  outcome.metrics = per_layer_metrics(tracer, config.nproc, passes.untraced_s,
                                      passes.traced_s);
  ledger.check(tracer.write_json(config.trace_path),
               "cannot write " + config.trace_path);
  return outcome;
}

}  // namespace perfbench
