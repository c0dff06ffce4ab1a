#include "gen/generator.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <optional>
#include <set>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "gen/candidates.hpp"
#include "gen/minimizer.hpp"
#include "sim/fault_instance.hpp"
#include "sim/packed_engine.hpp"
#include "sim/prefix_sim.hpp"

namespace mtg {
namespace {

/// Greedy round bound (safety net; generation converges much earlier).
constexpr std::size_t kMaxRounds = 64;
/// Certification/extension iterations bound.
constexpr std::size_t kMaxCertifyIterations = 6;

/// The candidate pool with its compiled traces, and its batch words packed
/// lazily once per entry value.  A round's eligible candidates are the
/// ones compatible with the value the test leaves in memory (none, 0 or 1),
/// so phase A and every CEGIS extension round share at most three packings.
class CandidateSets {
 public:
  struct Eligible {
    std::vector<const MarchElement*> elements;  ///< in pool order
    std::vector<const ElementTrace*> traces;
    PrefixEngine::CandidateWords words;
  };

  explicit CandidateSets(const std::vector<MarchElement>& pool) : pool_(pool) {
    traces_.reserve(pool.size());
    for (const MarchElement& candidate : pool) {
      traces_.push_back(compile_element_trace(candidate));
    }
  }

  /// The candidates eligible after a test that leaves `entry` in memory.
  const Eligible& eligible(std::optional<Bit> entry) {
    std::optional<Eligible>& set =
        sets_[entry.has_value() ? 1 + (*entry == Bit::One ? 1 : 0) : 0];
    if (!set.has_value()) {
      set.emplace();
      for (std::size_t c = 0; c < pool_.size(); ++c) {
        if (auto required = pool_[c].required_entry_value()) {
          if (!entry.has_value() || *required != *entry) continue;
        }
        set->elements.push_back(&pool_[c]);
        set->traces.push_back(&traces_[c]);
      }
      set->words = PrefixEngine::pack_candidates(set->elements, set->traces);
    }
    return *set;
  }

 private:
  const std::vector<MarchElement>& pool_;
  std::vector<ElementTrace> traces_;
  std::array<std::optional<Eligible>, 3> sets_;
};

/// The greedy loop of Figure 5: append the best-scoring valid SO until the
/// engine's fault set is covered or no candidate helps.  Each round scores
/// every eligible candidate in one batched PrefixEngine::gain_scan on
/// `workers`; its pruning keeps the exact gain of every candidate that can
/// win or tie, and the reduction runs sequentially in pool order, so the
/// selected element — and hence the generated test — is identical for every
/// thread count.  Winners are committed on `workers` too.  Returns the fault
/// indices reported uncoverable (step d.i).
std::set<std::size_t> greedy_cover(PrefixEngine& engine,
                                   CandidateSets& candidates, MarchTest& test,
                                   ThreadPool& workers,
                                   GenerationStats& stats) {
  auto final_value = [&]() -> std::optional<Bit> {
    std::optional<Bit> value;
    for (const MarchElement& e : test.elements()) {
      if (auto v = e.final_value()) value = v;
    }
    return value;
  };

  std::optional<Bit> current_final = final_value();
  std::set<std::size_t> uncoverable;
  std::size_t stalls_in_a_row = 0;

  while (engine.undetected_instances() > 0 &&
         stats.greedy_rounds < kMaxRounds) {
    // Candidates compatible with the memory state the test leaves behind.
    const CandidateSets::Eligible& eligible =
        candidates.eligible(current_final);

    // Every candidate that can win or tie gets its exact gain (see
    // PrefixEngine::gain_scan), so the reduction below is schedule-invariant.
    const std::vector<std::size_t> gains =
        engine.gain_scan(eligible.words, &workers);

    // Deterministic reduction in pool order.
    const MarchElement* best = nullptr;
    const ElementTrace* best_trace = nullptr;
    std::size_t best_gain = 0;
    double best_score = 0.0;
    for (std::size_t i = 0; i < eligible.elements.size(); ++i) {
      const std::size_t g = gains[i];
      if (g == 0) continue;
      const MarchElement& candidate = *eligible.elements[i];
      const double score =
          static_cast<double>(g) / static_cast<double>(candidate.cost());
      const bool better =
          best == nullptr || score > best_score ||
          (score == best_score &&
           (g > best_gain ||
            (g == best_gain && candidate.cost() < best->cost())));
      if (better) {
        best = &candidate;
        best_trace = eligible.traces[i];
        best_gain = g;
        best_score = score;
      }
    }

    if (best == nullptr) {
      // No candidate helps from the current memory polarity.  Some faults
      // are only sensitizable from the complementary uniform value (e.g. a
      // non-transition w0 needs an all-0 memory), so bridge once by
      // flipping the polarity with a plain write element; report the faults
      // uncoverable (step d.i of Figure 5) only when bridging stalls too.
      if (stalls_in_a_row < 2 && current_final.has_value()) {
        const MarchElement bridge(AddressOrder::Up,
                                  {make_write(flip(*current_final))});
        test.append(bridge);
        engine.commit(bridge, compile_element_trace(bridge), &workers);
        current_final = flip(*current_final);
        ++stalls_in_a_row;
        ++stats.greedy_rounds;
        stats.log.push_back("stalled; bridging polarity with " +
                            bridge.to_string());
        continue;
      }
      uncoverable = engine.undetected_fault_indices();
      engine.exclude_faults(uncoverable);
      stats.log.push_back("stalled twice; reporting " +
                          std::to_string(uncoverable.size()) +
                          " faults uncoverable");
      break;
    }

    stalls_in_a_row = 0;
    test.append(*best);
    engine.commit(*best, *best_trace, &workers);
    if (auto v = best->final_value()) current_final = v;
    ++stats.greedy_rounds;
    stats.log.push_back("appended " + best->to_string() + " (gain " +
                        std::to_string(best_gain) + ", " +
                        std::to_string(engine.undetected_instances()) +
                        " instances left)");
  }
  return uncoverable;
}

}  // namespace

GenerationResult generate_march_test(const FaultList& list,
                                     const GeneratorOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  GenerationResult result;
  GenerationStats& stats = result.stats;
  auto last_lap = t0;
  const auto lap = [&](const char* phase, double* phase_seconds) {
    const auto now = std::chrono::steady_clock::now();
    if (phase_seconds != nullptr) {
      *phase_seconds = std::chrono::duration<double>(now - last_lap).count();
    }
    last_lap = now;
    stats.log.push_back(
        std::string(phase) + " done at t=" +
        std::to_string(std::chrono::duration<double>(now - t0).count()) +
        " s");
  };

  // The wait op only helps against retention faults; including it otherwise
  // would grow the candidate pool (and every gain scan) for nothing.
  const std::vector<MarchElement> pool = enumerate_march_elements(
      options.max_element_length, targets_retention(list));
  stats.candidate_pool = pool.size();
  CandidateSets candidates(pool);

  // Shared gain-scan pool; the calling thread participates in every scan.
  ThreadPool workers(ThreadPool::resolve_thread_count(options.gain_threads) -
                     1);
  // Certification pool: spreads the surviving certify-size instances over
  // worker threads (items are independent; all reductions run in instance
  // order, so the generated test is identical for every thread count).
  ThreadPool cert_workers(
      ThreadPool::resolve_thread_count(options.certify_threads) - 1);

  // Seed: the canonical initialization element ⇕(w0).
  MarchTest test("generated", {MarchElement(AddressOrder::Any, {Op::W0})});

  // -- Phase A: greedy cover on the working memory ----------------------
  std::set<std::size_t> uncoverable;
  {
    // Built inline on the calling thread, not on `workers`: on the pool its
    // item vectors land in the workers' glibc arenas, which keep freed
    // memory.  Measured with List #1/#2 generations alternating in one
    // process (4 threads, Release, 4-core host, three runs each): building
    // it on the pool raised max RSS after 150 pairs from 11.0–11.7 MB to
    // 13.8–14.6 MB, and List #1's phase A did not get measurably faster
    // (mean 15.8–17.7 ms on the pool, 16.5–18.6 ms inline).
    PrefixEngine engine(
        options.working_memory_size,
        behaviour_classes(list, options.working_memory_size,
                          options.max_instances_per_fault),
        test, /*record_checkpoints=*/false);
    stats.working_instances = engine.num_instances();
    stats.log.push_back("phase A: " +
                        std::to_string(engine.num_instances()) +
                        " instances at n=" +
                        std::to_string(options.working_memory_size));
    auto stalled = greedy_cover(engine, candidates, test, workers, stats);
    uncoverable.insert(stalled.begin(), stalled.end());
  }
  lap("phase A (greedy)", &stats.phase_a_seconds);

  // -- Phase B: incremental certification loop (CEGIS) ------------------
  // The persistent engine simulates one representative per certify-size
  // behaviour class, weighted by the instances it stands for, to the end of
  // the phase-A test exactly once (this prep is the unavoidable first
  // full-prefix simulation; checkpoints are recorded for phase C, which
  // runs its trials on this same engine).  Every later round only replays
  // elements appended since the previous sync, and instances detected under
  // every scenario are dropped permanently: march tests grow append-only
  // within the CEGIS loop and detection is sticky, so a dropped instance can
  // never escape again.
  //
  // The classes are built once and kept for the final report, which reads
  // the engine's verdicts instead of re-simulating them.
  std::vector<BehaviourClass> cert_classes = behaviour_classes(
      list, options.certify_memory_size, options.max_instances_per_fault);
  std::vector<std::uint8_t> instantiable(fault_count(list), 0);
  for (const BehaviourClass& cls : cert_classes) {
    stats.certify_instances += cls.weight;
    instantiable[cls.representative.fault_index] = 1;
  }
  // Phase C's trials bail out at the first surviving class, and rejected
  // removals dominate its cost: scan the binding constraints (the largest,
  // last-enumerated faults) first.  Phase B's results do not depend on the
  // item order, and the report's aggregation only needs each fault's
  // classes kept in order, which the stable sort does.
  std::stable_sort(cert_classes.begin(), cert_classes.end(),
                   [](const BehaviourClass& x, const BehaviourClass& y) {
                     return x.representative.fault_index >
                            y.representative.fault_index;
                   });
  // Faults with no instance at the certify size cannot be certified there
  // at all (e.g. a decoder fault on an address line the certify memory does
  // not have, 2^bit >= n): report them out of scope instead of letting the
  // final coverage report silently fail on them.
  for (std::size_t f = 0; f < instantiable.size(); ++f) {
    if (instantiable[f] == 0 && uncoverable.count(f) == 0) {
      uncoverable.insert(f);
      stats.log.push_back(
          "fault '" + fault_name(list, f) + "' has no instances at n=" +
          std::to_string(options.certify_memory_size) +
          "; out of certification scope");
    }
  }
  // Faults phase A already reported uncoverable are out of scope: the
  // engine starts at the empty test, excludes them, and only then pays the
  // full-prefix simulation of the rest.  Item i is cert_classes[i].
  PrefixEngine cert_engine(options.certify_memory_size, cert_classes,
                           MarchTest(), /*record_checkpoints=*/options.minimize,
                           &cert_workers);
  cert_engine.exclude_faults(uncoverable);
  cert_engine.advance(test, &cert_workers);
  lap("phase B prep (persistent certify state)", &stats.cert_prep_seconds);

  auto certify_and_extend = [&]() {
    for (std::size_t iter = 0; iter < kMaxCertifyIterations; ++iter) {
      // Replay the suffix appended since the last sync (a no-op on the
      // first round after prep) and scan the survivors.
      cert_engine.advance(test, &cert_workers);
      const std::size_t missed = cert_engine.undetected_instances();
      if (missed == 0) return;
      ++stats.certify_iterations;
      stats.log.push_back(
          "certification found " + std::to_string(missed) +
          " escaped instances at n=" +
          std::to_string(options.certify_memory_size) + " (" +
          std::to_string(cert_engine.dropped_instances()) +
          " instances dropped)");
      // Extend greedily from the persistent lane state: the scratch clone
      // holds exactly the escaped instances, already simulated to the end
      // of the test — no from-scratch rebuild.
      PrefixEngine scratch = cert_engine.clone_undetected();
      auto stalled =
          greedy_cover(scratch, candidates, test, workers, stats);
      uncoverable.insert(stalled.begin(), stalled.end());
      cert_engine.exclude_faults(uncoverable);
    }
  };
  certify_and_extend();
  lap("phase B (certification)", &stats.phase_b_seconds);

  // -- Phase C: redundancy elimination ----------------------------------
  stats.complexity_before_minimize = test.complexity();
  if (options.minimize) {
    MinimizeStats min_stats;
    test = minimize_test(test, cert_engine, &cert_workers, &stats.log,
                         &min_stats);
    stats.minimize_trials = min_stats.trials;
    stats.minimize_element_replays = min_stats.element_replays;
    lap("phase C (minimizer)", &stats.phase_c_seconds);
    // Re-certify the minimized test.  Every kept removal was proven on
    // cert_engine, which the minimizer leaves synced to its result, so after
    // a converged phase B this finds nothing.  When phase B stopped at
    // kMaxCertifyIterations with escapes, every trial failed and this pass
    // gives the extension more rounds.
    certify_and_extend();
    lap("phase B2 (re-certification)", &stats.phase_b2_seconds);
  }
  stats.instances_dropped = cert_engine.dropped_instances();

  // -- Final report ------------------------------------------------------
  // The engine has proved every class it tracks; phase B can stop at
  // kMaxCertifyIterations one greedy extension ahead of it, so sync first.
  // Only the classes it excluded (faults phase A or a CEGIS round reported
  // uncoverable) are simulated here.
  cert_engine.advance(test, &cert_workers);
  const FaultSimulator cert_sim(
      SimulatorOptions{options.certify_memory_size, /*coverage_threads=*/1});
  std::vector<std::uint8_t> detected(cert_classes.size(), 0);
  for (std::size_t i = 0; i < cert_classes.size(); ++i) {
    const PrefixEngine::Verdict verdict = cert_engine.verdict(i);
    detected[i] = verdict == PrefixEngine::Verdict::Excluded
                      ? cert_sim.detects(test, cert_classes[i].representative)
                      : verdict == PrefixEngine::Verdict::Detected;
  }
  result.certification = coverage_report(test, list, cert_classes, detected);
  result.full_coverage = true;
  for (const CoverageEntry& entry : result.certification.entries) {
    if (uncoverable.count(entry.fault_index) > 0) continue;
    if (!entry.covered) result.full_coverage = false;
  }
  for (std::size_t index : uncoverable) {
    result.uncoverable.push_back(fault_name(list, index));
  }
  test.set_name("Generated(" + list.name + ")");
  result.test = std::move(test);
  stats.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace mtg
