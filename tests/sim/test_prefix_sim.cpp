// Differential tests of the incremental prefix engine (sim/prefix_sim.hpp)
// against the from-scratch simulator: element-by-element advance, scenario
// lane expansion at mid-test ⇕ elements, checkpointed trials and rewinds,
// dropped items scoring like a fresh engine over the survivors (what an
// in-place CEGIS round relies on), weighted instance collapsing,
// thread-count invariance of the pooled sync, trials and appends, and the
// batched greedy gain scan (its words packed once and rescanned) against
// its per-candidate reference.
#include "sim/prefix_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "coverage_helpers.hpp"
#include "fp/fault_list.hpp"
#include "gen/candidates.hpp"
#include "march/catalog.hpp"
#include "march/parser.hpp"
#include "sim/simulator.hpp"

namespace mtg {
namespace {

MarchTest prefix_of(const MarchTest& test, std::size_t length) {
  return MarchTest(test.name() + "/prefix",
                   std::vector<MarchElement>(test.elements().begin(),
                                             test.elements().begin() +
                                                 static_cast<long>(length)));
}

/// Every candidate march element of length <= 4, with its compiled trace,
/// in gain_scan's input form.
struct ShortCandidates {
  ShortCandidates() {
    traces.reserve(pool.size());
    for (const MarchElement& element : pool) {
      elements.push_back(&element);
      traces.push_back(compile_element_trace(element));
    }
    for (const ElementTrace& trace : traces) trace_ptrs.push_back(&trace);
  }
  ShortCandidates(const ShortCandidates&) = delete;
  ShortCandidates& operator=(const ShortCandidates&) = delete;

  const std::vector<MarchElement> pool = enumerate_march_elements(4);
  std::vector<ElementTrace> traces;
  std::vector<const MarchElement*> elements;
  std::vector<const ElementTrace*> trace_ptrs;
};

/// Inline gain_scan of every candidate march element of length <= 4
/// against `engine`'s tracked state.
std::vector<std::size_t> pool_gains(const PrefixEngine& engine) {
  const ShortCandidates candidates;
  return engine.gain_scan(candidates.elements, candidates.trace_ptrs);
}

/// (undetected instance count, undetected fault indices) per the
/// from-scratch simulator — the oracle the engine must reproduce.
std::pair<std::size_t, std::set<std::size_t>> undetected_by_simulator(
    const FaultSimulator& simulator, const MarchTest& test,
    const std::vector<FaultInstance>& instances) {
  std::size_t count = 0;
  std::set<std::size_t> faults;
  for (const FaultInstance& instance : instances) {
    if (!simulator.detects(test, instance)) {
      ++count;
      faults.insert(instance.fault_index);
    }
  }
  return {count, faults};
}

/// A test with ⇕ elements mid-test, so advance() must expand scenario lanes
/// (each existing scenario splits into its ⇑ and ⇓ reading).
MarchTest any_heavy_test() {
  return parse_march_test(
      "{c(w0); ^(r0,w1); c(r1,w0); v(r0,w1); c(r1,w0); ^(r0)}", "any-heavy");
}

/// Seven ⇕ elements: its scenario count grows from 2 to 256 lanes (one to
/// four 64-lane blocks), so its checkpoints differ in block count.
MarchTest many_any_test() {
  return parse_march_test(
      "{c(w0); c(r0,w1); c(r1,w0); ^(r0,w1); c(r1,w0); c(r0,w1); v(r1,w0); "
      "c(r0,w1); c(r1)}",
      "many-any");
}

TEST(PrefixSim, AdvanceMatchesFromScratchAfterEveryElement) {
  const std::size_t n = 5;
  const FaultSimulator simulator(SimulatorOptions{n});
  for (const MarchTest& test :
       {march_abl1(), march_g(), any_heavy_test()}) {
    for (const FaultList& list :
         {fault_list_2(), retention_fault_list()}) {
      const auto instances = instantiate_all(list, n);
      PrefixEngine engine(n, instance_classes(instances), prefix_of(test, 1),
                          /*record_checkpoints=*/false);
      for (std::size_t len = 1; len <= test.elements().size(); ++len) {
        const MarchTest prefix = prefix_of(test, len);
        engine.advance(prefix);
        const auto expected =
            undetected_by_simulator(simulator, prefix, instances);
        EXPECT_EQ(engine.undetected_instances(), expected.first)
            << test.name() << " vs " << list.name << " at length " << len;
        EXPECT_EQ(engine.undetected_fault_indices(), expected.second)
            << test.name() << " vs " << list.name << " at length " << len;
      }
    }
  }
}

TEST(PrefixSim, TrialCoversMatchesFromScratchCoversAll) {
  const std::size_t n = 4;
  const FaultSimulator simulator(SimulatorOptions{n});
  for (const MarchTest& test :
       {march_abl1(), any_heavy_test(), many_any_test()}) {
    const auto instances = instantiate_all(fault_list_2(), n);
    PrefixEngine engine(n, instance_classes(instances), test,
                        /*record_checkpoints=*/true);

    // Drop-element trials at every position.
    for (std::size_t i = 0; i < test.elements().size(); ++i) {
      MarchTest trial = test;
      trial.elements().erase(trial.elements().begin() + static_cast<long>(i));
      EXPECT_EQ(engine.trial_covers(i, nullptr),
                detects_every(simulator, trial, instances))
          << test.name() << " drop element " << i;
    }

    // Drop-op trials at every position.
    for (std::size_t i = 0; i < test.elements().size(); ++i) {
      const MarchElement& element = test.elements()[i];
      if (element.ops().size() == 1) continue;
      for (std::size_t j = 0; j < element.ops().size(); ++j) {
        std::vector<Op> ops = element.ops();
        ops.erase(ops.begin() + static_cast<long>(j));
        const MarchElement replacement(element.order(), std::move(ops));
        MarchTest trial = test;
        trial.elements()[i] = replacement;
        EXPECT_EQ(engine.trial_covers(i, &replacement),
                  detects_every(simulator, trial, instances))
            << test.name() << " drop op " << j << " of element " << i;
      }
    }
  }
}

TEST(PrefixSim, RewindToEditedTestMatchesFromScratch) {
  const std::size_t n = 4;
  const FaultSimulator simulator(SimulatorOptions{n});
  for (const MarchTest& test : {any_heavy_test(), many_any_test()}) {
    const auto instances = instantiate_all(fault_list_2(), n);
    PrefixEngine engine(n, instance_classes(instances), test,
                        /*record_checkpoints=*/true);

    // Drop every element in turn (fresh engine state each time via rewind
    // back to the full test), including the ⇕ ones — the scenario space
    // shrinks and the tail's ⇕ ordinals shift down.
    for (std::size_t i = 0; i < test.elements().size(); ++i) {
      MarchTest edited = test;
      edited.elements().erase(edited.elements().begin() +
                              static_cast<long>(i));
      engine.advance(edited);
      const auto expected =
          undetected_by_simulator(simulator, edited, instances);
      EXPECT_EQ(engine.undetected_instances(), expected.first)
          << test.name() << " edit " << i;
      EXPECT_EQ(engine.undetected_fault_indices(), expected.second)
          << test.name() << " edit " << i;
      engine.advance(test);  // restore for the next round
      EXPECT_EQ(engine.undetected_instances(),
                undetected_by_simulator(simulator, test, instances).first)
          << test.name();
    }
  }
}

TEST(PrefixSim, ChainedRewindsMatchFromScratch) {
  // Edits stacked on one engine, each rewinding into checkpoint buffers the
  // previous ones truncated and re-recorded: removals of ⇕ and fixed-order
  // elements and of single ops, a cut to a bare prefix, a divergence at the
  // first element and regrowth to the full test.  After each, every item's
  // verdict must equal the simulator's, and the lane state a fresh engine's
  // (equal gains pin every undetected lane, so a restore that copies too
  // many or too few blocks fails even where the verdicts survive it).
  const std::size_t n = 4;
  const FaultSimulator simulator(SimulatorOptions{n});
  const MarchTest full = many_any_test();
  const std::vector<BehaviourClass> classes =
      behaviour_classes(fault_list_2(), n);
  const auto edit = [](MarchTest test, std::size_t element) {
    test.elements().erase(test.elements().begin() +
                          static_cast<long>(element));
    return test;
  };
  const auto drop_op = [](MarchTest test, std::size_t element,
                          std::size_t op) {
    std::vector<Op> ops = test.elements()[element].ops();
    ops.erase(ops.begin() + static_cast<long>(op));
    test.elements()[element] =
        MarchElement(test.elements()[element].order(), std::move(ops));
    return test;
  };
  std::vector<MarchTest> chain;
  chain.push_back(edit(full, 3));                 // ^(r0,w1)
  chain.push_back(edit(chain.back(), 4));         // c(r0,w1)
  chain.push_back(drop_op(chain.back(), 5, 0));   // c(r0,w1) -> c(w1)
  chain.push_back(edit(chain.back(), 1));         // c(r0,w1)
  chain.push_back(prefix_of(chain.back(), 3));
  chain.push_back(full);
  chain.push_back(edit(full, 0));                 // c(w0): diverges at 0
  chain.push_back(edit(edit(full, 8), 2));        // c(r1) and c(r1,w0)
  chain.push_back(full);

  const auto instances = instantiate_all(fault_list_2(), n);
  ThreadPool workers(3);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &workers}) {
    PrefixEngine engine(n, classes, full, /*record_checkpoints=*/true, pool);
    for (std::size_t step = 0; step < chain.size(); ++step) {
      const MarchTest& test = chain[step];
      engine.advance(test, pool);
      const PrefixEngine fresh(n, classes, test, /*record_checkpoints=*/false);
      EXPECT_EQ(pool_gains(engine), pool_gains(fresh)) << "step " << step;
      for (std::size_t i = 0; i < classes.size(); ++i) {
        EXPECT_EQ(engine.verdict(i) == PrefixEngine::Verdict::Detected,
                  simulator.detects(test, classes[i].representative))
            << "step " << step << " " << test.to_string(true) << " class "
            << classes[i].representative.description;
      }
      // Trials read the re-recorded checkpoints.
      for (std::size_t e = 0; e < test.elements().size(); ++e) {
        EXPECT_EQ(engine.trial_covers(e, nullptr, pool),
                  detects_every(simulator, edit(test, e), instances))
            << "step " << step << " drop element " << e;
      }
    }
  }
}

TEST(PrefixSim, DroppedItemsScoreLikeAFreshEngineOverMissedInstances) {
  // A CEGIS round extends the certification engine in place: its dropped
  // items must neither score nor count, so the engine must behave like one
  // built over the missed instances alone.
  const std::size_t n = 4;
  const FaultSimulator simulator(SimulatorOptions{n});
  // A prefix that covers only part of the list, so some instances survive.
  const MarchTest prefix =
      parse_march_test("{c(w0); ^(r0,w1,r1)}", "partial");
  const auto instances = instantiate_all(fault_list_2(), n);
  PrefixEngine engine(n, instance_classes(instances), prefix,
                      /*record_checkpoints=*/false);
  ASSERT_GT(engine.undetected_instances(), 0u);

  std::vector<FaultInstance> missed;
  for (const FaultInstance& instance : instances) {
    if (!simulator.detects(prefix, instance)) missed.push_back(instance);
  }
  ASSERT_EQ(engine.undetected_instances(), missed.size());

  PrefixEngine fresh(n, instance_classes(missed), prefix,
                     /*record_checkpoints=*/false);
  EXPECT_EQ(engine.undetected_instances(), fresh.undetected_instances());
  // Every undetected lane's state feeds the pool's gains, so equal gains
  // pin the live lane state, not just its counts.
  EXPECT_EQ(pool_gains(engine), pool_gains(fresh));
  EXPECT_EQ(engine.undetected_fault_indices(),
            fresh.undetected_fault_indices());

  // Candidate gains agree — the greedy extension sees the same scores
  // whether it runs in place or on a from-scratch rebuild.  One
  // candidate per scan leaves nothing to prune against, so every gain is
  // exact; the batched scan's winner must agree too.
  std::vector<MarchTest> ones;
  for (const char* notation : {"^(r0)", "v(r1)", "^(r0,w1,r1)", "v(r1,w0,r0)",
                               "^(w1,r1)", "v(w0,r0)"}) {
    ones.push_back(parse_march_test(std::string("{") + notation + "}",
                                    "candidate"));
  }
  std::vector<const MarchElement*> candidates;
  std::vector<ElementTrace> traces;
  for (const MarchTest& one : ones) {
    candidates.push_back(&one.elements()[0]);
    traces.push_back(compile_element_trace(one.elements()[0]));
  }
  std::vector<const ElementTrace*> trace_ptrs;
  for (const ElementTrace& trace : traces) trace_ptrs.push_back(&trace);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(engine.gain_scan({candidates[i]}, {trace_ptrs[i]}),
              fresh.gain_scan({candidates[i]}, {trace_ptrs[i]}))
        << candidates[i]->to_string();
  }
  const std::vector<std::size_t> engine_gains =
      engine.gain_scan(candidates, trace_ptrs);
  const std::vector<std::size_t> fresh_gains =
      fresh.gain_scan(candidates, trace_ptrs);
  std::size_t best = 0;
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    if (engine_gains[i] * candidates[best]->cost() >
        engine_gains[best] * candidates[i]->cost()) {
      best = i;
    }
  }
  EXPECT_EQ(engine_gains[best], fresh_gains[best]);

  // Appending the same elements keeps them in step, and the in-place
  // engine stays exact over the whole instance set.
  MarchTest extended = prefix;
  for (const char* notation : {"^(r1,w0)", "v(r0,w1,r1)"}) {
    extended.append(parse_march_test(std::string("{") + notation + "}",
                                     "append")
                        .elements()[0]);
    engine.advance(extended);
    fresh.advance(extended);
    EXPECT_EQ(engine.undetected_instances(), fresh.undetected_instances())
        << notation;
    EXPECT_EQ(pool_gains(engine), pool_gains(fresh)) << notation;
    EXPECT_EQ(engine.undetected_instances(),
              undetected_by_simulator(simulator, extended, instances).first)
        << notation;
  }
}

/// Candidates for the gain-scan reference: a spread of the length-6 pool
/// with waits (both directions, `t`-bearing elements) plus the ⇕ reading of
/// every fifth pick.
std::vector<MarchElement> gain_scan_candidates() {
  const std::vector<MarchElement> pool =
      enumerate_march_elements(6, /*include_wait=*/true);
  std::vector<MarchElement> out;
  for (std::size_t c = 0; c < pool.size(); c += 251) out.push_back(pool[c]);
  const std::size_t picked = out.size();
  for (std::size_t c = 0; c < picked; c += 5) {
    out.emplace_back(AddressOrder::Any, out[c].ops());
  }
  return out;
}

TEST(PrefixSim, GainScanMatchesPerCandidateReference) {
  const std::vector<MarchElement> candidates = gain_scan_candidates();
  std::vector<ElementTrace> traces;
  for (const MarchElement& c : candidates) {
    traces.push_back(compile_element_trace(c));
  }
  // Odd counts per direction leave the last batch word partly filled for
  // every S < 64; waits and ⇕ readings are present.
  std::size_t down = 0;
  std::size_t any = 0;
  std::size_t waits = 0;
  for (const MarchElement& c : candidates) {
    down += c.order() == AddressOrder::Down ? 1 : 0;
    any += c.order() == AddressOrder::Any ? 1 : 0;
    waits += std::count(c.ops().begin(), c.ops().end(), Op::T) > 0 ? 1 : 0;
  }
  ASSERT_EQ(down % 2, 1u);
  ASSERT_EQ((candidates.size() - down) % 2, 1u);
  ASSERT_GT(any, 0u);
  ASSERT_GT(waits, 0u);

  // S = 2 · 2^⇕ scenario lanes per item: 32, 16 and 1 candidates a word.
  const char* const prefixes[] = {
      "{^(w0); ^(r0,w1)}",                            // S = 2
      "{c(w0); ^(r0,w1)}",                            // S = 4
      "{c(w0); c(w1); c(w0); c(w1); c(w0); c(w1)}",  // S = 128
  };
  // The reference simulates every instance, so List #1 (50,904 instances
  // at n = 6) is sampled there, two layouts per fault; cap 0 = all.
  const std::pair<FaultList, std::size_t> lists[] = {
      {fault_list_1(), 2},
      {fault_list_2(), 0},
      {retention_fault_list(), 0},
      {decoder_fault_list(3), 0}};
  ThreadPool threads(3);
  for (const auto& [list, cap_at_6] : lists) {
    for (const std::size_t n : {std::size_t{3}, std::size_t{6}}) {
      const auto instances = instantiate_all(list, n, n == 6 ? cap_at_6 : 0);
      for (const char* notation : prefixes) {
        const MarchTest prefix = parse_march_test(notation, "prefix");
        const std::string where =
            list.name + " n=" + std::to_string(n) + " " + notation;
        const std::vector<std::size_t> reference =
            reference_gains(instances, prefix, candidates);
        const PrefixEngine engine(n, instance_classes(instances), prefix,
                                  /*record_checkpoints=*/false);

        // One candidate per scan: nothing to prune against, every gain exact.
        for (std::size_t i = 0; i < candidates.size(); ++i) {
          EXPECT_EQ(engine.gain_scan({&candidates[i]}, {&traces[i]}),
                    std::vector<std::size_t>{reference[i]})
              << where << " " << candidates[i].to_string();
        }

        // The generator's engine is built from behaviour classes, never
        // materializing the other instances; its weighted gains are the same.
        const PrefixEngine from_classes(
            n, behaviour_classes(list, n, n == 6 ? cap_at_6 : 0), prefix,
            /*record_checkpoints=*/false);
        for (std::size_t i = 0; i < candidates.size(); ++i) {
          EXPECT_EQ(from_classes.gain_scan({&candidates[i]}, {&traces[i]}),
                    std::vector<std::size_t>{reference[i]})
              << where << " (classes) " << candidates[i].to_string();
        }

        // The whole set, in input order and reversed, inline and threaded:
        // pruned candidates report a lower bound, every candidate that ties
        // the best score its exact gain.
        double best = 0.0;
        for (std::size_t i = 0; i < candidates.size(); ++i) {
          best = std::max(best, static_cast<double>(reference[i]) /
                                    static_cast<double>(candidates[i].cost()));
        }
        for (const bool reversed : {false, true}) {
          std::vector<std::size_t> order(candidates.size());
          std::iota(order.begin(), order.end(), std::size_t{0});
          if (reversed) std::reverse(order.begin(), order.end());
          std::vector<const MarchElement*> all;
          std::vector<const ElementTrace*> all_traces;
          for (const std::size_t i : order) {
            all.push_back(&candidates[i]);
            all_traces.push_back(&traces[i]);
          }
          for (ThreadPool* pool :
               {static_cast<ThreadPool*>(nullptr), &threads}) {
            const std::vector<std::size_t> gains =
                engine.gain_scan(all, all_traces, pool);
            for (std::size_t k = 0; k < order.size(); ++k) {
              const std::size_t i = order[k];
              EXPECT_LE(gains[k], reference[i]) << where << " " << i;
              if (static_cast<double>(reference[i]) /
                      static_cast<double>(candidates[i].cost()) >=
                  best) {
                EXPECT_EQ(gains[k], reference[i])
                    << where << " " << i << (reversed ? " reversed" : "");
              }
            }
          }
        }

        // Each (direction, cost) class alone, ascending by score, scanned
        // inline: the scan packs a class into words in input order, so
        // every word holds a score at least as high as the bound the words
        // before it set; nothing is pruned and every packed lane range
        // reports its exact gain.  The classes partition the candidates, so
        // every candidate's gain is checked.
        std::map<std::pair<bool, std::size_t>, std::vector<std::size_t>>
            classes;
        for (std::size_t i = 0; i < candidates.size(); ++i) {
          classes[{candidates[i].order() == AddressOrder::Down,
                   candidates[i].cost()}]
              .push_back(i);
        }
        std::vector<std::size_t> checked;
        for (auto& [key, order] : classes) {
          std::stable_sort(order.begin(), order.end(),
                           [&](std::size_t x, std::size_t y) {
                             return reference[x] < reference[y];
                           });
          std::vector<const MarchElement*> sorted;
          std::vector<const ElementTrace*> sorted_traces;
          for (const std::size_t i : order) {
            sorted.push_back(&candidates[i]);
            sorted_traces.push_back(&traces[i]);
          }
          const std::vector<std::size_t> gains =
              engine.gain_scan(sorted, sorted_traces);
          for (std::size_t k = 0; k < order.size(); ++k) {
            EXPECT_EQ(gains[k], reference[order[k]])
                << where << " " << candidates[order[k]].to_string();
          }
          checked.insert(checked.end(), order.begin(), order.end());
        }
        std::sort(checked.begin(), checked.end());
        std::vector<std::size_t> every(candidates.size());
        std::iota(every.begin(), every.end(), std::size_t{0});
        EXPECT_EQ(checked, every) << where;
      }
    }
  }
}

/// What the undetected lanes of each instance hold after a prefix, per
/// instance and over every 64-lane block: how many distinct lane states
/// (uniform, val, armed) there are, whether some state is held by several
/// lanes, and which fields two of the states differ in.
struct LaneStateCensus {
  std::size_t most_states = 0;  ///< the most distinct states of one instance
  bool shared_state = false;    ///< some state is held by two lanes or more
  /// only_val_differs[s]: two states of one instance differ in val[s] alone.
  std::array<bool, PackedFaultSim::kMaxSlots> only_val_differs{};
  bool only_armed_differs = false;  ///< two states differ in armed alone
};

LaneStateCensus lane_state_census(const std::vector<FaultInstance>& instances,
                                  const MarchTest& prefix) {
  // A state packed as uniform | val[s] << 1 + s | armed[f] << 1 + 8 + f.
  constexpr std::uint32_t kValBits = ((1u << PackedFaultSim::kMaxSlots) - 1)
                                     << 1;
  const CompiledTest compiled = compile_march_test(prefix);
  const std::size_t combos = std::size_t{1} << compiled.any_count;
  LaneStateCensus census;
  for (const FaultInstance& instance : instances) {
    const PackedFaultSim sim(instance);
    std::map<std::uint32_t, std::size_t> states;
    for (std::size_t base = 0; base < 2 * combos; base += 64) {
      PackedFaultSim::Lanes block;
      sim.power_on_block(block, base, combos);
      for (std::size_t e = 0; e < prefix.elements().size(); ++e) {
        const MarchElement& element = prefix.elements()[e];
        sim.run_element(block, element, compiled.traces[e],
                        element_down_word(element, compiled.any_ordinal[e],
                                          base, combos));
      }
      for (std::uint64_t lanes = block.active & ~block.detected; lanes != 0;
           lanes &= lanes - 1) {
        const int l = __builtin_ctzll(lanes);
        std::uint32_t state = (block.uniform >> l) & 1u;
        for (std::size_t s = 0; s < PackedFaultSim::kMaxSlots; ++s) {
          state |= static_cast<std::uint32_t>((block.val[s] >> l) & 1u)
                   << (1 + s);
        }
        for (std::size_t f = 0; f < PackedFaultSim::kMaxFps; ++f) {
          state |= static_cast<std::uint32_t>((block.armed[f] >> l) & 1u)
                   << (1 + PackedFaultSim::kMaxSlots + f);
        }
        ++states[state];
      }
    }
    census.most_states = std::max(census.most_states, states.size());
    for (const auto& [x, lanes] : states) {
      census.shared_state = census.shared_state || lanes > 1;
      for (const auto& [y, unused] : states) {
        const std::uint32_t diff = x ^ y;
        if (diff == 0) continue;
        if ((diff & ~kValBits) == 0 && (diff & (diff - 1)) == 0) {
          census.only_val_differs[__builtin_ctz(diff) - 1] = true;
        }
        if ((diff & (kValBits | 1u)) == 0) census.only_armed_differs = true;
      }
    }
  }
  return census;
}

TEST(PrefixSim, GainScanScoresEachDistinctLaneStateOnce) {
  // gain_scan replays each distinct undetected lane state of an item once,
  // weighted by the lanes holding it.  These prefixes leave one instance's
  // lanes in several states: no initializing write (the power-on content is
  // still in the cells), ⇕ elements whose two orders leave two-cell faults
  // apart, and waits against the retention list's state faults.  Every
  // candidate's gain, scanned alone, must equal the per-instance,
  // per-lane reference; scanned together, every candidate that can win or
  // tie must keep its exact gain.
  const std::vector<MarchElement> candidates = gain_scan_candidates();
  std::vector<ElementTrace> traces;
  std::vector<const MarchElement*> all;
  std::vector<const ElementTrace*> all_traces;
  for (const MarchElement& c : candidates) {
    traces.push_back(compile_element_trace(c));
  }
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    all.push_back(&candidates[i]);
    all_traces.push_back(&traces[i]);
  }
  const char* const prefixes[] = {
      "{c(r0)}",                       // power-on content, S = 4
      "{c(r0,w1); c(r1)}",             // S = 8
      "{c(w0); c(r0,w1); v(r1,w0)}",   // ⇕ orders apart, S = 8
      "{c(t); c(r0,t,w1); c(t,r1)}",   // waits, S = 16
  };
  const FaultList lists[] = {fault_list_1(), fault_list_2(),
                             standard_simple_static_faults(),
                             retention_fault_list()};
  ThreadPool threads(3);
  LaneStateCensus seen;
  for (const FaultList& list : lists) {
    // List #1 runs at n = 3 only: its three-cell faults fill every slot
    // there already, and n = 4 would more than double this test's time.
    for (const std::size_t n : {std::size_t{3}, std::size_t{4}}) {
      if (n == 4 && list.name == fault_list_1().name) continue;
      const auto instances = instantiate_all(list, n);
      for (const char* notation : prefixes) {
        const MarchTest prefix = parse_march_test(notation, "prefix");
        const std::string where =
            list.name + " n=" + std::to_string(n) + " " + notation;
        const LaneStateCensus census = lane_state_census(instances, prefix);
        seen.most_states = std::max(seen.most_states, census.most_states);
        seen.shared_state = seen.shared_state || census.shared_state;
        for (std::size_t s = 0; s < PackedFaultSim::kMaxSlots; ++s) {
          seen.only_val_differs[s] =
              seen.only_val_differs[s] || census.only_val_differs[s];
        }
        // Every reachable lane holds armed[f] = "state fault f's condition
        // is false" (settle then re-arm after every operation), so armed is
        // a function of val: no two lanes differ in armed alone.
        EXPECT_FALSE(census.only_armed_differs) << where;

        const std::vector<std::size_t> reference =
            reference_gains(instances, prefix, candidates);
        const PrefixEngine engine(n, behaviour_classes(list, n), prefix,
                                  /*record_checkpoints=*/false);
        for (std::size_t i = 0; i < candidates.size(); ++i) {
          EXPECT_EQ(engine.gain_scan({all[i]}, {all_traces[i]}),
                    std::vector<std::size_t>{reference[i]})
              << where << " " << candidates[i].to_string();
        }
        double best = 0.0;
        for (std::size_t i = 0; i < candidates.size(); ++i) {
          best = std::max(best, static_cast<double>(reference[i]) /
                                    static_cast<double>(candidates[i].cost()));
        }
        for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &threads}) {
          const std::vector<std::size_t> gains =
              engine.gain_scan(all, all_traces, pool);
          for (std::size_t i = 0; i < candidates.size(); ++i) {
            EXPECT_LE(gains[i], reference[i]) << where << " " << i;
            if (static_cast<double>(reference[i]) /
                    static_cast<double>(candidates[i].cost()) >=
                best) {
              EXPECT_EQ(gains[i], reference[i]) << where << " " << i;
            }
          }
        }
      }
    }
  }
  // The prefixes reach what the collapse must get right: several states per
  // instance, states shared by several lanes, and states apart in one cell
  // (each of the three slots a fault of these lists involves).
  EXPECT_GE(seen.most_states, 3u);
  EXPECT_TRUE(seen.shared_state);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_TRUE(seen.only_val_differs[s]) << "slot " << s;
  }
}

TEST(PrefixSim, CollapsesEquivalentLayoutsExactly) {
  const std::size_t n = 6;
  const auto instances = instantiate_all(fault_list_2(), n);
  const MarchTest test = march_abl1();
  PrefixEngine engine(n, behaviour_classes(fault_list_2(), n), test,
                      /*record_checkpoints=*/false);
  // Weighted totals see every instance; the simulated representatives are
  // the distinct (fault, relative layout order) classes — far fewer.
  EXPECT_EQ(engine.num_instances(), instances.size());
  EXPECT_LT(engine.num_representatives(), instances.size() / 2);
  // Weighted undetected counts equal the per-instance oracle.
  const FaultSimulator simulator(SimulatorOptions{n});
  const MarchTest partial = prefix_of(test, 2);
  PrefixEngine partial_engine(n, behaviour_classes(fault_list_2(), n), partial,
                              /*record_checkpoints=*/false);
  EXPECT_EQ(partial_engine.undetected_instances(),
            undetected_by_simulator(simulator, partial, instances).first);
}

TEST(PrefixSim, ParallelSyncMatchesSequential) {
  const std::size_t n = 5;
  const auto instances = instantiate_all(fault_list_2(), n);
  const MarchTest test = any_heavy_test();
  ThreadPool pool(3);

  PrefixEngine sequential(n, instance_classes(instances), prefix_of(test, 2),
                          /*record_checkpoints=*/true);
  PrefixEngine parallel(n, instance_classes(instances), prefix_of(test, 2),
                        /*record_checkpoints=*/true, &pool);
  EXPECT_EQ(sequential.undetected_instances(),
            parallel.undetected_instances());

  sequential.advance(test);
  parallel.advance(test, &pool);
  EXPECT_EQ(sequential.undetected_instances(), parallel.undetected_instances());
  EXPECT_EQ(pool_gains(sequential), pool_gains(parallel));
  EXPECT_EQ(sequential.undetected_fault_indices(),
            parallel.undetected_fault_indices());

  // Trial verdicts agree after the parallel sync.
  for (std::size_t i = 0; i < test.elements().size(); ++i) {
    EXPECT_EQ(sequential.trial_covers(i, nullptr),
              parallel.trial_covers(i, nullptr))
        << "edit " << i;
  }
}

TEST(PrefixSim, ParallelTrialsMatchInline) {
  // Every drop-element and drop-op trial on a pool must give the inline
  // verdict and count the inline element replays (only the items up to the
  // first escape), and leave the engine's tracked state untouched.
  const FaultList lists[] = {fault_list_2(), standard_simple_static_faults(),
                             retention_fault_list(), decoder_fault_list()};
  const MarchTest tests[] = {
      march_sl(),
      parse_march_test(
          "{c(w0); c(w0,r0,r0,w1); c(w1,r1,r1,w0); c(r0,w1); c(r1,w0)}",
          "padded"),
      parse_march_test(
          "{c(w0); ^(w1,t); ^(t,r1,w0); ^(t,r0,w1); ^(w0,t,r0); ^(r0,t,r0)}",
          "padded-waits"),
  };
  ThreadPool pool(3);
  std::size_t covered = 0;
  std::size_t escaped = 0;
  for (const FaultList& list : lists) {
    for (const std::size_t n : {std::size_t{4}, std::size_t{6}}) {
      for (const MarchTest& test : tests) {
        const std::string where =
            list.name + " n=" + std::to_string(n) + " " + test.name();
        const auto classes = behaviour_classes(list, n);
        PrefixEngine inline_engine(n, classes, test,
                                   /*record_checkpoints=*/true);
        PrefixEngine pooled(n, classes, test, /*record_checkpoints=*/true,
                            &pool);
        const std::vector<std::size_t> gains_before = pool_gains(pooled);
        const std::size_t undetected_before = pooled.undetected_instances();

        const auto expect_same_trial = [&](std::size_t edit,
                                           const MarchElement* replacement,
                                           const std::string& trial) {
          const std::size_t inline_before =
              inline_engine.element_replays();
          const std::size_t pooled_before = pooled.element_replays();
          const bool verdict = inline_engine.trial_covers(edit, replacement);
          EXPECT_EQ(pooled.trial_covers(edit, replacement, &pool), verdict)
              << where << " " << trial;
          EXPECT_EQ(pooled.element_replays() - pooled_before,
                    inline_engine.element_replays() - inline_before)
              << where << " " << trial;
          (verdict ? covered : escaped) += 1;
        };
        for (std::size_t i = 0; i < test.elements().size(); ++i) {
          const MarchElement& element = test.elements()[i];
          expect_same_trial(i, nullptr, "drop element " + std::to_string(i));
          if (element.ops().size() == 1) continue;
          for (std::size_t j = 0; j < element.ops().size(); ++j) {
            std::vector<Op> ops = element.ops();
            ops.erase(ops.begin() + static_cast<long>(j));
            const MarchElement replacement(element.order(), std::move(ops));
            expect_same_trial(i, &replacement,
                              "drop op " + std::to_string(j) + " of " +
                                  std::to_string(i));
          }
        }
        EXPECT_EQ(pool_gains(pooled), gains_before) << where;
        EXPECT_EQ(pooled.undetected_instances(), undetected_before) << where;
      }
    }
  }
  // Both verdicts occur, so both the bail-out and the full scan ran.
  EXPECT_GT(covered, 0u);
  EXPECT_GT(escaped, 0u);
}

/// The elements of List #1's generated test after its ⇕(w0) seed.
std::vector<MarchElement> append_sequence() {
  return parse_march_test(
             "{^(r0,w1,r1); ^(r1,w0,r0); ^(r0); v(r0,w1,w1,r1); "
             "v(r1,w1,r1,w0); ^(r0); c(w0); ^(r0,w0,r0,r0,w1); "
             "^(r1,w0,w0,w1); ^(r1); v(r1,w0,r0,w1); ^(r1)}",
             "sequence")
      .elements();
}

TEST(PrefixSim, ParallelAppendMatchesInline) {
  // advance() on a pool replays each item in place; after every appended
  // element (the mid-sequence ⇕ one expands the lanes) the lane state must
  // equal the inline append's.
  const std::size_t n = 3;
  const MarchTest seed = parse_march_test("{c(w0)}", "seed");
  ThreadPool pool(3);
  for (const FaultList& list : {fault_list_1(), fault_list_2()}) {
    const auto classes = behaviour_classes(list, n);
    PrefixEngine inline_engine(n, classes, seed, /*record_checkpoints=*/false);
    PrefixEngine pooled(n, classes, seed, /*record_checkpoints=*/false);
    MarchTest appended = seed;
    for (const MarchElement& element : append_sequence()) {
      appended.append(element);
      inline_engine.advance(appended);
      pooled.advance(appended, &pool);
      const std::string where = list.name + " " + element.to_string();
      EXPECT_EQ(pooled.undetected_instances(),
                inline_engine.undetected_instances())
          << where;
      EXPECT_EQ(pooled.undetected_fault_indices(),
                inline_engine.undetected_fault_indices())
          << where;
      EXPECT_EQ(pool_gains(pooled), pool_gains(inline_engine)) << where;
    }
  }
}

TEST(PrefixSim, PackedWordsServeEveryRound) {
  // The generator packs its candidates once and rescans the same words
  // every greedy round: after each append, scanning them must give the
  // gains of a fresh packing.
  const std::size_t n = 3;
  const ShortCandidates candidates;
  const PrefixEngine::CandidateWords words =
      PrefixEngine::pack_candidates(candidates.elements, candidates.trace_ptrs);
  ASSERT_EQ(words.candidates, candidates.pool.size());

  MarchTest test = parse_march_test("{c(w0)}", "seed");
  PrefixEngine engine(n, behaviour_classes(fault_list_1(), n), test,
                      /*record_checkpoints=*/false);
  for (const MarchElement& element : append_sequence()) {
    const std::vector<std::size_t> gains = engine.gain_scan(words);
    EXPECT_EQ(gains,
              engine.gain_scan(candidates.elements, candidates.trace_ptrs))
        << "before " << element.to_string();
    EXPECT_GT(*std::max_element(gains.begin(), gains.end()), 0u)
        << "before " << element.to_string();
    test.append(element);
    engine.advance(test);
  }
}

TEST(PrefixSim, ExcludedFaultsStayDroppedAcrossSyncs) {
  const std::size_t n = 4;
  const auto instances = instantiate_all(fault_list_2(), n);
  const MarchTest test = any_heavy_test();
  PrefixEngine engine(n, instance_classes(instances), prefix_of(test, 2),
                      /*record_checkpoints=*/true);
  const std::set<std::size_t> excluded = {0, 1};
  engine.exclude_faults(excluded);
  engine.advance(test);
  for (std::size_t fault : excluded) {
    EXPECT_EQ(engine.undetected_fault_indices().count(fault), 0u);
  }
  // Rewind to a shorter test: excluded faults must not resurface.
  engine.advance(prefix_of(test, 3));
  for (std::size_t fault : excluded) {
    EXPECT_EQ(engine.undetected_fault_indices().count(fault), 0u);
  }
}

TEST(PrefixSim, TrialCostIsProportionalToTheReplayedSuffix) {
  // The minimizer acceptance property at engine level: a trial at the last
  // element replays at most one element per live instance — not the whole
  // test — and instances detected before the edit are skipped outright.
  const std::size_t n = 4;
  const auto instances = instantiate_all(fault_list_2(), n);
  const MarchTest test = march_abl1();
  PrefixEngine engine(n, instance_classes(instances), test,
                      /*record_checkpoints=*/true);
  const std::size_t last = test.elements().size() - 1;

  const auto trial_replays = [&](std::size_t edit) {
    const std::size_t before = engine.element_replays();
    engine.trial_covers(edit, nullptr);
    return engine.element_replays() - before;
  };

  EXPECT_LE(trial_replays(last), engine.num_representatives())
      << "a last-element trial must replay at most the dropped element's "
         "suffix (nothing) per live instance";
  EXPECT_LE(trial_replays(last - 1), 2 * engine.num_representatives());
}

}  // namespace
}  // namespace mtg
