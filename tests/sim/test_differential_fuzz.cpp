// Randomized three-way differential testing: the packed engine, the scalar
// reference machine, and the symbolic static analyzer.
//
// Each case draws a seeded random march test (random orders including ⇕,
// random operations including waits) and a random fault instance (random
// FP bindings over the full static + retention FP space, a random instance
// of a real linked fault, or a random address-decoder fault), then asserts
// that the packed engine and the scalar oracle agree on every scenario's
// detected bit (the packed block's `detected` lane word against
// run_scenario for every power-on × ⇕ mask) and on the early-exit verdicts
// detects() and detects_scalar(), and that every *definite* verdict of the
// static analyzer (analysis/static_analyzer.hpp) matches them — the
// soundness contract that licenses the generator's static pre-filter.  A further leg checks
// class-level coverage evaluation against the per-instance reference
// (coverage_helpers.hpp).
//
// Reproducibility: every case derives from a single 64-bit seed printed on
// failure.  Replay one case with MTG_FUZZ_SEED=<seed>; change the case count
// with MTG_FUZZ_CASES=<n> (the sanitizer CI job runs a reduced count).
// Failing cases are shrunk (drop march elements, ops, then fault primitives)
// before being reported.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/static_analyzer.hpp"
#include "fp/fault_list.hpp"
#include "fp/fp_library.hpp"
#include "march/march_test.hpp"
#include "sim/coverage.hpp"
#include "sim/fault_instance.hpp"
#include "sim/packed_engine.hpp"
#include "sim/prefix_sim.hpp"
#include "sim/simulator.hpp"
#include "store/sweep_store.hpp"
#include "coverage_helpers.hpp"

namespace mtg {
namespace {

// splitmix64: tiny, stdlib-independent PRNG so the same seed reproduces the
// same case on every platform (std::uniform_int_distribution is not
// portable across standard libraries).
struct Rng {
  std::uint64_t state;

  explicit Rng(std::uint64_t seed) : state(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// Uniform-ish integer in [0, bound); bound must be non-zero.
  std::size_t below(std::size_t bound) {
    return static_cast<std::size_t>(next() % bound);
  }

  bool coin() { return (next() & 1u) != 0; }
};

struct FuzzCase {
  std::size_t memory_size = 4;
  MarchTest test;
  FaultInstance instance;
};

MarchTest random_march_test(Rng& rng) {
  static const Op kOps[] = {Op::W0, Op::W1, Op::R0, Op::R1, Op::R, Op::T};
  static const AddressOrder kOrders[] = {AddressOrder::Up, AddressOrder::Down,
                                         AddressOrder::Any};
  const std::size_t num_elements = 1 + rng.below(5);
  std::vector<MarchElement> elements;
  std::size_t any_count = 0;
  for (std::size_t e = 0; e < num_elements; ++e) {
    AddressOrder order = kOrders[rng.below(3)];
    if (order == AddressOrder::Any && any_count >= 4) order = AddressOrder::Up;
    if (order == AddressOrder::Any) ++any_count;
    const std::size_t num_ops = 1 + rng.below(5);
    std::vector<Op> ops;
    ops.reserve(num_ops);
    for (std::size_t i = 0; i < num_ops; ++i) ops.push_back(kOps[rng.below(6)]);
    elements.emplace_back(order, std::move(ops));
  }
  return MarchTest("fuzz", std::move(elements));
}

/// Random march test that passes FaultSimulator::validate: it powers up
/// with a ⇕ write, and every read expects the value the fault-free machine
/// holds (all cells are uniform at element boundaries).
MarchTest random_valid_march_test(Rng& rng) {
  static const AddressOrder kOrders[] = {AddressOrder::Up, AddressOrder::Down,
                                         AddressOrder::Any};
  bool value = rng.coin();
  std::vector<MarchElement> elements;
  elements.emplace_back(AddressOrder::Any,
                        std::vector<Op>{value ? Op::W1 : Op::W0});
  const std::size_t num_elements = 1 + rng.below(5);
  for (std::size_t e = 0; e < num_elements; ++e) {
    std::vector<Op> ops;
    const std::size_t num_ops = 1 + rng.below(5);
    for (std::size_t i = 0; i < num_ops; ++i) {
      switch (rng.below(4)) {
        case 0:
          ops.push_back(value ? Op::R1 : Op::R0);
          break;
        case 1:
          value = rng.coin();
          ops.push_back(value ? Op::W1 : Op::W0);
          break;
        case 2:
          ops.push_back(Op::T);
          break;
        default:
          ops.push_back(value ? Op::R1 : Op::R0);
          value = !value;
          ops.push_back(value ? Op::W1 : Op::W0);
          break;
      }
    }
    elements.emplace_back(kOrders[rng.below(3)], std::move(ops));
  }
  return MarchTest("fuzz", std::move(elements));
}

/// Random 1- or 2-FP binding over the full FP space (the pair need not form
/// a valid linked fault: the semantics engine accepts arbitrary bound sets
/// and the two paths must agree on all of them).
FaultInstance random_binding(Rng& rng, std::size_t n,
                             const std::vector<FaultPrimitive>& fps) {
  FaultInstance instance;
  const std::size_t count = 1 + rng.below(2);
  for (std::size_t i = 0; i < count; ++i) {
    const FaultPrimitive& fp = fps[rng.below(fps.size())];
    std::size_t v = rng.below(n);
    std::size_t a = v;
    if (fp.is_two_cell()) {
      a = rng.below(n - 1);
      if (a >= v) ++a;  // distinct aggressor
    }
    instance.fps.push_back(BoundFp(fp, a, v));
  }
  std::ostringstream description;
  for (const BoundFp& bound : instance.fps) description << bound.to_string() << "; ";
  instance.description = description.str();
  return instance;
}

/// Random concrete instance of a real linked fault (masking pairs).
FaultInstance random_linked_instance(Rng& rng, std::size_t n,
                                     const std::vector<LinkedFault>& pool) {
  const LinkedFault& lf = pool[rng.below(pool.size())];
  const std::vector<FaultInstance> instances = instantiate(lf, n, 0);
  return instances[rng.below(instances.size())];
}

/// Random address-decoder instance (fp/decoder_fault.hpp): any class, any
/// address line the memory has, any valid corrupted address — the packed
/// engine's address-aware path must match the scalar decoder branches.
FaultInstance random_decoder_instance(Rng& rng, std::size_t n) {
  std::size_t lines = 0;
  while ((std::size_t{1} << lines) < n) ++lines;
  DecoderFault fault;
  fault.bit = rng.below(lines);
  static const DecoderFaultClass kClasses[] = {
      DecoderFaultClass::NoAccess, DecoderFaultClass::WrongCell,
      DecoderFaultClass::MultipleCells, DecoderFaultClass::MultipleAddresses};
  fault.cls = kClasses[rng.below(4)];
  fault.wired = rng.coin() ? Bit::One : Bit::Zero;
  const std::size_t partner_bit = std::size_t{1} << fault.bit;
  std::size_t a = rng.below(n);
  if (fault.cls != DecoderFaultClass::NoAccess) {
    // Both the corrupted address and its partner must fit the memory.
    for (int tries = 0; tries < 16 && (a ^ partner_bit) >= n; ++tries) {
      a = rng.below(n);
    }
    if ((a ^ partner_bit) >= n) a = 0;  // 0's partner is 2^bit < n
  }
  const std::size_t v =
      fault.cls == DecoderFaultClass::NoAccess ? a : a ^ partner_bit;
  FaultInstance instance;
  instance.decoders.push_back(BoundDecoder(fault, a, v));
  instance.description = instance.decoders[0].to_string();
  return instance;
}

FuzzCase make_case(std::uint64_t seed, const std::vector<FaultPrimitive>& fps,
                   const std::vector<LinkedFault>& linked) {
  Rng rng(seed);
  FuzzCase fuzz;
  // n ∈ {3..200}: mostly small memories (dense FP interactions — every cell
  // is involved), with a slice of mid and multi-word sizes so packed ==
  // scalar is locked beyond the old 64-cell snapshot ceiling (word-boundary
  // arithmetic, boundary-cell bindings at n - 1 ≥ 64).
  const std::size_t size_class = rng.below(8);
  if (size_class < 6) {
    fuzz.memory_size = 3 + rng.below(6);  // 3..8 cells
  } else if (size_class == 6) {
    fuzz.memory_size = 9 + rng.below(56);  // 9..64 cells
  } else {
    fuzz.memory_size = 65 + rng.below(136);  // 65..200 cells (multi-word)
  }
  // An unused draw: it keeps the test and instance of every seed stable.
  (void)rng.coin();
  fuzz.test = random_march_test(rng);
  // 3/8 arbitrary FP bindings, 3/8 real linked faults, 2/8 decoder faults.
  const std::size_t kind = rng.below(8);
  if (kind < 3) {
    fuzz.instance = random_binding(rng, fuzz.memory_size, fps);
  } else if (kind < 6) {
    fuzz.instance = random_linked_instance(rng, fuzz.memory_size, linked);
  } else {
    fuzz.instance = random_decoder_instance(rng, fuzz.memory_size);
  }
  return fuzz;
}

/// Scenario words as hex, block 0 first.
std::string words_string(const std::vector<std::uint64_t>& words) {
  std::ostringstream out;
  out << std::hex;
  for (const std::uint64_t word : words) out << " 0x" << word;
  return out.str();
}

/// Runs both paths; returns a non-empty explanation on divergence.
std::string divergence(const FuzzCase& fuzz) {
  SimulatorOptions options;
  options.memory_size = fuzz.memory_size;
  const FaultSimulator simulator(options);

  const std::vector<std::uint64_t> packed =
      packed_detected_words(fuzz.test, PackedFaultSim(fuzz.instance));
  const std::vector<std::uint64_t> scalar =
      scalar_detected_words(simulator, fuzz.test, fuzz.instance);
  if (packed != scalar) {
    return "per-scenario detected bits differ:\n  packed:" +
           words_string(packed) + "\n  scalar:" + words_string(scalar);
  }
  const std::size_t total =
      std::size_t{2} << FaultSimulator::any_order_count(fuzz.test);
  bool detected = true;
  for (std::size_t sc = 0; sc < total; ++sc) {
    detected = detected && ((scalar[sc / 64] >> (sc % 64)) & 1u) != 0;
  }
  // The early-exit verdicts (first escaping block / scenario) must agree
  // with the full per-scenario verdict.
  if (simulator.detects(fuzz.test, fuzz.instance) != detected) {
    return "detects() disagrees with the per-scenario verdict";
  }
  if (simulator.detects_scalar(fuzz.test, fuzz.instance) != detected) {
    return "detects_scalar() disagrees with the per-scenario verdict";
  }
  // Third leg: a definite verdict from the symbolic analyzer must agree
  // with both engines (static == packed == scalar); Unknown is its licensed
  // fall-back-to-simulation answer and never a divergence.
  const StaticResult statics = analyze_instance(fuzz.test, fuzz.instance);
  if (statics.definite() &&
      (statics.verdict == StaticVerdict::Detected) != detected) {
    return "static analyzer disagrees:\n  static: " +
           to_string(statics.verdict) +
           (statics.witness.has_value()
                ? " | witness: " + statics.witness->to_string()
                : " | reason: " + statics.reason) +
           "\n  scalar: " + (detected ? "detected" : "escaped");
  }
  return {};
}

/// Greedy shrink: drop march elements, then single ops, then bound FPs, as
/// long as the divergence persists.
FuzzCase shrink(FuzzCase fuzz) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t e = 0; e < fuzz.test.elements().size(); ++e) {
      if (fuzz.test.elements().size() == 1) break;
      FuzzCase trial = fuzz;
      trial.test.elements().erase(trial.test.elements().begin() + e);
      if (!divergence(trial).empty()) {
        fuzz = std::move(trial);
        changed = true;
        break;
      }
    }
    if (changed) continue;
    for (std::size_t e = 0; e < fuzz.test.elements().size() && !changed; ++e) {
      const MarchElement& element = fuzz.test.elements()[e];
      if (element.ops().size() == 1) continue;
      for (std::size_t i = 0; i < element.ops().size(); ++i) {
        std::vector<Op> ops = element.ops();
        ops.erase(ops.begin() + i);
        FuzzCase trial = fuzz;
        trial.test.elements()[e] = MarchElement(element.order(), std::move(ops));
        if (!divergence(trial).empty()) {
          fuzz = std::move(trial);
          changed = true;
          break;
        }
      }
    }
    if (changed) continue;
    for (std::size_t f = 0; f < fuzz.instance.fps.size(); ++f) {
      if (fuzz.instance.fps.size() == 1) break;
      FuzzCase trial = fuzz;
      trial.instance.fps.erase(trial.instance.fps.begin() + f);
      if (!divergence(trial).empty()) {
        fuzz = std::move(trial);
        changed = true;
        break;
      }
    }
  }
  return fuzz;
}

std::string describe(const FuzzCase& fuzz, std::uint64_t seed) {
  std::ostringstream out;
  out << "seed " << seed << " (replay: MTG_FUZZ_SEED=" << seed << ")\n"
      << "  n = " << fuzz.memory_size << "\n"
      << "  test:  " << fuzz.test.to_string(/*ascii=*/true) << "\n"
      << "  fault: " << fuzz.instance.description;
  return out.str();
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

TEST(DifferentialFuzz, PackedMatchesScalarVerdictsAndDiagnostics) {
  const std::vector<FaultPrimitive> fps = all_fps();
  std::vector<LinkedFault> linked = enumerate_single_cell_linked_faults();
  {
    std::vector<LinkedFault> retention = enumerate_retention_linked_faults();
    linked.insert(linked.end(), retention.begin(), retention.end());
    std::vector<LinkedFault> two = enumerate_two_cell_linked_faults();
    linked.insert(linked.end(), two.begin(), two.end());
  }

  // Seeds are sequential from a fixed base so every run covers the same
  // cases; MTG_FUZZ_SEED replays one, MTG_FUZZ_CASES rescales the sweep.
  const std::uint64_t base_seed = env_u64("MTG_FUZZ_SEED", 0);
  const bool replay_single = std::getenv("MTG_FUZZ_SEED") != nullptr;
  const std::uint64_t cases =
      replay_single ? 1 : env_u64("MTG_FUZZ_CASES", 1500);

  std::size_t failures = 0;
  for (std::uint64_t i = 0; i < cases; ++i) {
    const std::uint64_t seed = replay_single ? base_seed : 0xD1FFu + i;
    const FuzzCase fuzz = make_case(seed, fps, linked);
    const std::string failure = divergence(fuzz);
    if (failure.empty()) continue;
    const FuzzCase minimal = shrink(fuzz);
    ADD_FAILURE() << "three-way static/packed/scalar divergence\n"
                  << describe(minimal, seed) << "\n"
                  << divergence(minimal);
    if (++failures >= 3) break;  // enough repro material; stop the sweep
  }
}

TEST(DifferentialFuzz, PrefixEngineCheckpointRestoreMatchesSimulator) {
  // Fuzzes the incremental prefix engine's checkpoint/restore machinery
  // mid-test: for each random (test, instance) case the engine's verdict
  // after construction, after a drop-element / drop-op trial, after
  // accepting the edit (checkpoint rewind + suffix replay) and after
  // rewinding back to the original test must all match the from-scratch
  // simulator.  Random tests freely mix ⇕ elements, so the scenario-lane
  // expansion and trial ordinal renumbering are exercised throughout.
  const std::vector<FaultPrimitive> fps = all_fps();
  std::vector<LinkedFault> linked = enumerate_single_cell_linked_faults();
  {
    std::vector<LinkedFault> retention = enumerate_retention_linked_faults();
    linked.insert(linked.end(), retention.begin(), retention.end());
    std::vector<LinkedFault> two = enumerate_two_cell_linked_faults();
    linked.insert(linked.end(), two.begin(), two.end());
  }

  const std::uint64_t base_seed = env_u64("MTG_FUZZ_SEED", 0);
  const bool replay_single = std::getenv("MTG_FUZZ_SEED") != nullptr;
  const std::uint64_t cases =
      replay_single ? 1 : env_u64("MTG_FUZZ_CASES", 1500) / 3;

  std::size_t failures = 0;
  const auto check = [&](bool ok, const FuzzCase& fuzz, std::uint64_t seed,
                         const char* what) {
    if (ok) return true;
    ADD_FAILURE() << "prefix engine divergence (" << what << ")\n"
                  << describe(fuzz, seed);
    return ++failures < 3;
  };
  for (std::uint64_t i = 0; i < cases; ++i) {
    const std::uint64_t seed = replay_single ? base_seed : 0xC4ECu + i;
    const FuzzCase fuzz = make_case(seed, fps, linked);
    SimulatorOptions options;
    options.memory_size = fuzz.memory_size;
    const FaultSimulator simulator(options);
    PrefixEngine engine(fuzz.memory_size, instance_classes({fuzz.instance}),
                        fuzz.test, /*record_checkpoints=*/true);

    const bool detected = engine.undetected_instances() == 0;
    if (!check(detected == simulator.detects(fuzz.test, fuzz.instance), fuzz,
               seed, "construction verdict")) {
      break;
    }

    Rng rng(seed ^ 0x5EEDull);
    const std::size_t edit = rng.below(fuzz.test.elements().size());
    MarchTest dropped = fuzz.test;
    dropped.elements().erase(dropped.elements().begin() +
                             static_cast<long>(edit));
    const bool drop_expected =
        dropped.empty() ? false : simulator.detects(dropped, fuzz.instance);
    if (!check(engine.trial_covers(edit, nullptr) == drop_expected, fuzz,
               seed, "drop-element trial")) {
      break;
    }

    const MarchElement& element = fuzz.test.elements()[edit];
    MarchTest edited = fuzz.test;
    if (element.ops().size() > 1) {
      std::vector<Op> ops = element.ops();
      ops.erase(ops.begin() + static_cast<long>(rng.below(ops.size())));
      const MarchElement replacement(element.order(), std::move(ops));
      edited.elements()[edit] = replacement;
      if (!check(engine.trial_covers(edit, &replacement) ==
                     simulator.detects(edited, fuzz.instance),
                 fuzz, seed, "drop-op trial")) {
        break;
      }
    }

    // Accept the op edit (a no-op advance when the element had one op),
    // then rewind back to the original test.
    engine.advance(edited);
    if (!check((engine.undetected_instances() == 0) ==
                   simulator.detects(edited, fuzz.instance),
               fuzz, seed, "accepted-edit sync")) {
      break;
    }
    engine.advance(fuzz.test);
    if (!check((engine.undetected_instances() == 0) == detected, fuzz, seed,
               "rewind to original")) {
      break;
    }
  }
}

TEST(DifferentialFuzz, CollapsedCoverageMatchesPerInstanceReference) {
  // Class soundness: evaluate_coverage simulates one representative per
  // behaviour class and weights it analytically; the per-instance reference
  // simulates every sampled instance, on the packed engine and on the
  // scalar machine.  At random n and cap — spanning cap 0 and all three
  // sampler tiers — the reports must be byte-identical, and random
  // same-signature instance pairs must detect in the same scenarios.
  const FaultList pool = [] {
    FaultList all = fault_list_1();
    const FaultList retention = retention_fault_list();
    all.simple.insert(all.simple.end(), retention.simple.begin(),
                      retention.simple.end());
    all.linked.insert(all.linked.end(), retention.linked.begin(),
                      retention.linked.end());
    all.decoder = decoder_fault_list(8).decoder;
    return all;
  }();

  const std::uint64_t base_seed = env_u64("MTG_FUZZ_SEED", 0);
  const bool replay_single = std::getenv("MTG_FUZZ_SEED") != nullptr;
  const std::uint64_t cases =
      replay_single ? 1 : env_u64("MTG_FUZZ_CASES", 1500) / 15;

  std::size_t failures = 0;
  for (std::uint64_t i = 0; i < cases && failures < 3; ++i) {
    const std::uint64_t seed = replay_single ? base_seed : 0xC1A55ull + i;
    SCOPED_TRACE("seed " + std::to_string(seed) +
                 " (replay: MTG_FUZZ_SEED=" + std::to_string(seed) + ")");
    Rng rng(seed);
    const MarchTest test = random_valid_march_test(rng);
    const std::size_t n = 3 + rng.below(198);  // 3..200
    // Cap 0 only where full enumeration stays small; otherwise a cap from
    // 1 up to past C(n, 2), so every fault lands in some sampler tier.
    static const std::size_t kCaps[] = {1, 2, 3, 7, 40, 300, 5000};
    const std::size_t cap = n <= 24 && rng.below(4) == 0
                                ? 0
                                : kCaps[rng.below(std::size(kCaps))];
    FaultList list;
    list.name = "fuzz sample";
    for (int f = 0; f < 4; ++f) {
      list.simple.push_back(pool.simple[rng.below(pool.simple.size())]);
      list.linked.push_back(pool.linked[rng.below(pool.linked.size())]);
      list.decoder.push_back(pool.decoder[rng.below(pool.decoder.size())]);
    }

    SweepKey key;
    key.memory_size = n;
    key.max_instances_per_fault = cap;
    for (const bool scalar : {false, true}) {
      // The scalar machine costs O(n) per operation: keep its leg small.
      if (scalar && n > 40) continue;
      SimulatorOptions options;
      options.memory_size = n;
      options.coverage_threads = 1 + rng.below(3);
      const FaultSimulator simulator(options);
      const CoverageReport collapsed =
          evaluate_coverage(simulator, test, list, cap);
      const CoverageReport reference =
          evaluate_coverage_per_instance(simulator, test, list, cap, scalar);
      if (SweepStore::encode_record(key, collapsed) !=
          SweepStore::encode_record(key, reference)) {
        ADD_FAILURE() << "collapsed report differs from the "
                      << (scalar ? "scalar" : "packed")
                      << " per-instance reference (n=" << n
                      << ", cap=" << cap << ")\n  "
                      << test.to_string(true) << "\n  collapsed: "
                      << collapsed.summary() << "\n  reference: "
                      << reference.summary();
        ++failures;
      }
    }

    // Same-class pairs: equal signatures ⇒ identical per-scenario words.
    const std::vector<FaultInstance> instances =
        instantiate_all(list, n, cap == 0 ? 64 : cap);
    for (int pair = 0; pair < 16; ++pair) {
      const FaultInstance& x = instances[rng.below(instances.size())];
      // Instances are grouped by fault: draw y from x's fault.
      const auto same_fault = std::equal_range(
          instances.begin(), instances.end(), x,
          [](const FaultInstance& l, const FaultInstance& r) {
            return l.fault_index < r.fault_index;
          });
      const auto width =
          static_cast<std::size_t>(same_fault.second - same_fault.first);
      const FaultInstance& y =
          *(same_fault.first + static_cast<std::ptrdiff_t>(rng.below(width)));
      const PackedFaultSim sx(x), sy(y);
      if (sx.signature() != sy.signature()) continue;
      if (packed_detected_words(test, sx) != packed_detected_words(test, sy)) {
        ADD_FAILURE() << "same-class instances diverge:\n  " << x.description
                      << "\n  " << y.description << "\n  "
                      << test.to_string(true);
        ++failures;
      }
    }
  }
}

}  // namespace
}  // namespace mtg
