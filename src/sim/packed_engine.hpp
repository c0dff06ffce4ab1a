// The packed fault-simulation engine: scenario packing + cell collapsing.
//
// This is the shared substrate behind FaultSimulator::detects,
// evaluate_coverage and the generator's greedy engine.  It produces verdicts
// bit-identical to the scalar reference machine (fp/semantics.hpp executed
// by FaultSimulator::run_scenario) while cutting the cost per fault instance
// from O(ops × n × scenarios) to O(ops × k) word operations, k ≤ 3.
//
// -- Scenario packing (lane layout) -----------------------------------------
//
// A fault instance must be detected under every power-on content in
// {all-0, all-1} and every assignment of concrete orders to the test's ⇕
// elements.  With `a` ⇕ elements there are S = 2 · 2^a scenarios.
// Scenario index
//
//     sc = power_on · 2^a + order_mask        (bit j of order_mask = 1
//                                              ⇔ the j-th ⇕ element runs ⇓)
//
// matches FaultSimulator's enumeration order (power-on major, mask minor).
// Scenario sc maps to lane (sc mod 64) of block (sc div 64); every lane of a
// block advances simultaneously through one bitwise word update per memory
// operation.  Lane state is three word families:
//
//   val[slot]  — the faulty machine's value of involved cell `slot`
//   armed[f]   — the edge-trigger flag of state fault f
//   detected   — sticky flag: some read already mismatched in this lane
//
// All fault-primitive semantics (sensitization on the pre-op state, victim
// forcing, read-result overrides, state-fault settle/re-arm fixpoints)
// translate to AND/OR/NOT on these words, because each rule is a pointwise
// function of per-lane bits.  Blocks are plain structs held on the stack:
// the per-scenario FaultyMemory/MemoryState heap allocations of the scalar
// path disappear entirely.
//
// -- Cell collapsing (soundness argument) ------------------------------------
//
// A fault instance binds at most kMaxFps fault primitives, touching at most
// 2·kMaxFps distinct cells (the *involved* cells; ≤ 3 for every instance the
// fault library produces).  Only those cells need simulation:
//
//  1. FPs force only their victim cell, and sensitization conditions read
//     only aggressor/victim states — all involved cells.  An uninvolved cell
//     therefore receives exactly the fault-free sequence of writes, so its
//     faulty value equals its good value at every point of the run, and a
//     read of it can never mismatch.
//  2. An operation addressed at an uninvolved cell cannot fire an
//     op-sensitized FP (the sensitizing address is involved), and cannot
//     fire a state fault either: the scalar machine maintains the invariant
//     "armed ⇒ condition false" at the end of every apply()/power_on()
//     (settle runs to fixpoint, then re-arm only arms false conditions), and
//     an op on an uninvolved cell changes no involved cell, so no condition
//     can have become true.  Wait operations (`t`) are addressed at the
//     visited cell like reads and writes (fp/semantics.hpp): a wait at an
//     uninvolved cell sensitizes nothing (retention FPs decay their victim,
//     an involved cell) and changes no state, while a wait at an involved
//     cell is replayed exactly.  Skipping uninvolved-cell operations is
//     therefore exact, not an approximation.
//  3. Positional correction: within a march element the involved cells must
//     be visited in sweep order — ascending addresses for ⇑ lanes,
//     descending for ⇓ lanes.  run_element() partitions the lanes of a block
//     into the two order groups and replays the element once per group with
//     all updates masked to that group, which preserves the exact relative
//     order of involved-cell visits in every lane.  Operations on the
//     uninvolved cells *between* them are skipped per (2).
//
// Address-decoder instances (fp/decoder_fault.hpp) are cell-collapsed the
// same way — every deviation they introduce is confined to the corrupted
// address and its partner, so (1)–(3) go through verbatim.  The one address
// fact their machine reads is bit `bit` of the corrupted address a: it is
// the AF-na read-back, and for the two-cell classes it says whether a comes
// before or after its partner.  It is lowered at construction like the FP
// fields, so signature() covers decoder instances too.
//
// -- Shared good-machine trace ----------------------------------------------
//
// March elements apply the same operation sequence to every cell, so the
// fault-free machine is uniform at every element boundary and the value a
// read expects depends only on (element, op index) and possibly the power-on
// value — never on the address, the ⇕ orders, or the fault instance.
// compile_march_test() precomputes this trace once per test; every instance,
// scenario and thread shares it, replacing the scalar path's per-scenario
// MemoryState good machine with one constant word per read.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bit.hpp"
#include "march/march_test.hpp"
#include "sim/fault_instance.hpp"

namespace mtg {

/// Symbolic good-machine value: the fault-free memory holds either a known
/// constant or whatever uniform value the previous element left behind
/// (ultimately the power-on value).
enum class TraceVal : std::uint8_t { Prev, Zero, One };

/// Good-machine trace of one march element, independent of address order and
/// memory size (see the file comment).
struct ElementTrace {
  /// Per operation: the fault-free value of the visited cell just before
  /// the operation executes (the value a read expects).
  std::vector<TraceVal> pre;
  /// The uniform fault-free value of every cell after the element.
  TraceVal final_value = TraceVal::Prev;
};

ElementTrace compile_element_trace(const MarchElement& element);

/// A march test compiled for packed execution: per-element good-machine
/// traces plus the ⇕-element numbering that defines the scenario lanes.
struct CompiledTest {
  std::vector<ElementTrace> traces;  ///< one per march element
  std::vector<int> any_ordinal;      ///< per element: ⇕ ordinal, or -1
  std::size_t any_count = 0;         ///< number of ⇕ elements
};

CompiledTest compile_march_test(const MarchTest& test);

// -- Scenario lane words -----------------------------------------------------
// Blocks are 64-lane windows [base, base+64) over the scenario indices
// described in the file comment; `base` is always a multiple of 64 and
// `combos` = 2^any_count.

/// Lanes of block `base` that carry a scenario (total = 2·combos).
std::uint64_t scenario_active_word(std::size_t base, std::size_t total);

/// Lanes of block `base` whose scenario powers on all-1 (sc >= combos).
std::uint64_t scenario_power1_word(std::size_t base, std::size_t combos);

/// Lanes of block `base` in which ⇕ element `ordinal` runs Down.
std::uint64_t scenario_down_word(std::size_t base, std::size_t combos,
                                 std::size_t ordinal);

/// Lanes of block `base` in which `element` sweeps Down: all/none for fixed
/// orders, the scenario word for ⇕ (`any_ordinal` = CompiledTest::any_ordinal).
std::uint64_t element_down_word(const MarchElement& element, int any_ordinal,
                                std::size_t base, std::size_t combos);

/// A 128-lane word for ElementBatch: two 64-lane halves, lane l in half
/// l / 64, with the bitwise operators of std::uint64_t (the GCC/Clang vector
/// extension; SSE2, the x86-64 baseline, keeps it in one register).
using BatchWord = std::uint64_t __attribute__((vector_size(16)));

// -- The packed machine ------------------------------------------------------

/// Throws unless every bound FP of `instance` addresses a cell of an
/// `n`-cell memory.  The packed engine never indexes the memory, so every
/// packed entry point calls this to keep the scalar machine's bounds
/// contract (FaultyMemory's constructor) intact.
void require_addresses_fit(const FaultInstance& instance, std::size_t n);

struct ElementBatch;  // below

/// One fault instance compiled for packed execution: its involved cells are
/// renamed to dense slots and its fault primitives preprocessed into
/// slot-indexed bit tests.  Construction is allocation-free.
class PackedFaultSim {
 public:
  static constexpr std::size_t kMaxFps = 4;
  static constexpr std::size_t kMaxSlots = 2 * kMaxFps;

  /// Fault-free machine (no fault primitives, no involved cells).
  PackedFaultSim() = default;

  /// Compiles `instance`.  Throws mtg::Error unless it fits the packed
  /// representation: at most kMaxFps bound FPs, or exactly one decoder
  /// fault and no FPs (the shape FaultyMemory enforces).  Every instance
  /// the fault library and the text formats build fits.
  explicit PackedFaultSim(const FaultInstance& instance);

  std::size_t num_slots() const noexcept { return num_slots_; }
  /// Memory address of involved cell `slot` (slots are address-ascending).
  std::size_t slot_address(std::size_t slot) const { return cells_[slot]; }

  /// Canonical byte string of the compiled fault structure — the slot count
  /// and every lowered FP or decoder field — *excluding* the involved-cell
  /// addresses.  The simulation never reads the addresses (power_on and
  /// run_element touch cells only through their dense slot indices, slots
  /// are address-ascending, and a decoder's address bit is lowered into
  /// its slot roles and read-back), so two instances with equal signatures
  /// have bit-identical lane evolutions against every test.  Equal
  /// signatures define a *behaviour class*: behaviour_classes()
  /// (sim/fault_instance.hpp) builds a fault's classes without
  /// instantiating them, and the prefix engine and evaluate_coverage
  /// simulate one weighted representative per class; the tests check those
  /// classes against this key.  For decoder instances the key amounts to
  /// (class, wired, bit `bit` of the corrupted address).
  std::string signature() const;

  /// Lane state over `Word`-wide lane words; plain data, copyable (the
  /// greedy engine's trial evaluation relies on cheap copies).  A scenario
  /// block is 64 lanes (Lanes); run_batch replays 128 (BatchWord).
  template <typename Word>
  struct LanesOf {
    Word active{};    ///< lanes carrying a scenario
    Word detected{};  ///< sticky detection flags
    Word uniform{};   ///< good-machine uniform value per lane
    std::array<Word, kMaxSlots> val{};  ///< faulty involved cells
    std::array<Word, kMaxFps> armed{};  ///< state-fault edge flags
  };
  using Lanes = LanesOf<std::uint64_t>;

  /// Op kinds at one op position.  Every read kind shares one: the step
  /// kernel tells reads apart only by their expected value.
  enum OpKind : std::uint8_t { kRead, kW0, kW1, kWait, kOpKinds };
  template <typename Word>
  using KindMasks = std::array<Word, kOpKinds>;

  /// Initialises a block: every lane holds its power-on value everywhere,
  /// state faults settle once and re-arm (scalar power_on semantics).
  void power_on(Lanes& lanes, std::uint64_t active,
                std::uint64_t power1) const;

  /// power_on() for scenario block `base` of the 2·combos scenario set:
  /// computes the active and power-on lane words.
  void power_on_block(Lanes& lanes, std::size_t base,
                      std::size_t combos) const;

  /// Replays one march element over every active lane; lanes with their bit
  /// set in `down` sweep ⇓, the others ⇑.  `trace` must be the element's
  /// compiled trace and `lanes.uniform` the good machine's entry value.
  /// Returns the lanes newly detected during this element.
  std::uint64_t run_element(Lanes& lanes, const MarchElement& element,
                            const ElementTrace& trace,
                            std::uint64_t down) const;

  /// Replays the batch's elements side by side, member m on lane m, and
  /// returns the lanes newly detected.  `lanes` holds one active lane's
  /// state broadcast to every lane (ElementBatch::broadcast), with `uniform`
  /// the good machine's entry value; every lane counts as active.
  ///
  /// Soundness: the result in every lane equals run_element() of that
  /// lane's element.  The slots are visited in the batch's sweep order and,
  /// at each slot, op position after op position, so every lane sees its
  /// own element's operations in exactly run_element's order.  At one
  /// (slot, position) the step kernel runs once over all four kind masks,
  /// where run_element runs it with one mask set.  Every update the kernel
  /// makes is masked per lane — sensitization to the lanes of the FP's op
  /// kind, writes to the w0 / w1 lanes, the read-result override and
  /// detection to the read lanes, settle and re-arm to the union — and
  /// lanes never read each other's bits.  The kind masks are disjoint, so
  /// the one fused pass equals the per-kind passes run one after another,
  /// lane for lane, in any order.  Reads take the per-lane expected word
  /// expect_one | (expect_prev & entry uniform).
  BatchWord run_batch(LanesOf<BatchWord>& lanes,
                      const ElementBatch& batch) const;

 private:
  /// A fault primitive lowered to slot-indexed bit tests.
  struct Fp {
    std::uint8_t v_slot = 0;      ///< victim slot
    std::uint8_t a_slot = 0;      ///< aggressor slot (== v_slot if 1-cell)
    std::uint8_t sense_slot = 0;  ///< slot the sensitizing op must address
    bool two_cell = false;
    bool state_fault = false;
    bool op_on_victim = false;
    SenseOp sense = SenseOp::None;
    OpKind sense_kind = kRead;  ///< `sense` as an op kind (not state faults)
    bool v_state_one = false;  ///< sensitizing victim state
    bool a_state_one = false;  ///< sensitizing aggressor state (2-cell)
    bool fault_one = false;    ///< F — forced victim value
    bool read_one = false;     ///< R — returned value on a victim read
  };

  /// Lanes whose pre-op state matches the FP's sensitizing states.
  template <typename Word>
  Word condition_word(const LanesOf<Word>& lanes, const Fp& fp) const;

  /// The step kernel: applies one op position at `slot` to every lane in
  /// `kinds` — four disjoint masks (read, w0, w1, wait) — in one pass.
  /// Reads compare against `expected`.  FP machines sensitize on the
  /// pre-op state, write, apply the FP overrides in FP order, then settle
  /// and re-arm state faults; decoder machines reroute the operation at the
  /// corrupted address (mirroring the scalar FaultyMemory branches).
  template <typename Word>
  void step(LanesOf<Word>& lanes, std::size_t slot,
            const KindMasks<Word>& kinds, Word expected) const;
  /// State-fault settle and re-arm over `group` (machines with a state
  /// fault only).
  template <typename Word>
  void settle_state_faults(LanesOf<Word>& lanes, Word group,
                           std::array<Word, kMaxFps>& fired) const;
  template <typename Word>
  void rearm_state_faults(LanesOf<Word>& lanes, Word group) const;

  std::array<std::size_t, kMaxSlots> cells_{};  ///< involved addresses, asc
  std::size_t num_slots_ = 0;
  std::array<Fp, kMaxFps> fps_{};
  std::size_t num_fps_ = 0;
  bool has_state_fault_ = false;

  // -- Address-decoder instance (mutually exclusive with fps_) ----------
  bool has_decoder_ = false;
  DecoderFaultClass decoder_cls_ = DecoderFaultClass::NoAccess;
  std::uint8_t decoder_a_slot_ = 0;  ///< slot of the corrupted address
  std::uint8_t decoder_v_slot_ = 0;  ///< slot of the partner cell
  /// NoAccess: the address-coupled read-back bit; MultipleCells: wired-OR.
  bool decoder_read_one_ = false;
};

/// Up to 128 march elements packed side by side into the lanes of a
/// BatchWord, for PrefixEngine::gain_scan: each element (a *member*) owns one
/// lane, member m lane m, and all of them sweep the batch's direction.  Per
/// op position the batch keeps one lane mask per op kind, the step kernel's
/// input.
struct ElementBatch {
  static constexpr std::size_t kLanes = 128;

  struct Step {
    PackedFaultSim::KindMasks<BatchWord> kind{};  ///< lanes per op kind
    BatchWord expect_one{};   ///< reads here expect 1
    BatchWord expect_prev{};  ///< reads here expect the entry value
  };

  /// An empty batch.
  explicit ElementBatch(bool down_sweep) : down(down_sweep) {}

  bool down = false;        ///< every element sweeps ⇓ (else ⇑)
  std::size_t members = 0;  ///< elements added so far, at most kLanes
  std::vector<Step> steps;  ///< one per op position of the longest element
  /// Lanes whose element leaves the memory 1 / unchanged (TraceVal::Prev).
  BatchWord final_one{};
  BatchWord final_prev{};

  /// Adds `element` (with its compiled trace) as the next member; the batch
  /// must not be full.  The element's own order is ignored.
  void add(const MarchElement& element, const ElementTrace& trace);

  /// Lane `lane` of `block` copied into all 128 lanes.  The lanes past the
  /// last member carry the copy too, but no op touches them.
  static PackedFaultSim::LanesOf<BatchWord> broadcast(
      const PackedFaultSim::Lanes& block, std::size_t lane);
};

// -- Full-test runner --------------------------------------------------------

/// Runs every (power-on, ⇕-order) scenario of `instance` against `test` and
/// returns true iff every scenario detects it.  `compiled` must be
/// compile_march_test(test).  The run stops at the first block with an
/// escaping scenario, and each block stops at its first fully detected
/// element.
bool packed_run(const MarchTest& test, const CompiledTest& compiled,
                const PackedFaultSim& sim);

}  // namespace mtg
