#include "sim/packed_engine.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace mtg {
namespace {

constexpr std::uint64_t kAllLanes = ~std::uint64_t{0};

/// kAlternating[j]: bit l set ⇔ (l >> j) & 1 — the ⇓-lane pattern of the
/// j-th ⇕ element for j < 6 (the pattern repeats within every 64-aligned
/// block because 2^j divides 64).
constexpr std::uint64_t kAlternating[6] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull,
};

/// True when any lane of `word` is set.
bool any_lane(std::uint64_t word) { return word != 0; }
bool any_lane(BatchWord word) { return (word[0] | word[1]) != 0; }

PackedFaultSim::OpKind kind_of(Op op) {
  if (is_read(op)) return PackedFaultSim::kRead;
  if (is_wait(op)) return PackedFaultSim::kWait;
  return op == Op::W1 ? PackedFaultSim::kW1 : PackedFaultSim::kW0;
}

PackedFaultSim::OpKind kind_of(SenseOp sense) {
  switch (sense) {
    case SenseOp::W0:
      return PackedFaultSim::kW0;
    case SenseOp::W1:
      return PackedFaultSim::kW1;
    case SenseOp::Wt:
      return PackedFaultSim::kWait;
    case SenseOp::Rd:
    case SenseOp::None:
    default:
      return PackedFaultSim::kRead;
  }
}

/// The default effect of the w0 / w1 lanes on one cell word.
template <typename Word>
void write_cell(Word& cell, Word w0, Word w1) {
  cell = (cell & ~w0) | w1;
}

}  // namespace

ElementTrace compile_element_trace(const MarchElement& element) {
  ElementTrace trace;
  trace.pre.reserve(element.ops().size());
  TraceVal current = TraceVal::Prev;
  for (const Op op : element.ops()) {
    trace.pre.push_back(current);
    if (is_write(op)) {
      current = written_value(op) == Bit::One ? TraceVal::One : TraceVal::Zero;
    }
  }
  trace.final_value = current;
  return trace;
}

CompiledTest compile_march_test(const MarchTest& test) {
  CompiledTest compiled;
  compiled.traces.reserve(test.elements().size());
  compiled.any_ordinal.reserve(test.elements().size());
  for (const MarchElement& element : test.elements()) {
    compiled.traces.push_back(compile_element_trace(element));
    if (element.order() == AddressOrder::Any) {
      compiled.any_ordinal.push_back(static_cast<int>(compiled.any_count++));
    } else {
      compiled.any_ordinal.push_back(-1);
    }
  }
  require(compiled.any_count < 32,
          "too many ⇕ elements for packed scenario enumeration");
  return compiled;
}

std::uint64_t scenario_active_word(std::size_t base, std::size_t total) {
  if (base >= total) return 0;
  const std::size_t lanes = std::min<std::size_t>(64, total - base);
  return lanes == 64 ? kAllLanes : ((std::uint64_t{1} << lanes) - 1);
}

std::uint64_t scenario_power1_word(std::size_t base, std::size_t combos) {
  // Lane l powers on all-1 ⇔ base + l >= combos (power-on–major order).
  if (base >= combos) return kAllLanes;
  const std::size_t offset = combos - base;
  return offset >= 64 ? 0 : (kAllLanes << offset);
}

std::uint64_t scenario_down_word(std::size_t base, std::size_t combos,
                                 std::size_t ordinal) {
  // Lane l runs ⇓ ⇔ bit `ordinal` of (base + l) mod combos.  `base` is
  // 64-aligned, so for ordinal < 6 the pattern is position-independent and
  // for ordinal >= 6 it is constant across the block.
  if (ordinal < 6) return kAlternating[ordinal];
  return ((base % combos) >> ordinal) & 1u ? kAllLanes : 0;
}

std::uint64_t element_down_word(const MarchElement& element, int any_ordinal,
                                std::size_t base, std::size_t combos) {
  switch (element.order()) {
    case AddressOrder::Any:
      return scenario_down_word(base, combos,
                                static_cast<std::size_t>(any_ordinal));
    case AddressOrder::Down:
      return kAllLanes;
    case AddressOrder::Up:
    default:
      return 0;
  }
}

void require_addresses_fit(const FaultInstance& instance, std::size_t n) {
  for (const BoundFp& bound : instance.fps) {
    require(bound.v_cell < n && bound.a_cell < n,
            "bound fault addresses exceed the memory size");
  }
  for (const BoundDecoder& bound : instance.decoders) {
    require(bound.a_cell < n && bound.v_cell < n,
            "bound decoder fault addresses exceed the memory size");
  }
}

PackedFaultSim::PackedFaultSim(const FaultInstance& instance) {
  require(instance.fps.size() <= kMaxFps && instance.decoders.size() <= 1 &&
              (instance.decoders.empty() || instance.fps.empty()),
          "fault instance does not fit the packed engine (too many bound "
          "FPs, or a decoder fault combined with FPs)");
  if (!instance.decoders.empty()) {
    // An address-decoder instance: keep the *absolute* involved addresses
    // (the behaviour is address-aware — see the file comment); slots stay
    // address-ascending like the FP path.
    const BoundDecoder& dec = instance.decoders[0];
    has_decoder_ = true;
    decoder_cls_ = dec.fault.cls;
    cells_[num_slots_++] = std::min(dec.a_cell, dec.v_cell);
    if (dec.v_cell != dec.a_cell) {
      cells_[num_slots_++] = std::max(dec.a_cell, dec.v_cell);
    }
    decoder_a_slot_ =
        static_cast<std::uint8_t>(cells_[0] == dec.a_cell ? 0 : 1);
    decoder_v_slot_ =
        static_cast<std::uint8_t>(cells_[0] == dec.v_cell ? 0 : 1);
    decoder_read_one_ =
        dec.fault.cls == DecoderFaultClass::NoAccess
            ? dec.no_access_read_back() == Bit::One
            : dec.fault.wired == Bit::One;
    return;
  }
  // Collect the involved cells, address-ascending, deduplicated.
  std::array<std::size_t, kMaxSlots> addresses{};
  std::size_t count = 0;
  for (const BoundFp& bound : instance.fps) {
    addresses[count++] = bound.v_cell;
    addresses[count++] = bound.a_cell;  // == v_cell for single-cell FPs
  }
  std::sort(addresses.begin(), addresses.begin() + count);
  for (std::size_t i = 0; i < count; ++i) {
    if (num_slots_ == 0 || cells_[num_slots_ - 1] != addresses[i]) {
      cells_[num_slots_++] = addresses[i];
    }
  }
  const auto slot_of = [&](std::size_t address) {
    for (std::size_t s = 0; s < num_slots_; ++s) {
      if (cells_[s] == address) return s;
    }
    throw Error("packed engine: address is not an involved cell");
  };

  for (const BoundFp& bound : instance.fps) {
    Fp fp;
    fp.v_slot = static_cast<std::uint8_t>(slot_of(bound.v_cell));
    fp.a_slot = static_cast<std::uint8_t>(slot_of(bound.a_cell));
    fp.two_cell = bound.fp.is_two_cell();
    fp.state_fault = bound.fp.is_state_fault();
    fp.op_on_victim = bound.fp.op_on_victim();
    fp.sense = bound.fp.sense_op();
    fp.sense_kind = kind_of(fp.sense);
    fp.sense_slot = fp.op_on_victim ? fp.v_slot : fp.a_slot;
    fp.v_state_one = bound.fp.v_state() == Bit::One;
    fp.a_state_one = fp.two_cell && bound.fp.a_state() == Bit::One;
    fp.fault_one = bound.fp.fault_value() == Bit::One;
    fp.read_one = fp.op_on_victim && fp.sense == SenseOp::Rd &&
                  to_bit(bound.fp.read_result()) == Bit::One;
    has_state_fault_ = has_state_fault_ || fp.state_fault;
    fps_[num_fps_++] = fp;
  }
}

std::string PackedFaultSim::signature() const {
  std::string out;
  out.reserve(2 + num_fps_ * 5 + 4);
  out.push_back(static_cast<char>(num_slots_));
  out.push_back(static_cast<char>(num_fps_));
  for (std::size_t i = 0; i < num_fps_; ++i) {
    const Fp& fp = fps_[i];
    out.push_back(static_cast<char>(fp.v_slot));
    out.push_back(static_cast<char>(fp.a_slot));
    out.push_back(static_cast<char>(fp.sense_slot));
    out.push_back(static_cast<char>(fp.sense));
    out.push_back(static_cast<char>(
        (fp.two_cell ? 1 : 0) | (fp.state_fault ? 2 : 0) |
        (fp.op_on_victim ? 4 : 0) | (fp.v_state_one ? 8 : 0) |
        (fp.a_state_one ? 16 : 0) | (fp.fault_one ? 32 : 0) |
        (fp.read_one ? 64 : 0)));
  }
  if (has_decoder_) {
    out.push_back(static_cast<char>(decoder_cls_));
    out.push_back(static_cast<char>(decoder_a_slot_));
    out.push_back(static_cast<char>(decoder_v_slot_));
    out.push_back(static_cast<char>(decoder_read_one_ ? 1 : 0));
  }
  return out;
}

template <typename Word>
Word PackedFaultSim::condition_word(const LanesOf<Word>& lanes,
                                    const Fp& fp) const {
  Word cond = fp.v_state_one ? lanes.val[fp.v_slot] : ~lanes.val[fp.v_slot];
  if (fp.two_cell) {
    cond &= fp.a_state_one ? lanes.val[fp.a_slot] : ~lanes.val[fp.a_slot];
  }
  return cond;
}

template <typename Word>
void PackedFaultSim::settle_state_faults(
    LanesOf<Word>& lanes, Word group, std::array<Word, kMaxFps>& fired) const {
  // Fixpoint over the (≤ kMaxFps) state faults, mirroring the scalar
  // settle loop: a fault fires in the lanes where it is armed, has not
  // fired during this operation, and its state condition holds.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < num_fps_; ++i) {
      const Fp& fp = fps_[i];
      if (!fp.state_fault) continue;
      const Word can =
          group & lanes.armed[i] & ~fired[i] & condition_word(lanes, fp);
      if (!any_lane(can)) continue;
      lanes.val[fp.v_slot] =
          (lanes.val[fp.v_slot] & ~can) | (fp.fault_one ? can : Word{});
      lanes.armed[i] &= ~can;
      fired[i] |= can;
      changed = true;
    }
  }
}

template <typename Word>
void PackedFaultSim::rearm_state_faults(LanesOf<Word>& lanes,
                                        Word group) const {
  // Scalar re-arm: a disarmed state fault re-arms once its condition is
  // false again (edge-trigger semantics).
  for (std::size_t i = 0; i < num_fps_; ++i) {
    if (!fps_[i].state_fault) continue;
    lanes.armed[i] |= group & ~condition_word(lanes, fps_[i]);
  }
}

void PackedFaultSim::power_on_block(Lanes& lanes, std::size_t base,
                                    std::size_t combos) const {
  const std::uint64_t active = scenario_active_word(base, 2 * combos);
  power_on(lanes, active, scenario_power1_word(base, combos) & active);
}

void PackedFaultSim::power_on(Lanes& lanes, std::uint64_t active,
                              std::uint64_t power1) const {
  lanes.active = active;
  lanes.detected = 0;
  lanes.uniform = power1 & active;
  for (std::size_t s = 0; s < num_slots_; ++s) lanes.val[s] = lanes.uniform;
  for (std::size_t i = 0; i < num_fps_; ++i) lanes.armed[i] = active;
  if (has_state_fault_) {
    std::array<std::uint64_t, kMaxFps> fired{};
    settle_state_faults(lanes, active, fired);
    rearm_state_faults(lanes, active);
  }
}

template <typename Word>
void PackedFaultSim::step(LanesOf<Word>& lanes, std::size_t slot,
                          const KindMasks<Word>& kinds, Word expected) const {
  const Word reads = kinds[kRead];
  const Word w0 = kinds[kW0];
  const Word w1 = kinds[kW1];
  // A read returns the pre-op faulty value unless overridden below.
  Word out = lanes.val[slot];

  if (has_decoder_) {
    // Decoder instances carry no FPs: every deviation is a rerouting of the
    // operation itself, mirroring the scalar FaultyMemory decoder branches.
    if (slot == decoder_a_slot_) {
      const Word a_val = lanes.val[decoder_a_slot_];
      const Word v_val = lanes.val[decoder_v_slot_];
      switch (decoder_cls_) {
        case DecoderFaultClass::NoAccess:
          // Writes and waits select no cell; reads sense the address-coupled
          // floating line (a constant per instance, not per lane).
          out = decoder_read_one_ ? ~Word{} : Word{};
          break;
        case DecoderFaultClass::WrongCell:
          out = v_val;
          write_cell(lanes.val[decoder_v_slot_], w0, w1);
          break;
        case DecoderFaultClass::MultipleCells:
          out = decoder_read_one_ ? (a_val | v_val) : (a_val & v_val);
          write_cell(lanes.val[decoder_a_slot_], w0, w1);
          write_cell(lanes.val[decoder_v_slot_], w0, w1);
          break;
        case DecoderFaultClass::MultipleAddresses:
          out = a_val;  // the read path is intact; only writes are redirected
          write_cell(lanes.val[decoder_v_slot_], w0, w1);
          break;
      }
    } else {
      // The partner cell's own address decodes normally.
      write_cell(lanes.val[slot], w0, w1);
    }
    lanes.detected |= reads & (out ^ expected);
    return;
  }

  // 1. Sensitization on the pre-op state (scalar op_matches): an FP sensed
  //    at `slot` matches the lanes of its op kind whose state condition
  //    holds.  Waits sensitize the retention FPs (SenseOp::Wt) of the
  //    visited slot, exactly like the scalar machine's wait(address).
  std::array<Word, kMaxFps> matched{};
  for (std::size_t i = 0; i < num_fps_; ++i) {
    const Fp& fp = fps_[i];
    if (fp.state_fault || fp.sense_slot != slot) continue;
    const Word sensed = kinds[fp.sense_kind];
    if (any_lane(sensed)) matched[i] = sensed & condition_word(lanes, fp);
  }

  // 2. Default operation effect (reads and waits leave the content
  //    untouched).
  write_cell(lanes.val[slot], w0, w1);

  // 3. Fault overrides, in FP order (a later FP overrides an earlier one on
  //    a shared victim, matching the scalar loop).  Only a read-sensitized
  //    FP on the victim overrides the read result, so that override lands
  //    on read lanes only.
  std::array<Word, kMaxFps> fired{};
  for (std::size_t i = 0; i < num_fps_; ++i) {
    const Word m = matched[i];
    if (!any_lane(m)) continue;
    const Fp& fp = fps_[i];
    lanes.val[fp.v_slot] =
        (lanes.val[fp.v_slot] & ~m) | (fp.fault_one ? m : Word{});
    if (fp.sense == SenseOp::Rd && fp.op_on_victim) {
      out = (out & ~m) | (fp.read_one ? m : Word{});
    }
    fired[i] = m;
  }

  // 4. State faults settle and re-arm.
  if (has_state_fault_) {
    const Word group = reads | w0 | w1 | kinds[kWait];
    settle_state_faults(lanes, group, fired);
    rearm_state_faults(lanes, group);
  }

  // 5. Detection: the read mismatches the good machine's value.
  lanes.detected |= reads & (out ^ expected);
}

std::uint64_t PackedFaultSim::run_element(Lanes& lanes,
                                          const MarchElement& element,
                                          const ElementTrace& trace,
                                          std::uint64_t down) const {
  const std::uint64_t before = lanes.detected;
  // `uniform` must stay the element's *entry* value while both sweep groups
  // replay it (TraceVal::Prev refers to the pre-element good machine).
  const std::uint64_t entry_uniform = lanes.uniform;
  const auto expected_word = [&](TraceVal value) -> std::uint64_t {
    switch (value) {
      case TraceVal::Zero:
        return 0;
      case TraceVal::One:
        return ~std::uint64_t{0};
      case TraceVal::Prev:
      default:
        return entry_uniform;
    }
  };

  const std::vector<Op>& ops = element.ops();
  const std::uint64_t groups[2] = {lanes.active & ~down, lanes.active & down};
  for (int g = 0; g < 2; ++g) {
    const std::uint64_t group = groups[g];
    if (group == 0) continue;
    const bool ascending = g == 0;
    for (std::size_t visit = 0; visit < num_slots_; ++visit) {
      const std::size_t slot = ascending ? visit : num_slots_ - 1 - visit;
      for (std::size_t i = 0; i < ops.size(); ++i) {
        KindMasks<std::uint64_t> kinds{};
        kinds[kind_of(ops[i])] = group;
        step(lanes, slot, kinds, expected_word(trace.pre[i]));
      }
    }
  }

  // The good machine leaves every element uniform.
  switch (trace.final_value) {
    case TraceVal::Zero:
      lanes.uniform = 0;
      break;
    case TraceVal::One:
      lanes.uniform = ~std::uint64_t{0};
      break;
    case TraceVal::Prev:
      break;
  }
  return lanes.detected & ~before;
}

void ElementBatch::add(const MarchElement& element,
                       const ElementTrace& trace) {
  require(members < kLanes, "element batch: every member lane is taken");
  BatchWord lanes{};
  lanes[members / 64] = std::uint64_t{1} << (members % 64);
  ++members;

  const std::vector<Op>& ops = element.ops();
  if (steps.size() < ops.size()) steps.resize(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    Step& step = steps[i];
    step.kind[kind_of(ops[i])] |= lanes;
    if (trace.pre[i] == TraceVal::One) step.expect_one |= lanes;
    if (trace.pre[i] == TraceVal::Prev) step.expect_prev |= lanes;
  }
  if (trace.final_value == TraceVal::One) final_one |= lanes;
  if (trace.final_value == TraceVal::Prev) final_prev |= lanes;
}

PackedFaultSim::LanesOf<BatchWord> ElementBatch::broadcast(
    const PackedFaultSim::Lanes& block, std::size_t lane) {
  const auto spread = [&](std::uint64_t word) {
    const std::uint64_t all = std::uint64_t{0} - ((word >> lane) & 1u);
    return BatchWord{all, all};
  };
  PackedFaultSim::LanesOf<BatchWord> out;
  out.active = spread(block.active);
  out.detected = spread(block.detected);
  out.uniform = spread(block.uniform);
  for (std::size_t s = 0; s < PackedFaultSim::kMaxSlots; ++s) {
    out.val[s] = spread(block.val[s]);
  }
  for (std::size_t f = 0; f < PackedFaultSim::kMaxFps; ++f) {
    out.armed[f] = spread(block.armed[f]);
  }
  return out;
}

BatchWord PackedFaultSim::run_batch(LanesOf<BatchWord>& lanes,
                                    const ElementBatch& batch) const {
  const BatchWord before = lanes.detected;
  const BatchWord entry_uniform = lanes.uniform;
  for (std::size_t visit = 0; visit < num_slots_; ++visit) {
    const std::size_t slot = batch.down ? num_slots_ - 1 - visit : visit;
    for (const ElementBatch::Step& op : batch.steps) {
      step(lanes, slot, op.kind,
           op.expect_one | (op.expect_prev & entry_uniform));
    }
  }
  lanes.uniform = batch.final_one | (batch.final_prev & entry_uniform);
  return lanes.detected & ~before;
}

bool packed_run(const MarchTest& test, const CompiledTest& compiled,
                const PackedFaultSim& sim) {
  const std::size_t combos = std::size_t{1} << compiled.any_count;
  const std::size_t total = 2 * combos;
  for (std::size_t base = 0; base < total; base += 64) {
    PackedFaultSim::Lanes lanes;
    sim.power_on_block(lanes, base, combos);

    for (std::size_t e = 0; e < test.elements().size(); ++e) {
      const MarchElement& element = test.elements()[e];
      sim.run_element(
          lanes, element, compiled.traces[e],
          element_down_word(element, compiled.any_ordinal[e], base, combos));
      // Detection is sticky and monotone: a fully detected block is done.
      if (lanes.detected == lanes.active) break;
    }
    if ((lanes.active & ~lanes.detected) != 0) return false;
  }
  return true;
}

}  // namespace mtg
