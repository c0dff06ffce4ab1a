#include "fp/semantics.hpp"

#include <cassert>
#include <sstream>

#include "common/error.hpp"

namespace mtg {

BoundFp::BoundFp(FaultPrimitive f, std::size_t a, std::size_t v)
    : fp(std::move(f)), a_cell(a), v_cell(v) {
  if (fp.is_two_cell()) {
    require(a_cell != v_cell,
            "a two-cell fault primitive needs distinct aggressor and victim");
  } else {
    require(a_cell == v_cell,
            "a single-cell fault primitive has aggressor == victim");
  }
}

std::string BoundFp::to_string() const {
  std::ostringstream out;
  out << fp.name();
  if (fp.is_two_cell()) {
    out << " a=" << a_cell << " v=" << v_cell;
  } else {
    out << " cell=" << v_cell;
  }
  return out.str();
}

FaultyMemory::FaultyMemory(std::size_t num_cells, std::vector<BoundFp> faults,
                           std::vector<BoundDecoder> decoders)
    : state_(num_cells),
      faults_(std::move(faults)),
      decoders_(std::move(decoders)) {
  for (const BoundFp& bound : faults_) {
    require(bound.v_cell < num_cells && bound.a_cell < num_cells,
            "bound fault addresses exceed the memory size");
  }
  require(decoders_.size() <= 1,
          "at most one decoder fault per faulty machine");
  require(decoders_.empty() || faults_.empty(),
          "decoder faults do not combine with fault primitives");
  for (const BoundDecoder& bound : decoders_) {
    require(bound.a_cell < num_cells && bound.v_cell < num_cells,
            "bound decoder fault addresses exceed the memory size");
  }
  armed_.assign(faults_.size(), true);
  fire_counts_.assign(faults_.size(), 0);
}

void FaultyMemory::power_on(const MemoryState& initial) {
  require(initial.size() == state_.size(),
          "power_on: initial state size mismatch");
  state_ = initial;
  armed_.assign(faults_.size(), true);
  fire_counts_.assign(faults_.size(), 0);
  total_fires_ = 0;
  // Let state faults settle once on the power-on content.
  std::uint32_t fired = 0;
  settle_state_faults(fired);
  rearm_state_faults();
}

void FaultyMemory::power_on_uniform(Bit value) {
  power_on(MemoryState(state_.size(), value));
}

void FaultyMemory::write(std::size_t address, Bit value) {
  if (!decoders_.empty() && address == decoders_[0].a_cell) {
    // The corrupted address: the write selects cells per the decoder class
    // (no FPs are bound alongside a decoder fault, so the plain state
    // mutation is the entire effect).
    const BoundDecoder& dec = decoders_[0];
    switch (dec.fault.cls) {
      case DecoderFaultClass::NoAccess:
        break;  // no cell selected — the write is dropped
      case DecoderFaultClass::WrongCell:
      case DecoderFaultClass::MultipleAddresses:
        state_.set(dec.v_cell, value);  // redirected to the partner cell
        break;
      case DecoderFaultClass::MultipleCells:
        state_.set(dec.a_cell, value);
        state_.set(dec.v_cell, value);
        break;
    }
    return;
  }
  apply(OpTarget::Write, address, value);
}

Bit FaultyMemory::read(std::size_t address) {
  if (!decoders_.empty() && address == decoders_[0].a_cell) {
    const BoundDecoder& dec = decoders_[0];
    switch (dec.fault.cls) {
      case DecoderFaultClass::NoAccess:
        // Floating data line: the read-back couples to the broken address
        // line's driver (address-dependent — see fp/decoder_fault.hpp).
        return dec.no_access_read_back();
      case DecoderFaultClass::WrongCell:
        return state_.get(dec.v_cell);
      case DecoderFaultClass::MultipleCells:
        // Two cells fight on the data line: wired-OR or wired-AND.
        if (dec.fault.wired == Bit::One) {
          return (state_.get(dec.a_cell) == Bit::One ||
                  state_.get(dec.v_cell) == Bit::One)
                     ? Bit::One
                     : Bit::Zero;
        }
        return (state_.get(dec.a_cell) == Bit::One &&
                state_.get(dec.v_cell) == Bit::One)
                   ? Bit::One
                   : Bit::Zero;
      case DecoderFaultClass::MultipleAddresses:
        // Only the write path is corrupted: the read returns the (stale,
        // never-written) own cell.
        return state_.get(dec.a_cell);
    }
  }
  return apply(OpTarget::Read, address, Bit::Zero);
}

void FaultyMemory::wait(std::size_t address) {
  // A wait at the corrupted address is inert: retention decay is a
  // cell-level FP effect and decoder instances carry no FPs.
  if (!decoders_.empty() && address == decoders_[0].a_cell) return;
  apply(OpTarget::Wait, address, Bit::Zero);
}

std::size_t FaultyMemory::fire_count(std::size_t fault_index) const {
  require(fault_index < fire_counts_.size(), "fire_count: bad fault index");
  return fire_counts_[fault_index];
}

bool FaultyMemory::op_matches(const BoundFp& bound, OpTarget target,
                              std::size_t address, Bit written) const {
  const FaultPrimitive& fp = bound.fp;
  if (fp.is_state_fault()) return false;  // handled by settle_state_faults

  const bool on_aggressor = fp.op_on_aggressor();
  const std::size_t sense_cell = on_aggressor ? bound.a_cell : bound.v_cell;
  if (address != sense_cell) return false;

  switch (fp.sense_op()) {
    case SenseOp::W0:
      if (target != OpTarget::Write || written != Bit::Zero) return false;
      break;
    case SenseOp::W1:
      if (target != OpTarget::Write || written != Bit::One) return false;
      break;
    case SenseOp::Rd:
      if (target != OpTarget::Read) return false;
      break;
    case SenseOp::Wt:
      if (target != OpTarget::Wait) return false;
      break;
    case SenseOp::None:
      return false;
  }

  if (state_.get(bound.v_cell) != fp.v_state()) return false;
  if (fp.is_two_cell() && state_.get(bound.a_cell) != fp.a_state()) return false;
  return true;
}

bool FaultyMemory::state_condition_holds(const BoundFp& bound) const {
  const FaultPrimitive& fp = bound.fp;
  if (state_.get(bound.v_cell) != fp.v_state()) return false;
  if (fp.is_two_cell() && state_.get(bound.a_cell) != fp.a_state()) return false;
  return true;
}

void FaultyMemory::settle_state_faults(std::uint32_t& fired_this_op) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < faults_.size(); ++i) {
      const BoundFp& bound = faults_[i];
      if (!bound.fp.is_state_fault()) continue;
      if (((fired_this_op >> i) & 1u) != 0 || !armed_[i]) continue;
      if (!state_condition_holds(bound)) continue;
      state_.set(bound.v_cell, bound.fp.fault_value());
      armed_[i] = false;
      fired_this_op |= std::uint32_t{1} << i;
      ++fire_counts_[i];
      ++total_fires_;
      changed = true;
    }
  }
}

void FaultyMemory::rearm_state_faults() {
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    if (!faults_[i].fp.is_state_fault()) continue;
    if (!armed_[i] && !state_condition_holds(faults_[i])) armed_[i] = true;
  }
}

Bit FaultyMemory::apply(OpTarget target, std::size_t address, Bit written) {
  assert(address < state_.size() && "operation address out of range");
  // Evaluate sensitizations against the pre-operation state (state_ is
  // still unmodified here), then apply the default effect and overrides.
  std::uint32_t matched = 0;
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    if (op_matches(faults_[i], target, address, written)) {
      matched |= std::uint32_t{1} << i;
    }
  }

  Bit out = (target == OpTarget::Read) ? state_.get(address) : Bit::Zero;

  // Default operation effect.
  if (target == OpTarget::Write) state_.set(address, written);

  std::uint32_t fired = 0;
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    if (((matched >> i) & 1u) == 0) continue;
    const BoundFp& bound = faults_[i];
    state_.set(bound.v_cell, bound.fp.fault_value());
    if (target == OpTarget::Read && bound.fp.op_on_victim() &&
        bound.v_cell == address) {
      out = to_bit(bound.fp.read_result());
    }
    fired |= std::uint32_t{1} << i;
    ++fire_counts_[i];
    ++total_fires_;
  }

  settle_state_faults(fired);
  rearm_state_faults();
  return out;
}

}  // namespace mtg
