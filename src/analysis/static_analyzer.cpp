#include "analysis/static_analyzer.hpp"

#include <algorithm>
#include <array>
#include <sstream>

#include "common/error.hpp"
#include "fp/semantics.hpp"
#include "sim/simulator.hpp"

namespace mtg {
namespace {

constexpr std::size_t kMaxSlots = 4;
/// Bound FPs per machine.  A configuration key is kMaxFps armed bits plus
/// 2 bits per slot, so at most 2^(4 + 8) = 4096 distinct configurations
/// exist and the deduplicated breadth-first frontier never exceeds that.
/// Catalog-shaped faults bind at most 2 FPs.
constexpr std::size_t kMaxFps = 4;

/// A decoder fault rebased onto involved-cell ranks.  `readback` bakes in
/// the address-dependent AFna read-back (bit `bit` of the corrupted
/// address), the only place absolute addresses enter the semantics.
struct SlotDecoder {
  DecoderFaultClass cls = DecoderFaultClass::NoAccess;
  Bit wired = Bit::Zero;
  Bit readback = Bit::Zero;
  std::size_t a_slot = 0;
  std::size_t v_slot = 0;
};

/// The involved-cell micro-machine: FPs (or one decoder fault) bound to
/// cell ranks 0..slots-1 in address order.
struct SlotMachine {
  std::size_t slots = 0;
  std::vector<BoundFp> fps;  ///< a_cell / v_cell hold slot ranks
  std::optional<SlotDecoder> decoder;
};

/// One undetected machine configuration.  `faulty`/`good`/`armed` are the
/// machine state proper (the dedup key); the rest is scenario metadata and
/// witness bookkeeping carried along from the first path that reached the
/// state.
struct Config {
  std::array<Bit, kMaxSlots> faulty{};
  std::array<Bit, kMaxSlots> good{};
  std::uint32_t armed = 0;

  Bit power_on = Bit::Zero;
  std::uint64_t any_mask = 0;

  bool has_sense = false;
  bool sense_at_power_on = false;
  bool sense_is_decoder = false;
  std::size_t sense_fp = 0;
  std::size_t sense_element = 0;
  std::size_t sense_op = 0;
};

std::uint32_t config_key(const Config& c) {
  std::uint32_t key = c.armed;
  for (std::size_t s = 0; s < kMaxSlots; ++s) {
    key = (key << 2) | (static_cast<std::uint32_t>(to_int(c.faulty[s])) << 1 |
                        static_cast<std::uint32_t>(to_int(c.good[s])));
  }
  return key;
}

/// The failing read that emptied a configuration out of the live set.
struct Detection {
  std::size_t element = 0;
  std::size_t op = 0;
  std::size_t slot = 0;
  Bit expected = Bit::Zero;
  Bit observed = Bit::Zero;
  Config config;  ///< state at detection time (sense + scenario metadata)
};

enum class OpTarget { Write, Read, Wait };

/// Exact mirror of FaultyMemory (fp/semantics.cpp) over slot ranks.  Every
/// branch here corresponds line for line to the reference semantics; the
/// three-way differential harness keeps the two from drifting apart.
class Interp {
 public:
  explicit Interp(const SlotMachine& machine) : m_(machine) {}

  void power_on(Config& c, Bit value) const {
    for (std::size_t s = 0; s < m_.slots; ++s) {
      c.faulty[s] = value;
      c.good[s] = value;
    }
    c.armed = m_.fps.empty()
                  ? 0
                  : (m_.fps.size() >= 32
                         ? ~std::uint32_t{0}
                         : (std::uint32_t{1} << m_.fps.size()) - 1);
    c.power_on = value;
    std::uint32_t fired = 0;
    settle(c, fired, 0, 0, /*at_power_on=*/true);
    rearm(c);
  }

  void write(Config& c, std::size_t slot, Bit value, std::size_t element,
             std::size_t op) const {
    if (m_.decoder.has_value() && slot == m_.decoder->a_slot) {
      const SlotDecoder& dec = *m_.decoder;
      record_decoder_sense(c, element, op);
      switch (dec.cls) {
        case DecoderFaultClass::NoAccess:
          break;  // no cell selected — the write is dropped
        case DecoderFaultClass::WrongCell:
        case DecoderFaultClass::MultipleAddresses:
          c.faulty[dec.v_slot] = value;
          break;
        case DecoderFaultClass::MultipleCells:
          c.faulty[dec.a_slot] = value;
          c.faulty[dec.v_slot] = value;
          break;
      }
      return;
    }
    apply(c, OpTarget::Write, slot, value, element, op);
  }

  Bit read(Config& c, std::size_t slot, std::size_t element,
           std::size_t op) const {
    if (m_.decoder.has_value() && slot == m_.decoder->a_slot) {
      const SlotDecoder& dec = *m_.decoder;
      switch (dec.cls) {
        case DecoderFaultClass::NoAccess:
          return dec.readback;
        case DecoderFaultClass::WrongCell:
          return c.faulty[dec.v_slot];
        case DecoderFaultClass::MultipleCells:
          if (dec.wired == Bit::One) {
            return (c.faulty[dec.a_slot] == Bit::One ||
                    c.faulty[dec.v_slot] == Bit::One)
                       ? Bit::One
                       : Bit::Zero;
          }
          return (c.faulty[dec.a_slot] == Bit::One &&
                  c.faulty[dec.v_slot] == Bit::One)
                     ? Bit::One
                     : Bit::Zero;
        case DecoderFaultClass::MultipleAddresses:
          return c.faulty[dec.a_slot];
      }
    }
    return apply(c, OpTarget::Read, slot, Bit::Zero, element, op);
  }

  void wait(Config& c, std::size_t slot, std::size_t element,
            std::size_t op) const {
    if (m_.decoder.has_value() && slot == m_.decoder->a_slot) return;
    apply(c, OpTarget::Wait, slot, Bit::Zero, element, op);
  }

 private:
  bool op_matches(const Config& c, const BoundFp& bound, OpTarget target,
                  std::size_t slot, Bit written) const {
    const FaultPrimitive& fp = bound.fp;
    if (fp.is_state_fault()) return false;  // handled by settle()

    const bool on_aggressor = fp.op_on_aggressor();
    const std::size_t sense_slot = on_aggressor ? bound.a_cell : bound.v_cell;
    if (slot != sense_slot) return false;

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

    if (c.faulty[bound.v_cell] != fp.v_state()) return false;
    if (fp.is_two_cell() && c.faulty[bound.a_cell] != fp.a_state()) {
      return false;
    }
    return true;
  }

  bool state_condition_holds(const Config& c, const BoundFp& bound) const {
    const FaultPrimitive& fp = bound.fp;
    if (c.faulty[bound.v_cell] != fp.v_state()) return false;
    if (fp.is_two_cell() && c.faulty[bound.a_cell] != fp.a_state()) {
      return false;
    }
    return true;
  }

  void record_sense(Config& c, std::size_t fp_index, std::size_t element,
                    std::size_t op, bool at_power_on) const {
    c.has_sense = true;
    c.sense_at_power_on = at_power_on;
    c.sense_is_decoder = false;
    c.sense_fp = fp_index;
    c.sense_element = element;
    c.sense_op = op;
  }

  void record_decoder_sense(Config& c, std::size_t element,
                            std::size_t op) const {
    c.has_sense = true;
    c.sense_at_power_on = false;
    c.sense_is_decoder = true;
    c.sense_element = element;
    c.sense_op = op;
  }

  void settle(Config& c, std::uint32_t& fired_this_op, std::size_t element,
              std::size_t op, bool at_power_on) const {
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t i = 0; i < m_.fps.size(); ++i) {
        const BoundFp& bound = m_.fps[i];
        if (!bound.fp.is_state_fault()) continue;
        if (((fired_this_op >> i) & 1u) != 0 || ((c.armed >> i) & 1u) == 0) {
          continue;
        }
        if (!state_condition_holds(c, bound)) continue;
        c.faulty[bound.v_cell] = bound.fp.fault_value();
        c.armed &= ~(std::uint32_t{1} << i);
        fired_this_op |= std::uint32_t{1} << i;
        record_sense(c, i, element, op, at_power_on);
        changed = true;
      }
    }
  }

  void rearm(Config& c) const {
    for (std::size_t i = 0; i < m_.fps.size(); ++i) {
      if (!m_.fps[i].fp.is_state_fault()) continue;
      if (((c.armed >> i) & 1u) == 0 && !state_condition_holds(c, m_.fps[i])) {
        c.armed |= std::uint32_t{1} << i;
      }
    }
  }

  Bit apply(Config& c, OpTarget target, std::size_t slot, Bit written,
            std::size_t element, std::size_t op) const {
    // Sensitizations evaluate against the pre-operation state.
    std::uint32_t matched = 0;
    for (std::size_t i = 0; i < m_.fps.size(); ++i) {
      if (op_matches(c, m_.fps[i], target, slot, written)) {
        matched |= std::uint32_t{1} << i;
      }
    }

    Bit out = (target == OpTarget::Read) ? c.faulty[slot] : Bit::Zero;

    if (target == OpTarget::Write) c.faulty[slot] = written;

    std::uint32_t fired = 0;
    for (std::size_t i = 0; i < m_.fps.size(); ++i) {
      if (((matched >> i) & 1u) == 0) continue;
      const BoundFp& bound = m_.fps[i];
      c.faulty[bound.v_cell] = bound.fp.fault_value();
      if (target == OpTarget::Read && bound.fp.op_on_victim() &&
          bound.v_cell == slot) {
        out = to_bit(bound.fp.read_result());
      }
      fired |= std::uint32_t{1} << i;
      record_sense(c, i, element, op, /*at_power_on=*/false);
    }

    settle(c, fired, element, op, /*at_power_on=*/false);
    rearm(c);
    return out;
  }

  const SlotMachine& m_;
};

StaticResult unknown_result(std::string reason) {
  StaticResult result;
  result.verdict = StaticVerdict::Unknown;
  result.reason = std::move(reason);
  return result;
}

StaticResult not_detected_result(std::string reason) {
  StaticResult result;
  result.verdict = StaticVerdict::NotDetected;
  result.reason = std::move(reason);
  return result;
}

std::string mask_string(std::uint64_t mask, std::size_t any_count) {
  std::string bits;
  for (std::size_t i = 0; i < any_count; ++i) {
    bits += ((mask >> i) & 1u) != 0 ? "⇓" : "⇑";
  }
  return bits;
}

/// ⇕ resolutions beyond the 64-bit witness mask are walked exactly but not
/// recorded: verdicts stay sound, the replay metadata just truncates.
constexpr std::size_t kAnyMaskBits = 64;

/// The core walk: runs `machine` through `test`, branching on ⇕ elements.
StaticResult analyze_machine(const MarchTest& test, const SlotMachine& machine,
                             const std::string& subject) {
  if (machine.slots == 0 || machine.slots > kMaxSlots) {
    return unknown_result(subject + ": more than " +
                          std::to_string(kMaxSlots) +
                          " involved cells is outside the abstract domain");
  }
  if (machine.fps.size() > kMaxFps) {
    return unknown_result(subject + ": too many bound fault primitives");
  }
  if (machine.decoder.has_value() && !machine.fps.empty()) {
    return unknown_result(
        subject + ": decoder faults do not combine with fault primitives");
  }
  for (const BoundFp& bound : machine.fps) {
    if (bound.fp.v_op() == SenseOp::Rd && !is_concrete(bound.fp.read_result())) {
      return unknown_result(subject +
                            ": read-sensitized FP with don't-care read "
                            "result is outside the abstract domain");
    }
    if (bound.a_cell >= machine.slots || bound.v_cell >= machine.slots) {
      return unknown_result(subject + ": FP bound outside the cell ranks");
    }
  }

  const Interp interp(machine);
  std::vector<Config> live;
  live.reserve(2);
  for (const Bit power_on : {Bit::Zero, Bit::One}) {
    Config c{};
    interp.power_on(c, power_on);
    live.push_back(c);
  }

  std::optional<Detection> first_detection;
  const std::size_t total_any = FaultSimulator::any_order_count(test);

  // Runs one configuration through element `e` under a fixed address order.
  // Returns true when a read detected the deviation (recording the first
  // detection overall), false when the configuration survives the element.
  const auto walk_element = [&](Config& c, std::size_t e,
                                AddressOrder order) -> bool {
    const MarchElement& element = test.elements()[e];
    for (std::size_t step = 0; step < machine.slots; ++step) {
      const std::size_t slot =
          order == AddressOrder::Up ? step : machine.slots - 1 - step;
      for (std::size_t i = 0; i < element.ops().size(); ++i) {
        const Op op = element.ops()[i];
        if (is_write(op)) {
          const Bit value = written_value(op);
          c.good[slot] = value;
          interp.write(c, slot, value, e, i);
        } else if (is_read(op)) {
          const Bit expected = c.good[slot];
          const Bit observed = interp.read(c, slot, e, i);
          if (observed != expected) {
            if (!first_detection.has_value()) {
              first_detection = Detection{e, i, slot, expected, observed, c};
            }
            return true;
          }
        } else {
          interp.wait(c, slot, e, i);
        }
      }
    }
    return false;
  };

  std::size_t any_index = 0;  // ⇕ ordinal of the next branching element
  for (std::size_t e = 0; e < test.elements().size() && !live.empty(); ++e) {
    const MarchElement& element = test.elements()[e];
    const bool branching = element.order() == AddressOrder::Any;

    std::vector<Config> next;
    next.reserve(live.size() * (branching ? 2 : 1));
    std::vector<std::uint32_t> seen;
    seen.reserve(next.capacity());

    for (const Config& base : live) {
      for (int branch = 0; branch < (branching ? 2 : 1); ++branch) {
        const AddressOrder order =
            branching ? (branch != 0 ? AddressOrder::Down : AddressOrder::Up)
                      : element.order();
        Config c = base;
        if (branching && branch != 0 && any_index < kAnyMaskBits) {
          c.any_mask |= std::uint64_t{1} << any_index;
        }
        if (!walk_element(c, e, order)) {
          const std::uint32_t key = config_key(c);
          if (std::find(seen.begin(), seen.end(), key) == seen.end()) {
            seen.push_back(key);
            next.push_back(c);
          }
        }
      }
    }

    live.swap(next);
    if (branching) ++any_index;
  }

  if (live.empty()) {
    require(first_detection.has_value(),
            "static analyzer: emptied the state set without a detection");
    StaticResult result;
    result.verdict = StaticVerdict::Detected;
    StaticWitness w;
    const Detection& det = *first_detection;
    w.power_on = det.config.power_on;
    w.any_mask = det.config.any_mask;
    w.any_count = total_any;
    w.observe_element = det.element;
    w.observe_op = det.op;
    w.observe_slot = det.slot;
    w.expected = det.expected;
    w.observed = det.observed;
    w.has_sense = det.config.has_sense;
    w.sense_at_power_on = det.config.sense_at_power_on;
    w.sense_element = det.config.sense_element;
    w.sense_op = det.config.sense_op;
    if (det.config.has_sense) {
      w.sense_what = det.config.sense_is_decoder
                         ? "the decoder deviation"
                         : machine.fps[det.config.sense_fp].fp.notation();
    }
    result.witness = std::move(w);
    return result;
  }

  const Config& escape = live.front();
  std::ostringstream reason;
  reason << subject << " escapes: power-on " << to_char(escape.power_on);
  if (total_any > 0) {
    reason << ", ⇕ resolved as "
           << mask_string(escape.any_mask, std::min(total_any, kAnyMaskBits));
    if (total_any > kAnyMaskBits) {
      reason << "… (first " << kAnyMaskBits << " of " << total_any << ")";
    }
  }
  reason << " produces no failing read";
  return not_detected_result(reason.str());
}

StaticResult no_instances_result(const std::string& subject, std::size_t n) {
  return not_detected_result(subject + ": no instances fit a memory of " +
                             std::to_string(n) + " cells");
}

/// Combines the per-branch verdicts of a fault whose instances fall into
/// several behaviour classes: Detected needs every branch detected; one
/// escaping branch is enough for NotDetected.
StaticResult combine_branches(std::vector<StaticResult> branches) {
  StaticResult combined;
  combined.verdict = StaticVerdict::Detected;
  for (StaticResult& branch : branches) {
    if (branch.verdict == StaticVerdict::NotDetected) return branch;
    if (branch.verdict == StaticVerdict::Unknown) {
      combined.verdict = StaticVerdict::Unknown;
      combined.reason = branch.reason;
      combined.witness.reset();
    } else if (combined.verdict == StaticVerdict::Detected &&
               !combined.witness.has_value()) {
      combined.witness = std::move(branch.witness);
    }
  }
  return combined;
}

}  // namespace

std::string to_string(StaticVerdict verdict) {
  switch (verdict) {
    case StaticVerdict::Detected:
      return "detected";
    case StaticVerdict::NotDetected:
      return "not detected";
    case StaticVerdict::Unknown:
      return "unknown";
  }
  return "?";
}

std::string StaticWitness::to_string() const {
  std::ostringstream out;
  out << "element #" << observe_element << " op #" << observe_op
      << " reads " << to_char(observed) << " where the fault-free machine"
      << " holds " << to_char(expected) << " (cell rank " << observe_slot
      << "; power-on " << to_char(power_on);
  if (any_count > 0) {
    out << ", ⇕ resolved as "
        << mask_string(any_mask, std::min(any_count, kAnyMaskBits));
    if (any_count > kAnyMaskBits) {
      out << "… (first " << kAnyMaskBits << " of " << any_count << ")";
    }
  }
  out << ")";
  if (has_sense) {
    out << "; sensitized by " << sense_what;
    if (sense_at_power_on) {
      out << " at power-on";
    } else {
      out << " at element #" << sense_element << " op #" << sense_op;
    }
  }
  return out.str();
}

StaticResult analyze_instance(const MarchTest& test,
                              const FaultInstance& instance) {
  if (!instance.decoders.empty() && !instance.fps.empty()) {
    return unknown_result(
        "instance combines fault primitives with a decoder fault");
  }
  if (instance.decoders.size() > 1) {
    return unknown_result("instance carries several decoder faults");
  }

  SlotMachine machine;
  if (!instance.decoders.empty()) {
    const BoundDecoder& dec = instance.decoders[0];
    SlotDecoder slot_dec;
    slot_dec.cls = dec.fault.cls;
    slot_dec.wired = dec.fault.wired;
    slot_dec.readback = dec.no_access_read_back();
    if (dec.two_cell()) {
      machine.slots = 2;
      slot_dec.a_slot = dec.a_cell < dec.v_cell ? 0 : 1;
      slot_dec.v_slot = 1 - slot_dec.a_slot;
    } else {
      machine.slots = 1;
      slot_dec.a_slot = 0;
      slot_dec.v_slot = 0;
    }
    machine.decoder = slot_dec;
    return analyze_machine(test, machine, instance.description);
  }

  // Rebase the bound FPs onto involved-cell ranks.
  std::vector<std::size_t> cells;
  for (const BoundFp& bound : instance.fps) {
    cells.push_back(bound.a_cell);
    cells.push_back(bound.v_cell);
  }
  std::sort(cells.begin(), cells.end());
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  if (cells.empty() || cells.size() > kMaxSlots) {
    return unknown_result(instance.description + ": " +
                          std::to_string(cells.size()) +
                          " involved cells is outside the abstract domain");
  }
  const auto rank = [&cells](std::size_t cell) {
    return static_cast<std::size_t>(
        std::lower_bound(cells.begin(), cells.end(), cell) - cells.begin());
  };
  machine.slots = cells.size();
  for (const BoundFp& bound : instance.fps) {
    machine.fps.push_back(
        BoundFp(bound.fp, rank(bound.a_cell), rank(bound.v_cell)));
  }
  return analyze_machine(test, machine, instance.description);
}

StaticResult analyze_fault(const MarchTest& test, const SimpleFault& fault,
                           std::size_t n) {
  const std::size_t k = static_cast<std::size_t>(fault.num_cells());
  if (n < k) return no_instances_result(fault.name, n);
  // Cell-array faults have one behaviour class: the layout fixes the
  // relative order of the involved cells, and nothing else about the
  // addresses enters the semantics.
  SlotMachine machine;
  machine.slots = k;
  const std::size_t v = fault.v_pos;
  const std::size_t a =
      fault.a_pos >= 0 ? static_cast<std::size_t>(fault.a_pos) : v;
  machine.fps.push_back(BoundFp(fault.fp, a, v));
  return analyze_machine(test, machine, fault.name);
}

StaticResult analyze_fault(const MarchTest& test, const LinkedFault& fault,
                           std::size_t n) {
  const std::size_t k = static_cast<std::size_t>(fault.num_cells());
  if (n < k) return no_instances_result(fault.name(), n);
  const LinkedLayout& layout = fault.layout();
  SlotMachine machine;
  machine.slots = k;
  const std::size_t v = layout.v_pos;
  const std::size_t a1 =
      layout.a1_pos >= 0 ? static_cast<std::size_t>(layout.a1_pos) : v;
  const std::size_t a2 =
      layout.a2_pos >= 0 ? static_cast<std::size_t>(layout.a2_pos) : v;
  // Same FP order as instantiate(): fp1 before fp2 — firing order matters
  // when both match one operation.
  machine.fps.push_back(BoundFp(fault.fp1(), a1, v));
  machine.fps.push_back(BoundFp(fault.fp2(), a2, v));
  return analyze_machine(test, machine, fault.name());
}

StaticResult analyze_fault(const MarchTest& test, const DecoderFault& fault,
                           std::size_t n) {
  if (decoder_address_count(fault, n) == 0) {
    return no_instances_result(fault.name(), n);
  }
  // Two behaviour classes per fault, both feasible whenever 2^bit < n:
  // AFna splits on the read-back bit (a = 0 vs a = 2^bit), the two-cell
  // classes split on which side of the pair holds the corrupted address.
  std::vector<StaticResult> branches;
  for (int branch = 0; branch < 2; ++branch) {
    SlotMachine machine;
    SlotDecoder slot_dec;
    slot_dec.cls = fault.cls;
    slot_dec.wired = fault.wired;
    if (fault.cls == DecoderFaultClass::NoAccess) {
      machine.slots = 1;
      slot_dec.a_slot = 0;
      slot_dec.v_slot = 0;
      slot_dec.readback = branch == 0 ? Bit::Zero : Bit::One;
    } else {
      machine.slots = 2;
      slot_dec.a_slot = static_cast<std::size_t>(branch);
      slot_dec.v_slot = 1 - slot_dec.a_slot;
    }
    machine.decoder = slot_dec;
    branches.push_back(
        analyze_machine(test, machine, fault.name()));
  }
  return combine_branches(std::move(branches));
}

std::string StaticCoverage::summary() const {
  std::ostringstream out;
  out << "static: " << detected << " detected, " << not_detected
      << " not detected, " << unknown << " unknown (of " << entries.size()
      << " faults)";
  return out.str();
}

StaticCoverage analyze_coverage(const MarchTest& test, const FaultList& list,
                                std::size_t n) {
  StaticCoverage coverage;
  coverage.entries.reserve(list.size());
  const auto add = [&coverage](const std::string& name, StaticResult result,
                               std::uint64_t count) {
    StaticCoverageEntry entry;
    entry.fault_index = coverage.entries.size();
    entry.fault_name = name;
    entry.verdict = result.verdict;
    entry.instance_count = count;
    entry.witness = std::move(result.witness);
    entry.reason = std::move(result.reason);
    switch (entry.verdict) {
      case StaticVerdict::Detected:
        ++coverage.detected;
        break;
      case StaticVerdict::NotDetected:
        ++coverage.not_detected;
        break;
      case StaticVerdict::Unknown:
        ++coverage.unknown;
        break;
    }
    coverage.entries.push_back(std::move(entry));
  };
  for (const SimpleFault& fault : list.simple) {
    add(fault.name, analyze_fault(test, fault, n),
        kept_layouts(n, static_cast<std::size_t>(fault.num_cells()), 0));
  }
  for (const LinkedFault& fault : list.linked) {
    add(fault.name(), analyze_fault(test, fault, n),
        kept_layouts(n, static_cast<std::size_t>(fault.num_cells()), 0));
  }
  for (const DecoderFault& fault : list.decoder) {
    add(fault.name(), analyze_fault(test, fault, n),
        decoder_address_count(fault, n));
  }
  return coverage;
}

}  // namespace mtg
